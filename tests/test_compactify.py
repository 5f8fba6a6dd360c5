import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import IntegrationWarning
from scipy.optimize import brentq, minimize_scalar

from filippov.compactify import (
    Hyperbolicity,
    S1Status,
    _real_roots,
    compactified_field,
    eq4_value,
    infinity_singularities,
    pullback_check,
    s1_elementarity,
    trig_coefficients,
)
from filippov.errors import (
    DegenerateTopCoefficient,
    EvenDegree,
    NoConvergence,
    WrongHalf,
)
from filippov.polys import piecewise, poly, vf
from filippov.stability import SATISFIED, check_gm
from filippov.tolerances import default_tols

ROTATION = vf({(0, 1): -1.0}, {(1, 0): 1.0})      # (-y, x)
RADIAL = vf({(1, 0): 1.0}, {(0, 1): 1.0})         # (x, y)
SPIRAL = vf({(0, 1): -1.0, (1, 0): 1.0},
            {(1, 0): 1.0, (0, 1): 1.0})           # (-y+x, x+y)
# X = (0.6x - 0.09y, x): A_{1,1} = (cos t - 0.3 sin t)^2, a double zero at
# cot t = 0.3, i.e. a saddle-node at infinity
DOUBLE_ZERO = piecewise(vf({(1, 0): 0.6, (0, 1): -0.09}, {(1, 0): 1.0}),
                        ROTATION)


def _mu_by_residues(z):
    """Test-only reference for the equator integral mu, by residues.

    With t = cot(theta), A_m = sin^(m+1) a(t) and R_m = sin^(m+1) r(t) for
    a(t) = t Q_m(t, 1) - P_m(t, 1) and r(t) = t P_m(t, 1) + Q_m(t, 1), and
    dtheta = -dt / (1 + t^2).  So mu is the integral over the real line of
    (r1/a1 + r2/a2) / (1 + t^2), a rational function with no real pole.
    Each r/a is split as c + s/a with deg s < deg a; c adds c * pi.
    Closing the contour in the upper half-plane, s/(a (1 + t^2)) adds
    2 pi i times its residues there: s(i) / (2i a(i)) at t = i, and
    s(z) / (a'(z) (1 + z^2)) at each (simple) root z of a.
    """
    m = z.m
    mu = 0.0
    for side in (z.X, z.Y):
        p, q = np.zeros(m + 1), np.zeros(m + 1)
        for c, poly_ in ((p, side.P), (q, side.Q)):
            for (i, j), v in poly_.coeffs.items():
                if i + j == m:
                    c[i] += v
        a = npoly.polysub(npoly.polymulx(q), p)
        r = npoly.polyadd(npoly.polymulx(p), q)
        c = r[-1] / a[-1]
        s = r - c * a
        mu += c * math.pi
        if not s.any():
            continue
        res = npoly.polyval(1j, s) / (2j * npoly.polyval(1j, a))
        da = npoly.polyder(a)
        for root in npoly.polyroots(a):
            if root.imag > 0:
                res += npoly.polyval(root, s) / (
                    npoly.polyval(root, da) * (1 + root * root))
        mu += (2j * math.pi * res).real
    return mu


def _zeros_on_interval(A, lo, hi, tols, n_grid=4096):
    """Test-only reference: the sampling census that the cot-polynomial
    roots replaced (sign changes polished by brentq, even-order zeros as
    near-zero local minima of |A|)."""
    pad = 1e-9
    grid = np.linspace(lo + pad, hi - pad, n_grid)
    vals = np.array([A(t) for t in grid])
    scale = max(max((abs(v) for v in A.p_k.coeffs.values()), default=0.0),
                max((abs(v) for v in A.q_k.coeffs.values()), default=0.0),
                1.0)
    zeros = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        zeros.append(brentq(A, grid[i], grid[i + 1], xtol=tols.root))
    absv = np.abs(vals)
    for i in range(1, n_grid - 1):
        if absv[i] <= absv[i - 1] and absv[i] <= absv[i + 1] \
                and absv[i] < 1e-4 * scale:
            res = minimize_scalar(lambda t: abs(A(t)),
                                  bracket=(grid[i - 1], grid[i], grid[i + 1]),
                                  method="brent",
                                  options={"xtol": tols.root})
            t_star = float(res.x)
            if abs(A(t_star)) <= tols.sign and lo < t_star < hi:
                zeros.append(t_star)
    zeros.sort()
    merged = []
    for z in zeros:
        if merged and abs(z - merged[-1]) <= 100 * tols.root:
            continue
        merged.append(z)
    return merged


def test_trig_rotation():
    As, Rs = trig_coefficients(ROTATION)
    for t in np.linspace(0, 2 * math.pi, 17):
        assert As[1](t) == pytest.approx(1.0, abs=1e-14)
        assert Rs[1](t) == pytest.approx(0.0, abs=1e-14)


def test_trig_radial():
    As, Rs = trig_coefficients(RADIAL)
    for t in np.linspace(0, 2 * math.pi, 17):
        assert As[1](t) == pytest.approx(0.0, abs=1e-14)
        assert Rs[1](t) == pytest.approx(1.0, abs=1e-14)


def test_trig_x_squared():
    # X = (x^2, 0): A2 = -cos^2 t sin t, R2 = cos^3 t
    X = vf({(2, 0): 1.0}, {})
    As, Rs = trig_coefficients(X)
    for t in np.linspace(0, 2 * math.pi, 23):
        c, s = math.cos(t), math.sin(t)
        assert As[2](t) == pytest.approx(-c * c * s, abs=1e-14)
        assert Rs[2](t) == pytest.approx(c**3, abs=1e-14)


def test_trig_derivative_matches_fd():
    rng = np.random.default_rng(8)
    X = vf({(i, j): rng.standard_normal() for i in range(3) for j in range(3 - i)},
           {(i, j): rng.standard_normal() for i in range(3) for j in range(3 - i)})
    As, Rs = trig_coefficients(X)
    h = 1e-6
    for coef in (As[2], Rs[2], As[1], Rs[1]):
        for t in np.linspace(0.1, 6.0, 9):
            fd = (coef(t + h) - coef(t - h)) / (2 * h)
            assert coef.derivative(t) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_compactified_radial():
    z = piecewise(RADIAL, RADIAL)
    tf = compactified_field(z)
    v = tf.eval_upper(math.pi / 4, 0.5)
    assert v[0] == pytest.approx(0.0, abs=1e-14)
    assert v[1] == pytest.approx(-0.5, abs=1e-14)


def test_rho_zero_invariant():
    z = piecewise(SPIRAL, ROTATION)
    tf = compactified_field(z)
    for t in np.linspace(0, math.pi, 9):
        assert tf.eval_upper(t, 0.0)[1] == 0.0
    for t in np.linspace(math.pi, 2 * math.pi, 9):
        assert tf.eval_lower(t, 0.0)[1] == 0.0


def test_compactified_rotation():
    z = piecewise(ROTATION, ROTATION)
    tf = compactified_field(z)
    assert tf.eval_upper(math.pi / 2, 1.0) == pytest.approx((1.0, 0.0))


def test_wrong_half():
    z = piecewise(ROTATION, ROTATION)
    tf = compactified_field(z)
    with pytest.raises(WrongHalf):
        tf.eval_upper(3 * math.pi / 2, 0.5)
    with pytest.raises(WrongHalf):
        tf.eval_lower(math.pi / 2, 0.5)


def test_rotation_identity():
    # A_k^2 + R_k^2 = P_k^2 + Q_k^2 on the unit circle
    rng = np.random.default_rng(77)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        X = vf({(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                for j in range(m + 1 - i)},
               {(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                for j in range(m + 1 - i)})
        As, Rs = trig_coefficients(X)
        t = rng.uniform(0, 2 * math.pi)
        k = int(rng.integers(0, m + 1))
        c, s = math.cos(t), math.sin(t)
        pk = As[k].p_k(c, s)
        qk = As[k].q_k(c, s)
        lhs = As[k](t) ** 2 + Rs[k](t) ** 2
        rhs = pk * pk + qk * qk
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_pullback_direction():
    for z in (piecewise(RADIAL, RADIAL), piecewise(ROTATION, ROTATION)):
        assert pullback_check(z, math.pi / 3, 0.2) <= 1e-10
        assert pullback_check(z, 2 * math.pi / 3, 1.0) <= 1e-10
    with pytest.raises(ValueError):
        pullback_check(piecewise(RADIAL, RADIAL), math.pi / 3, 0.0)


def test_pullback_random_fields():
    rng = np.random.default_rng(31)
    count = 0
    while count < 300:
        m = int(rng.integers(1, 4))
        def cs():
            return {(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                    for j in range(m + 1 - i)}
        z = piecewise(vf(cs(), cs(), m=m), vf(cs(), cs(), m=m))
        t = rng.uniform(0, 2 * math.pi)
        if abs(math.sin(t)) < 0.1:
            continue
        rho = rng.uniform(0.1, 2.0)
        assert pullback_check(z, t, rho) <= 1e-8
        count += 1


def test_infinity_rotation():
    z = piecewise(ROTATION, ROTATION)
    sings = infinity_singularities(z)
    tags = [s.field_tag for s in sings]
    assert tags == ["FilippovPoint", "FilippovPoint"]
    assert sings[0].theta == pytest.approx(0.0)
    assert sings[1].theta == pytest.approx(math.pi)


def test_infinity_degenerate_radial():
    z = piecewise(RADIAL, RADIAL)
    with pytest.raises(DegenerateTopCoefficient):
        infinity_singularities(z)


def test_infinity_even_order_zero():
    # X = (x^2, 0), Y = (x^2, -y^2): A_{1,2} = -cos^2 t sin t, zero at pi/2
    X = vf({(2, 0): 1.0}, {})
    Y = vf({(2, 0): 1.0}, {(0, 2): -1.0})
    z = piecewise(X, Y)
    sings = infinity_singularities(z)
    xs = [s for s in sings if s.field_tag == "X"]
    assert len(xs) == 1
    assert xs[0].theta == pytest.approx(math.pi / 2, abs=1e-9)
    assert xs[0].hyperbolic is Hyperbolicity.NO


def test_infinity_saddle_node_not_hyperbolic():
    sings = infinity_singularities(DOUBLE_ZERO)
    xs = [s for s in sings if s.field_tag == "X"]
    assert len(xs) == 1
    assert xs[0].theta == pytest.approx(math.atan2(1.0, 0.3), abs=1e-9)
    assert xs[0].hyperbolic is Hyperbolicity.NO
    rep = check_gm(DOUBLE_ZERO)
    assert rep.infinity_status == "Violated"
    assert {"kind": "non_hyperbolic_at_infinity",
            "theta": xs[0].theta, "field": "X"} in rep.gm1.witnesses


def test_infinity_simple_zero_far_out_on_the_cot_line_is_hyperbolic():
    # X = (1e7 x, x): a(t) = t - 1e7 has the simple cot-root 1e7, at theta
    # about 1e-7, where dA R = -1e14; a multiplicity threshold that grew
    # as |r|**deg, not |r|**(deg - k), called it double and so not
    # hyperbolic
    X = vf({(1, 0): 1e7}, {(1, 0): 1.0})
    sings = infinity_singularities(piecewise(X, ROTATION))
    far = [s for s in sings if s.field_tag == "X" and s.theta < 1e-6]
    assert len(far) == 1
    assert far[0].theta == pytest.approx(1e-7, rel=1e-12)
    assert abs(far[0].certificates["dA"] * far[0].certificates["R"]) \
        == pytest.approx(1e14)
    assert far[0].hyperbolic is Hyperbolicity.YES


def test_infinity_simple_zeros_to_rounding():
    # a(t) = q t^2 - p t: simple roots at cot t = 0 and p/q, which the
    # Sturm bisection alone leaves 3e-11 and 5e-11 off in theta
    p, q = -0.018259651632236196, -1.8866100939119748
    X = vf({(0, 0): 1.0, (1, 0): p}, {(0, 0): -1.0, (1, 0): q})
    thetas = [s.theta for s in infinity_singularities(piecewise(X, ROTATION))
              if s.field_tag == "X"]
    assert thetas == pytest.approx([math.atan2(1.0, p / q), math.pi / 2],
                                   abs=1e-14)


def test_infinity_root_beyond_a_million():
    # X = (1e7 x, x): a(t) = t^2 - 1e7 t, roots cot t = 0 and 1e7, the
    # latter in the Cauchy bound's window where tols.root is below an ulp
    X = vf({(1, 0): 1e7}, {(1, 0): 1.0})
    assert [r for r, _ in _real_roots(compactified_field(
        piecewise(X, ROTATION)).A1[1], default_tols())] == [0.0, 1e7]
    thetas = [s.theta for s in infinity_singularities(piecewise(X, ROTATION))
              if s.field_tag == "X"]
    assert thetas == pytest.approx([math.atan2(1.0, 1e7), math.pi / 2],
                                   rel=1e-15)


def test_infinity_census_matches_sampling_reference(seeded_fields):
    tols = default_tols()
    for z in seeded_fields:
        tf = compactified_field(z)
        ref = []
        for A, R, tag, lo in ((tf.A1[z.m], tf.R1[z.m], "X", 0.0),
                              (tf.A2[z.m], tf.R2[z.m], "Y", math.pi)):
            for t in _zeros_on_interval(A, lo, lo + math.pi, tols):
                ref.append((t, tag, abs(A.derivative(t) * R(t)) > tols.sign))
        got = [(s.theta, s.field_tag, s.hyperbolic is Hyperbolicity.YES)
               for s in infinity_singularities(z, tols)
               if s.field_tag in ("X", "Y")]
        assert len(got) == len(ref)
        for (t, tag, hyp), (t_ref, tag_ref, hyp_ref) in zip(got, sorted(ref)):
            assert t == pytest.approx(t_ref, abs=1e-8)
            assert (tag, hyp) == (tag_ref, hyp_ref)


def test_eq4_examples():
    z = piecewise(SPIRAL, ROTATION)
    assert eq4_value(z) == pytest.approx(1.0)
    z2 = piecewise(ROTATION, ROTATION)
    assert eq4_value(z2) == 0.0
    z3 = piecewise(vf({(1, 0): 1.0}, {}), vf({}, {(1, 0): 1.0}))
    assert eq4_value(z3) == pytest.approx(1.0)


def test_eq4_antisymmetry():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        def cs():
            return {(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                    for j in range(m + 1 - i)}
        X, Y = vf(cs(), cs(), m=m), vf(cs(), cs(), m=m)
        z = piecewise(X, Y)
        zswap = piecewise(Y, X)
        assert eq4_value(z) == pytest.approx(-eq4_value(zswap), rel=1e-12, abs=1e-12)


def test_s1_center():
    z = piecewise(ROTATION, ROTATION)
    rep = s1_elementarity(z)
    assert rep.status is S1Status.NON_ELEMENTARY
    assert rep.mu == pytest.approx(0.0, abs=1e-12)


def test_s1_spiral_over_rotation():
    z = piecewise(SPIRAL, ROTATION)
    rep = s1_elementarity(z)
    assert rep.status is S1Status.ELEMENTARY
    assert rep.mu == pytest.approx(math.pi, abs=1e-10)
    assert rep.sigma == -1
    assert rep.derivative == pytest.approx(math.exp(-math.pi), rel=1e-10)
    assert _mu_by_residues(z) == pytest.approx(rep.mu, abs=1e-10)


def test_s1_mu_matches_residue_sum():
    # the trapezoidal rule for the equator integral against the residue
    # sum, on seeded odd degree fields whose equator carries no singular
    # point
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        m = int(rng.choice([1, 3]))
        def cs():
            return {(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                    for j in range(m + 1 - i)}
        z = piecewise(vf(cs(), cs(), m=m), vf(cs(), cs(), m=m))
        rep = s1_elementarity(z)
        if rep.status is S1Status.HAS_SINGULARITIES:
            continue
        assert _mu_by_residues(z) == pytest.approx(rep.mu, abs=1e-10)
        checked += 1


def test_s1_cancelling():
    anti = vf({(0, 1): -1.0, (1, 0): -1.0}, {(1, 0): 1.0, (0, 1): -1.0})
    z = piecewise(SPIRAL, anti)
    rep = s1_elementarity(z)
    assert rep.status is S1Status.NON_ELEMENTARY
    assert rep.mu == pytest.approx(0.0, abs=1e-10)


def test_s1_even_degree():
    X = vf({(2, 0): 1.0}, {(0, 2): 1.0})
    z = piecewise(X, X)
    with pytest.raises(EvenDegree):
        s1_elementarity(z)


def test_s1_singular_equator():
    # X = (x^2+..., m=3 radial-cubed): A identically... use a field whose A_3
    # vanishes at some theta: X=(-y^3, x^3): A3 = x^3... build and check status
    X = vf({}, {(3, 0): 1.0})  # (0, x^3): A3 = cos^4 t, zero at pi/2
    z = piecewise(X, X)
    rep = s1_elementarity(z)
    assert rep.status is S1Status.HAS_SINGULARITIES


def test_s1_transversal_zeros_between_samples():
    # A_{1,1} has two transversal zeros on (0, pi) that no grid sample comes
    # within tols.sign of; integrating R/A across them used to raise
    # ZeroDivisionError inside check_gm
    X = vf({(0, 0): 1.4711161357108895, (0, 1): 1.8346377056338201},
           {(0, 0): -2.1125315231595048, (0, 1): 0.57555487355090751,
            (1, 0): 0.23704424806156199})
    Y = vf({(0, 0): 1.762485021695853, (0, 1): -0.27523378627626904},
           {(0, 0): -1.1348111800878744, (1, 0): 0.19372187074744884})
    z = piecewise(X, Y)
    assert s1_elementarity(z).status is S1Status.HAS_SINGULARITIES
    assert [s.field_tag for s in infinity_singularities(z)
            if s.field_tag == "X"] == ["X", "X"]
    check_gm(z)


def test_s1_double_zero_between_samples():
    # the sampled check missed this tangent zero and integrated across the
    # double pole: Elementary with mu = 4.68e6 and an IntegrationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        rep = s1_elementarity(DOUBLE_ZERO)
    assert rep.status is S1Status.HAS_SINGULARITIES
    assert rep.mu is None


def test_s1_near_pole_is_undetermined_not_a_silent_mu():
    # X = (-(10^8 + 1) y, x - 2*10^4 y): a(t) = (t - 10^4)^2 + 1 has no real
    # root, but its roots 10^4 +- i put a pole pair of the equator
    # integrand within 1e-8 of the real theta axis, where the trapezoidal
    # rule cannot settle within its node cap: the report says so instead of
    # giving a mu
    X = vf({(0, 1): -(1e8 + 1.0)}, {(1, 0): 1.0, (0, 1): -2e4})
    z = piecewise(X, ROTATION)
    assert _real_roots(compactified_field(z).A1[1], default_tols()) == ()
    with pytest.raises(NoConvergence):
        s1_elementarity(z)
    rep = check_gm(z)
    assert {"kind": "equator_undetermined"} in rep.gm2.witnesses
    assert rep.gm2.status != SATISFIED


def test_s1_status_consistent_with_infinity_census(seeded_fields):
    seen = 0
    for z in seeded_fields:
        if any(s.field_tag in ("X", "Y") for s in infinity_singularities(z)):
            seen += 1
            assert s1_elementarity(z).status is not S1Status.ELEMENTARY
    assert seen >= 10


def test_quadrature_against_trapezoid():
    z = piecewise(SPIRAL, ROTATION)
    tf = compactified_field(z)
    A1, R1 = tf.A1[1], tf.R1[1]
    A2, R2 = tf.A2[1], tf.R2[1]
    ts = np.linspace(0, math.pi, 1_000_001)
    vals = np.array([R1(t) / A1(t) + R2(t) / A2(t) for t in ts[:: 1000]])
    # integrand is identically 1 here; the million-point oracle reduces to
    # the sampled trapezoid on the decimated grid without loss
    # numpy < 2 (the floor pyproject.toml accepts) names it trapz
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    oracle = trapezoid(vals, ts[::1000])
    rep = s1_elementarity(z)
    assert rep.mu == pytest.approx(oracle, abs=1e-8)
