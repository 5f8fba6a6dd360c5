import ast
import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from filippov import flow, polys, regularize
from filippov.dline import det_xy
from filippov.errors import IdenticallyZeroOnD
from filippov.polys import (
    BivariatePolynomial,
    bracketed_root,
    cauchy_bound,
    homogeneous_part,
    partial,
    piecewise,
    poly,
    real_roots_on_line,
    resultant_y,
    univariate_roots,
    newton_zero,
    vf,
)
from filippov.tolerances import default_tols
from filippov.work import WORK, since

EPS = np.finfo(float).eps


def test_eval_simple():
    p = poly({(2, 0): 1.0, (0, 1): 2.0})  # x^2 + 2y
    assert p(1.0, 1.0) == 3.0


def test_eval_zero_poly():
    p = poly({})
    assert p(5.0, -3.0) == 0.0


def test_eval_mixed():
    # x^3 y - y^2 at (2, 1): 8 - 1 = 7
    p = poly({(3, 1): 1.0, (0, 2): -1.0})
    assert p(2.0, 1.0) == 7.0


def test_partial_x_square():
    p = poly({(2, 0): 1.0})
    assert partial(p, "x").coeffs == {(1, 0): 2.0}


def test_partial_constant():
    p = poly({(0, 0): 7.0})
    assert partial(p, "y").coeffs == {}


def test_partial_mixed():
    # d/dy (x^3 y - y^2) = x^3 - 2y
    p = poly({(3, 1): 1.0, (0, 2): -1.0})
    assert partial(p, "y").coeffs == {(3, 0): 1.0, (0, 1): -2.0}


def test_partials_commute():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = {
            (i, j): rng.standard_normal()
            for i in range(4)
            for j in range(4)
        }
        p = poly(coeffs)
        assert partial(partial(p, "x"), "y").coeffs == pytest.approx(
            partial(partial(p, "y"), "x").coeffs
        )


def test_homogeneous_select():
    p = poly({(2, 0): 1.0, (1, 0): 1.0, (0, 0): 1.0})
    assert homogeneous_part(p, 2).coeffs == {(2, 0): 1.0}
    assert homogeneous_part(p, 3).coeffs == {}
    q = poly({(2, 1): 1.0, (1, 1): 1.0, (0, 1): -1.0})
    assert homogeneous_part(q, 2).coeffs == {(1, 1): 1.0}


def test_homogeneous_parts_sum_to_poly():
    rng = np.random.default_rng(3)
    coeffs = {(i, j): rng.standard_normal() for i in range(4) for j in range(3)}
    p = poly(coeffs)
    total = BivariatePolynomial({})
    for k in range(p.degree + 1):
        total = total + homogeneous_part(p, k)
    assert total.coeffs == pytest.approx(p.coeffs)


def test_eval_ring_homomorphism():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = poly({(i, j): rng.integers(-3, 4) for i in range(3) for j in range(3)})
        b = poly({(i, j): rng.integers(-3, 4) for i in range(3) for j in range(3)})
        z = tuple(rng.uniform(-2, 2, size=2))
        assert (a + b)(*z) == pytest.approx(
            a(*z) + b(*z), rel=1e-12, abs=1e-12
        )
        assert (a * b)(*z) == pytest.approx(
            a(*z) * b(*z), rel=1e-12, abs=1e-12
        )


def test_roots_quadratic():
    p = poly({(2, 0): 1.0, (0, 0): -1.0})  # x^2 - 1
    roots = real_roots_on_line(p, (-2, 2))
    assert len(roots) == 2
    assert roots[0][0] == pytest.approx(-1.0, abs=1e-10)
    assert roots[1][0] == pytest.approx(1.0, abs=1e-10)
    assert [m for _, m in roots] == [1, 1]


def test_roots_none_real():
    p = poly({(2, 0): 1.0, (0, 0): 1.0})  # x^2 + 1
    assert real_roots_on_line(p, (-10, 10)) == []


def test_roots_with_multiplicity():
    # (x-1)^2 * x = x^3 - 2x^2 + x
    p = poly({(3, 0): 1.0, (2, 0): -2.0, (1, 0): 1.0})
    roots = real_roots_on_line(p, (-2, 2))
    assert len(roots) == 2
    assert roots[0][0] == pytest.approx(0.0, abs=1e-10)
    assert roots[0][1] == 1
    assert roots[1][0] == pytest.approx(1.0, abs=1e-10)
    assert roots[1][1] == 2


def test_roots_identically_zero():
    p = poly({(0, 1): 1.0})  # y: restriction to y=0 is 0
    with pytest.raises(IdenticallyZeroOnD):
        real_roots_on_line(p, (-1, 1))


def test_roots_against_sign_scan():
    rng = np.random.default_rng(42)
    window = (-5.0, 5.0)
    xs = np.linspace(*window, 10_001)
    for _ in range(25):
        deg = rng.integers(1, 6)
        coeffs = {(i, 0): float(rng.integers(-4, 5)) for i in range(deg + 1)}
        p = poly(coeffs)
        c = p.restrict_y0()
        if np.all(c == 0.0):
            continue
        roots = real_roots_on_line(p, window)
        vals = np.polynomial.polynomial.polyval(xs, c)
        sign_changes = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for k in sign_changes:
            lo, hi = xs[k], xs[k + 1]
            assert any(lo - 1e-9 <= r <= hi + 1e-9 for r, _ in roots), (
                f"missed sign change in [{lo}, {hi}] for {coeffs}"
            )


def test_cauchy_bound_contains_roots():
    c = np.array([-6.0, 11.0, -6.0, 1.0])  # (x-1)(x-2)(x-3)
    assert cauchy_bound(c) >= 3.0


def test_vf_eval_and_degree_guard():
    X = vf({(1, 0): 1.0}, {(0, 1): 1.0})
    assert X(2.0, 3.0) == (2.0, 3.0)
    with pytest.raises(ValueError):
        vf({(3, 0): 1.0}, {}, m=2)


def _random_coeffs(rng, degree: int, shape: str) -> dict:
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)
                 if shape == "full" or (shape == "x" and j == 0)
                 or (shape == "y" and i == 0)]
    keep = rng.random(len(monomials)) < 0.7
    return {m: float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
            for m, k in zip(monomials, keep) if k}


def test_horner_within_eight_eps_of_exact_value():
    # each a_ij x^i y^j passes at most 2(i+j)+1 roundings of the nested
    # Horner form, so the error is at most gamma_15 = 7.5 eps of sum |terms|
    rng = np.random.default_rng(2024)
    cases = [({}, "zero"), ({(0, 0): -3.75}, "constant")]
    for degree in range(8):
        for shape in ("full", "x", "y"):
            for _ in range(4):
                cases.append((_random_coeffs(rng, degree, shape), shape))
    for coeffs, _ in cases:
        p = poly(coeffs)
        points = [(0.0, 0.0), (1.0, -1.0), (50.0, -50.0), (-50.0, 50.0)]
        points += [tuple(rng.uniform(-50.0, 50.0, size=2)) for _ in range(10)]
        points += [tuple(rng.uniform(-1.0, 1.0, size=2)) for _ in range(5)]
        for x, y in points:
            terms = [Fraction(v) * Fraction(x) ** i * Fraction(y) ** j
                     for (i, j), v in p.coeffs.items()]
            got = p(x, y)
            assert type(got) is float
            err = abs(Fraction(got) - sum(terms, Fraction(0)))
            assert err <= 8 * Fraction(EPS) * sum(map(abs, terms), Fraction(0)), \
                (coeffs, x, y)


def test_horner_compiled_once_on_first_call():
    before = dict(WORK)
    X = vf({(2, 1): 1.5, (0, 0): -2.0}, {(1, 0): 1.0})
    X.jacobian()
    X.divergence()
    # building a field and its partials compiles nothing
    assert since(before)["horner"] == 0
    assert [X.P(x, 0.5) for x in (0.0, 1.0, 2.0)] == [-2.0, -1.25, 1.0]
    assert X.P(np.float64(2.0), np.float64(0.5)) == 1.0
    assert since(before)["horner"] == 1


def test_field_partials_built_once():
    X = vf({(3, 0): 1.0, (1, 1): -2.0}, {(0, 2): 0.5, (1, 0): 1.0})
    assert X.jacobian() is X.jacobian()
    assert X.divergence() is X.divergence()
    assert X.divergence() == partial(X.P, "x") + partial(X.Q, "y")


def test_evaluated_polynomial_and_field_round_trip():
    X = vf({(2, 0): 1.0, (0, 1): -0.25}, {(1, 1): 3.0, (0, 0): 1.0})
    Z = piecewise(X, vf({(0, 1): -1.0}, {(1, 0): 1.0}))
    X(0.5, -1.0)
    X.divergence()(0.5, -1.0)
    Z.Y(0.5, -1.0)
    # the bump's phi is compiled on first use and the regularized field's
    # kernel cached on Z: neither goes into a pickle
    phi = regularize.make_transition("bump")
    R = regularize.RegularizedField(Z, phi, 0.1)
    R(0.5, 0.05), R.rhs()(0.0, 0.5, 0.05)
    for obj in (X.P, X, Z, phi, R):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone == obj
    clone = pickle.loads(pickle.dumps(X))
    assert clone(0.5, -1.0) == X(0.5, -1.0)
    assert clone.divergence()(0.5, -1.0) == X.divergence()(0.5, -1.0)
    assert copy.deepcopy(X.P)(2.0, 4.0) == X.P(2.0, 4.0)
    clone = pickle.loads(pickle.dumps(R))
    assert clone(0.5, 0.05) == R(0.5, 0.05)
    assert clone.phi.derivative(0.5) == phi.derivative(0.5)


@pytest.mark.parametrize("coeffs, want", [
    ([-2.0, 0.0, 1.0], [-math.sqrt(2.0), math.sqrt(2.0)]),
    ([-6.0, 11.0, -6.0, 1.0], [1.0, 2.0, 3.0]),
    ([0.0, -3.0, 0.0, 1.0], [-math.sqrt(3.0), 0.0, math.sqrt(3.0)]),
    ([0.0, 1.0], [0.0]),
    ([-1.0, 3.0, 0.0, 0.0, 0.0, 1.0], None),
], ids=["sqrt2", "cubic123", "sqrt3_and_0", "x", "quintic"])
def test_simple_roots_polished_to_machine_precision(coeffs, want):
    if want is None:  # the one real root of x^5 + 3x - 1, by numpy
        r = np.roots(coeffs[::-1])
        want = sorted(float(v.real) for v in r if abs(v.imag) < 1e-12)
    got = univariate_roots(np.array(coeffs), (-4.0, 4.0))
    assert [m for _, m in got] == [1] * len(want)
    for (r, _), w in zip(got, want):
        assert abs(r - w) <= 1e-14


def _sylvester(p, q, x):
    """The Sylvester matrix of p(x, .) and q(x, .) in y at a given x."""
    a = p.restrict_x(x)[::-1]
    b = q.restrict_x(x)[::-1]
    n, k = len(a) - 1, len(b) - 1
    s = np.zeros((n + k, n + k))
    for r in range(k):
        s[r, r:r + n + 1] = a
    for r in range(n):
        s[k + r, r:r + k + 1] = b
    return s


def test_resultant_matches_sylvester_determinant():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        def table():
            return {(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                    for j in range(m + 1 - i) if rng.random() < 0.8}
        p, q = poly(table()), poly(table())
        if len(p.restrict_x(0.5)) + len(q.restrict_x(0.5)) < 3 or \
                p.restrict_x(0.5)[-1] == 0 or q.restrict_x(0.5)[-1] == 0:
            continue  # a y-free pair, or a y-degree that depends on x
        res = resultant_y(p, q)
        assert len(res) <= m * m + 1
        for x in rng.uniform(-3, 3, 5):
            s = _sylvester(p, q, x)
            want = np.linalg.det(s)
            scale = np.prod(np.linalg.norm(s, axis=1))
            assert abs(np.polynomial.polynomial.polyval(x, res) - want) \
                <= 1e-12 * scale


def test_resultant_exact_on_integer_factors():
    # Res_y((x - 1)(y - 2), (x - 1)(x + y)) = (x - 1)^2 (x + 2)
    p = poly({(1, 1): 1.0, (1, 0): -2.0, (0, 1): -1.0, (0, 0): 2.0})
    q = poly({(2, 0): 1.0, (1, 1): 1.0, (1, 0): -1.0, (0, 1): -1.0})
    assert resultant_y(p, q).tolist() == [2.0, -3.0, 0.0, 1.0]
    # a shared factor y - x that depends on y: the resultant is zero
    p = poly({(1, 1): 1.0, (0, 1): 1.0, (2, 0): -1.0, (1, 0): -1.0})
    q = poly({(0, 2): 1.0, (1, 1): -1.0, (0, 1): 2.0, (1, 0): -2.0})
    assert not resultant_y(p, q).any()
    # Res_y(y^2 - x^2, -xy) = -x^4, where the elimination swaps two rows
    assert resultant_y(poly({(0, 2): 1.0, (2, 0): -1.0}), poly({(1, 1): -1.0})
                       ).tolist() == [0.0, 0.0, 0.0, 0.0, -1.0]
    # neither depends on y: the result is q itself
    assert resultant_y(poly({(1, 0): 2.0}), poly({(0, 0): 3.0, (2, 0): 1.0})
                       ).tolist() == [3.0, 0.0, 1.0]


@pytest.mark.parametrize("scale", [1e-14, 1e-9, 1e-3, 1.0, 1e6])
def test_univariate_roots_scale_invariant(scale):
    # (x - 0.5)(x + 1.25)(x - 2) times scale: the zero floors are relative
    c = scale * np.array([1.25, -2.125, -1.25, 1.0])
    got = univariate_roots(c, (-3.0, 3.0))
    assert [m for _, m in got] == [1, 1, 1]
    for (r, _), w in zip(got, (-1.25, 0.5, 2.0)):
        assert abs(r - w) <= 1e-14


def test_univariate_roots_separates_close_roots():
    # (x - 2)(x^2 - 4.988e-13): on (-3, 3) the float Sturm chain with its
    # window-end and midpoint nudges returned -1.146e-6, -7.06e-7 and 2,
    # losing +7.06e-7
    got = univariate_roots([9.976e-13, -4.988e-13, -2.0, 1.0], (-3.0, 3.0))
    assert [m for _, m in got] == [1, 1, 1]
    r = math.sqrt(4.988e-13)
    assert np.allclose([x for x, _ in got], [-r, r, 2.0], rtol=0.0,
                       atol=1e-12)


def test_univariate_roots_of_a_nearly_constant_polynomial():
    # g of a line on a step's interpolant: 1.0966 plus terms below 1e-10
    # in sum, so no root on [0, 1]; the float Sturm chain, noise there,
    # returned two, of multiplicity 6 and 5
    c = [1.0965856814019732, 4.803209323664649e-12, 2.0537719897398916e-13,
         -1.505923542087269e-11, 4.605438827099401e-11,
         -7.630425985338618e-11, 6.166559788233185e-11,
         -1.8886343706758067e-11]
    assert univariate_roots(c, (0.0, 1.0)) == []


# ---------------------------------------------------------------------------
# The float steps of the isolator as they ran on numpy.polynomial, kept as
# a test-only reference: the square-free part, the polish and the
# multiplicity of polys do the same operations in the same order, so they
# must give the same bits.
# ---------------------------------------------------------------------------

def _np_trim(c, tol=0.0):
    c = np.asarray(c, dtype=float)
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= tol:
        n -= 1
    return c[:n]


def _np_polydiv(a, b):
    q, r = npoly.polydiv(a, b)
    return np.atleast_1d(q), np.atleast_1d(r)


def _np_gcd(a, b, rel_tol):
    a = _np_trim(a)
    b = _np_trim(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    while len(b) > 1 or abs(b[0]) > rel_tol * scale:
        _, r = _np_polydiv(a, b)
        r = _np_trim(r, rel_tol * scale)
        if len(r) == 1 and abs(r[0]) <= rel_tol * scale:
            break
        a, b = b, r / np.max(np.abs(r))
    return b / b[-1] if (len(b) > 1 or abs(b[0]) > rel_tol * scale) \
        else np.array([1.0])


def _np_square_free(c, rel_tol):
    c = _np_trim(c)
    if len(c) <= 2:
        return c
    g = _np_gcd(c, _np_trim(npoly.polyder(c)), rel_tol)
    if len(g) == 1:
        return c
    q, _ = _np_polydiv(c, g)
    return _np_trim(q, rel_tol * max(np.max(np.abs(q)), 1.0))


def _np_polish_root(c, a, b, tol):
    d = npoly.polyder(c)
    fa = npoly.polyval(a, c)
    x = 0.5 * (a + b)
    for _ in range(200):
        fx = npoly.polyval(x, c)
        if fx == 0.0:
            return x
        if fa * fx < 0:
            b = x
        else:
            a, fa = x, fx
        dfx = npoly.polyval(x, d)
        step = fx / dfx if dfx != 0.0 else math.inf
        if a < x - step < b:
            if abs(step) <= tol:
                return x - step
            x -= step
        else:
            x = 0.5 * (a + b)
            if x in (a, b):
                return x
    return x


def _np_multiplicity(c, r, zero_tol):
    scale, b, deg = max(np.max(np.abs(c)), 1.0), max(1.0, abs(r)), len(c) - 1
    d = np.array(c, dtype=float)
    for k in range(1, len(c)):
        d = npoly.polyder(d)
        if abs(npoly.polyval(r, d)) > \
                zero_tol * (scale * b ** (deg - k)) * 1e3:
            return k
    return max(deg, 1)


def _bits(roots):
    return [(float(r).hex(), m) for r, m in roots]


def _isolator_cases(seeded_fields):
    """(coefficients, window) pairs of every kind the isolator meets."""
    rng = np.random.default_rng(5)
    tols = default_tols()
    cases = []
    for Z in seeded_fields:
        for p in (Z.X.P, Z.X.Q, Z.Y.P, Z.Y.Q, det_xy(Z)):
            cases.append((p.restrict_y0(), (-3.0, 3.0)))
        cases.append((resultant_y(Z.X.P, Z.X.Q), (-3.0, 3.0)))
        cases.append((resultant_y(Z.Y.P, Z.Y.Q), (-3.0, 3.0)))
    for _ in range(40):  # a line's value on one DOP853 step, in its fraction
        c = [float(rng.uniform(-1, 1))] + [0.0] * 7
        for j, p, bp in flow._dense_basis(7):
            c[p] += float(rng.uniform(-2, 2)) * bp
        cases.append((c, (0.0, 1.0)))
    for _ in range(20):  # double and triple roots among simple ones
        a, b, d = rng.uniform(-2, 2, 3)
        for factors in ((a, a, b), (a, a, a, b, d), (a, a, b, b, d)):
            cases.append((npoly.polyfromroots(factors), (-3.0, 3.0)))
    for lo, hi in ((-1.0, 2.0), (0.0, 1.0), (-2.5, 0.5)):  # roots at the ends
        cases.append((npoly.polyfromroots([lo, hi, 0.5 * (lo + hi) + 0.1]),
                      (lo, hi)))
        cases.append((npoly.polyfromroots([lo, lo, hi]), (lo, hi)))
    for c in ([3.0], [0.0], [-2.0, 0.0, 0.0],  # constants
              [0.5, -1.0, 0.3, 2 * tols.coeff_zero],
              [-1.0, 0.0, 1.5 * tols.coeff_zero],
              [1e-13, -2e-13, 1.5 * tols.coeff_zero]):
        cases.append((c, (-5.0, 5.0)))
    return cases


def _unit(c):
    """c as univariate_roots scales it: trimmed, then up to unit size."""
    c = polys._trim([float(v) for v in c])
    top = min(polys._norm(c), 1.0)
    return [v / top for v in c]


def test_square_free_matches_numpy_reference(seeded_fields):
    tols = default_tols()
    cases = _isolator_cases(seeded_fields)
    reduced = 0
    for c, _ in cases:
        if not any(c):
            continue
        c = _unit(c)
        got = polys._square_free(c, tols.coeff_zero)
        assert [v.hex() for v in got] == \
            [float(v).hex() for v in _np_square_free(c, tols.coeff_zero)]
        reduced += len(got) < len(c)
    assert reduced >= 60


def test_polish_root_matches_numpy_reference(monkeypatch):
    # the monotone crossings of the solver's event lines on one rotation
    brackets = []

    def recording(c, a, b, tol):
        brackets.append((list(c), a, b, tol))
        return polys._polish_root(c, a, b, tol)

    monkeypatch.setattr(flow, "_polish_root", recording)
    rot = vf({(0, 1): -1.0}, {(1, 0): 1.0})
    for y0 in (0.5, 1.0, 2.0):
        tr = flow.integrate_smooth(rot, (0.3, y0), 10.0, (-5, 5, -5, 5))
        assert tr.status == "d_hit"
    assert len(brackets) >= 3
    for c, a, b, tol in brackets:
        assert polys._polish_root(c, a, b, tol).hex() == \
            float(_np_polish_root(np.array(c), a, b, tol)).hex()


def test_isolator_makes_no_numpy_polynomial_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.polynomial call on the root path")

    for name in ("polyval", "polyder", "polydiv"):
        monkeypatch.setattr(npoly, name, refuse)
    assert [m for _, m in univariate_roots([0.0, 1.0, -2.0, 1.0],
                                           (-2.0, 2.0))] == [1, 2]
    assert len(real_roots_on_line(poly({(2, 0): 1.0, (0, 0): -1.0}),
                                  (-2.0, 2.0))) == 2
    # X = (1, x) from (-2, 1) crosses y = 0 down at x = -sqrt(2), where the
    # step's line value is monotone, and up at sqrt(2), where it is not
    for direction in (-1, 1):
        tr = flow.integrate_smooth(vf({(0, 0): 1.0}, {(1, 0): 1.0}),
                                   (-2.0, 1.0), 100.0, (-5, 5, -5, 5),
                                   d_direction=direction)
        assert tr.status == "d_hit"
        assert abs(tr.states[-1, 0] - direction * math.sqrt(2.0)) <= 1e-9


def test_isolation_ends_where_a_near_zero_band_reaches_the_bracket_end():
    # roots 1.4e-6 apart: x (x - 1.4e-6) (x - 2) stays within coeff_zero
    # of 0 between them, so a bisection point there found no nonzero
    # neighbour before its bracket's end, and the search for one looped
    # forever
    d = 1.4125375446227554e-06
    got = univariate_roots(npoly.polyfromroots([0.0, d, 2.0]), (-3.0, 3.0))
    assert [m for _, m in got] == [1, 1, 1]
    for (r, _), w in zip(got, (0.0, d, 2.0)):
        assert abs(r - w) <= 1e-14


def test_split_stays_inside_the_bracket_after_the_window_end_nudge():
    # the window end 1.0 is a root, so the nudge past it doubles its step
    # to a few 1e-6 while it crosses the pair (1, 1.000003); a bisection
    # point reset by that step fell below its bracket, which then never
    # shrank (RecursionError)
    got = univariate_roots(npoly.polyfromroots([0.3, 1.0, 1.000003]),
                           (-1.0, 1.0))
    assert abs(got[0][0] - 0.3) <= 1e-12
    assert any(abs(r - 1.0) <= 1e-5 for r, _ in got[1:])


def test_window_end_clears_every_member_of_the_sturm_chain():
    # the smoothstep-2 band resultant of random_09 (benchmark generator
    # seed 1) at eps = 0.05, built as emergent_singularities builds it, has
    # a cluster of near-multiple roots at t = -1.  The end nudge stopped
    # where the square-free part cleared zero_tol, but a lower member of
    # the Sturm chain was still below it there and dropped out of the sign
    # count: the count came out -1 and the simple root at t = -0.0465 was
    # lost
    from filippov.regularize import make_transition

    X = vf({(0, 1): -0.019710997135956365, (0, 2): -1.099751659844932,
            (0, 3): 0.24162973795195608, (1, 2): 0.58566070257035419,
            (2, 0): -1.7137944470884117, (2, 1): 1.509696315785948,
            (3, 0): 1.0641114351892487},
           {(0, 0): -1.5232530703765006, (0, 1): 0.77022785841125829,
            (0, 3): 0.80513065163123487, (1, 1): 1.4251085556520189,
            (2, 1): -1.2948964191740986, (3, 0): -1.1295252459736678}, 3)
    Y = vf({(0, 0): 1.0310004586657469, (0, 1): 0.72654582242987287,
            (0, 3): 0.060223217173367427, (1, 0): 0.91958460194799452,
            (1, 1): 1.9248842325926359, (2, 0): -0.92989502141155311},
           {(0, 0): 1.5057453260110965, (0, 2): 0.8016310656669221,
            (0, 3): 1.6972312104997123, (1, 1): 1.2108461232014274,
            (1, 2): -1.3409831252669049, (2, 0): -1.4946797006606301}, 3)
    phi, eps = make_transition("smoothstep", 2), 0.05
    w = BivariatePolynomial({(0, 0): 0.5, **{
        (2 * k + 1, 0): c / phi._norm for k, c in enumerate(phi._coeffs)}})

    def in_t(p):  # p(x, eps t), with t as the first variable
        return BivariatePolynomial({(j, i): v * eps ** j
                                    for (i, j), v in p.coeffs.items()})

    p, q = (in_t(b) + w * (in_t(a) - in_t(b))
            for a, b in ((X.P, Y.P), (X.Q, Y.Q)))
    res = resultant_y(*(f.scale(1 / max(map(abs, f.coeffs.values())))
                        for f in (p, q)))
    wide = univariate_roots(res, (-1.025, 1.025))
    assert any(abs(r + 0.0464738) <= 1e-7 for r, _ in wide)
    got = univariate_roots(res, (-1.0, 1.0))
    assert [r for r, _ in got if r > -0.5] == \
        [r for r, _ in wide if r > -0.5]


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.exp(x) - x - 2.0, 0.5, 2.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (math.cos, 0.0, 3.0),
    (lambda x: math.atan(x - 0.3), -5.0, 10.0),
    (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 2.0),
    (lambda x: 1.0 - x - 1e-6 * x * x, 0.4, 1.6),
    (lambda x: (x - 1.0) ** 3 * (1.0 + x * x), 0.0, 2.5),
    # a root at an end, whose value there misses zero by rounding
    (lambda x: x * x - 2.0, 0.0, 2.0 ** 0.5),
])
@pytest.mark.parametrize("xtol", [1e-9, 1e-3])
def test_bracketed_root_agrees_with_brentq(f, a, b, xtol):
    calls = []

    def logged(x):
        calls.append(x)
        return f(x)

    got = bracketed_root(logged, a, f(a), b, f(b), xtol)
    assert abs(got - brentq(f, a, b, xtol=xtol)) <= xtol
    assert calls and a not in calls and b not in calls
    assert a <= got <= b


def test_bracketed_root_returns_a_zero_end_without_calls():
    def never(x):
        raise AssertionError(f"f called at {x}")

    assert bracketed_root(never, 1.0, 0.0, 2.0, -3.0, 1e-9) == 1.0
    assert bracketed_root(never, 1.0, 5.0, 2.0, 0.0, 1e-9) == 2.0


def test_newton_zero_gives_up_at_a_singular_jacobian():
    # f = (x^2 + 1, y) has no zero; its Jacobian at (0, 1) is singular
    def f(x, y):
        return (x * x + 1.0, y)

    def jac(x, y):
        return np.array([[2.0 * x, 0.0], [0.0, 1.0]])

    assert newton_zero(f, jac, 0.0, 1.0, default_tols()) is None


# -- Horner code shared by monomial support ------------------------------

def _literal_horner_form(terms, var):
    expr = ""
    for k in range(max(terms), -1, -1):
        if not expr:
            expr = terms[k]
        else:
            expr = f"({expr})*{var}"
            if k in terms:
                expr += f" + {terms[k]}"
    return expr


def _literal_horner(coeffs):
    """The evaluator of sum a_ij x^i y^j built with every coefficient
    written into its source by repr, as it was before evaluators shared
    their code by support: the reference of the shared one."""
    rows = {}
    for (i, j), v in coeffs.items():
        rows.setdefault(i, {})[j] = repr(v)
    inner = {i: _literal_horner_form(r, "y") for i, r in rows.items()}
    body = f"({_literal_horner_form(inner, 'x')})" if inner else "0.0"
    namespace = {"inf": math.inf, "nan": math.nan}
    exec(f"def horner(x, y):\n    x = float(x)\n    y = float(y)\n"
         f"    return {body}\n", namespace)
    return namespace["horner"]


def _tree(source):
    return ast.dump(ast.parse(source, mode="eval"))


def test_horner_body_adds_each_lower_row_term_by_term():
    # the row of x^1 is a Horner form in y; the row of x^0 joins after
    # ")*x + " without parentheses, so its y-part is added before its
    # constant
    coeffs = {(1, 1): 0.5, (1, 0): 3.0, (0, 1): -1.0, (0, 0): 2.0}
    assert _tree(polys._horner_body(coeffs)) == \
        _tree("(((0.5*y + 3.0)*x) + (-1.0)*y) + 2.0")
    assert _tree(polys._horner_body(coeffs, True)) == \
        _tree("(((a1_1*y + a1_0)*x) + a0_1*y) + a0_0")
    # x^2 y^2 + x y + 1: the row of x^1 has no constant, that of x^0 no y
    assert _tree(polys._horner_body({(2, 2): 1.0, (1, 1): 1.0,
                                     (0, 0): 1.0})) == \
        _tree("((((1.0*y)*y)*x + (1.0)*y)*x) + 1.0")


def test_shared_support_evaluator_matches_literal_evaluator_to_the_bit():
    rng = np.random.default_rng(22)
    for degree in range(10):
        for shape in ("full", "x", "y"):
            for _ in range(3):
                p = poly(_random_coeffs(rng, degree, shape))
                literal = _literal_horner(p.coeffs)
                for x, y in rng.uniform(-50.0, 50.0, size=(20, 2)):
                    assert p(x, y).hex() == literal(x, y).hex(), \
                        (p.coeffs, x, y)
                assert p(0.0, 0.0).hex() == literal(0.0, 0.0).hex()


def test_horner_code_compiled_once_per_support():
    polys._horner_code.cache_clear()
    p = poly({(3, 0): 1.5, (1, 2): -2.0, (0, 0): 0.25})
    q = poly({(0, 0): 7.0, (1, 2): 3.0, (3, 0): -1e-3})  # p's support
    r = poly({(3, 0): 1.5, (1, 2): -2.0})
    assert p(1.5, -2.0) == 1.5 * 1.5 ** 3 - 2.0 * 1.5 * 4.0 + 0.25
    assert q(2.0, 1.0) == 7.0 + 6.0 - 8e-3
    r(0.5, 0.5)
    assert p._horner is not q._horner
    assert p._horner.__code__ is q._horner.__code__
    assert r._horner.__code__ is not p._horner.__code__
    assert polys._horner_code.cache_info().misses == 2


# -- exact Descartes counts --------------------------------------------------

def _exact_root_count(c, lo, hi):
    """The distinct real roots in [lo, hi] of the polynomial with the
    float coefficients c, by a Sturm chain of Fractions: the sign changes
    at lo less those at hi count the roots in (lo, hi]."""
    def value(p, x):
        v = Fraction(0)
        for a in reversed(p):
            v = v * x + a
        return v

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    chain = [[Fraction(v) for v in c]]
    chain.append(trim([k * a for k, a in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        for j in range(len(r) - 1, len(b) - 2, -1):
            q = r[j] / b[-1]
            for k, bk in enumerate(b):
                r[j - len(b) + 1 + k] -= q * bk
        r = trim(r[:len(b) - 1])
        if not r:
            break
        chain.append([-a for a in r])

    def changes(x):
        signs = [v > 0 for v in (value(p, x) for p in chain) if v != 0]
        return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)

    lo, hi = Fraction(lo), Fraction(hi)
    return changes(lo) - changes(hi) + (value(chain[0], lo) == 0)


def _count_once_cases(seeded_fields):
    cases = _isolator_cases(seeded_fields)
    rng = np.random.default_rng(9)
    for d in (1.4125375446227554e-06, 1e-7, 3e-9, 1e-11):
        # the close roots of x (x - d) (x - 2), as in the near-zero band
        # test above, with their cluster moved about
        for shift in (0.0, *rng.uniform(-2.0, 2.0, 3)):
            cases.append((npoly.polyfromroots([shift, shift + d, 2.0]),
                          (-3.0, 3.0)))
    for shift in (0.047286498801026866, -0.3066942041096974):
        # three roots 1.4e-6 and 2.8e-6 apart, where the float values of
        # the square-free part are noise: _polish_root converges away from
        # the root of its bracket at several levels of the bisection
        d = 1.4e-6
        cases.append((npoly.polyfromroots([shift, shift + d, shift + 3 * d]),
                      (-3.0, 3.0)))
    for degree in range(1, 10):
        for _ in range(4):
            cases.append((rng.standard_normal(degree + 1), (-4.0, 4.0)))
    return cases


def test_isolator_matches_exact_counts(seeded_fields):
    # every root of the float square-free part in the window is returned,
    # and nothing else: each returned root has a root of it within
    # tols.root, by an exact count, and the multiplicities are the float
    # ones of the numpy reference
    tols = default_tols()
    cases = _count_once_cases(seeded_fields)
    found = 0
    for c, (w0, w1) in cases:
        got = univariate_roots(c, (w0, w1), tols)
        assert univariate_roots(list(c), (w0, w1), tols) == got
        if len(polys._trim([float(v) for v in c])) == 1:
            assert got == []
            continue
        c = _unit(c)
        sf = polys._square_free(c, tols.coeff_zero)
        tol = Fraction(tols.root)
        inner = _exact_root_count(sf, w0, w1)
        outer = _exact_root_count(sf, Fraction(w0) - tol, Fraction(w1) + tol)
        assert inner <= len(got) <= outer, (c, (w0, w1), got)
        roots = [r for r, _ in got]
        assert roots == sorted(set(roots))
        for r, m in got:
            assert _exact_root_count(sf, Fraction(r) - tol,
                                     Fraction(r) + tol) >= 1, (c, r)
            assert m == _np_multiplicity(c, r, tols.coeff_zero)
        found += len(got)
    assert found > 500


def test_sign_at_matches_exact_signs_next_to_roots(seeded_fields):
    # at a root and at the doubles next to it the float value of the
    # square-free part is rounding noise, so these are the points where the
    # float bound must leave the sign to the integers
    tols = default_tols()
    checked = 0
    for c, window in _count_once_cases(seeded_fields):
        if not any(c):
            continue
        sf = polys._square_free(_unit(c), tols.coeff_zero)
        if len(sf) == 1:
            continue
        ints = polys._dyadic(sf)[0]
        sign = polys._sign_at(ints)
        for r, _ in univariate_roots(c, window, tols):
            points = [r]
            for way in (-math.inf, math.inf):  # six doubles to either side
                x = r
                for _ in range(6):
                    x = math.nextafter(x, way)
                    points.append(x)
            for x in points:
                v = sum(a * Fraction(x) ** k for k, a in enumerate(ints))
                assert sign(x) == (v > 0) - (v < 0), (c, x)
            checked += 1
    assert checked > 500


def test_isolator_counts_each_window_and_signs_each_point_once(
        seeded_fields, monkeypatch):
    windows, points, checks = [], [], [0]
    descartes, sign_at, polish = \
        polys._descartes, polys._sign_at, polys._polish_root

    def counting(p, a, b):
        windows.append((a, b))
        return descartes(p, a, b)

    def recording(p):
        sign = sign_at(p)

        def signing(x):
            if checks[0]:  # one of the two checks of a polished root
                checks[0] -= 1
            else:
                points.append(x)
            return sign(x)
        return signing

    def polishing(c, a, b, tol):
        checks[0] = 2
        return polish(c, a, b, tol)

    monkeypatch.setattr(polys, "_descartes", counting)
    monkeypatch.setattr(polys, "_sign_at", recording)
    monkeypatch.setattr(polys, "_polish_root", polishing)
    counted = 0
    for c, window in _count_once_cases(seeded_fields):
        windows.clear()
        points.clear()
        univariate_roots(c, window, default_tols())
        assert len(windows) == len(set(windows)), (c, window)
        assert len(points) == len(set(points)), (c, window)
        counted += len(windows) + len(points)
    assert counted > 1000


def test_a_polished_root_away_from_its_bracket_root_is_not_kept(
        monkeypatch):
    # a polish that returns its bracket's lower end, 1e-3 or less from the
    # root, is caught by the signs tols.root to either side; the bisection
    # goes on down to tols.root
    ends = []

    def lower_end(c, a, b, tol):
        ends.append(a)
        return a

    monkeypatch.setattr(polys, "_polish_root", lower_end)
    got = univariate_roots([-6.0, 11.0, -6.0, 1.0], (0.3, 4.1))
    assert len(ends) > 3 * 20  # from 1e-3 down to tols.root, per root
    assert [m for _, m in got] == [1, 1, 1]
    assert np.allclose([r for r, _ in got], [1.0, 2.0, 3.0], rtol=0.0,
                       atol=default_tols().root)


def test_exact_zero_at_a_bisection_point_is_the_root(monkeypatch):
    # the first bisection point of a symmetric window is 0.0, an exact root
    # of x (x - 1)(x + 1): it is returned as it is, and no bracket with an
    # end there is polished
    polished = []
    original = polys._polish_root

    def recording(c, a, b, tol):
        polished.append((a, b))
        return original(c, a, b, tol)

    monkeypatch.setattr(polys, "_polish_root", recording)
    got = univariate_roots([0.0, -1.0, 0.0, 1.0], (-2.0, 2.0))
    assert got == [(-1.0, 1), (0.0, 1), (1.0, 1)]
    # x (x - 1e-4)(x - 2): brackets of at most 1e-3 with one root in them
    # and 0 at their lower end are bisected on, not polished
    got = univariate_roots(npoly.polyfromroots([0.0, 1e-4, 2.0]), (-3.0, 3.0))
    assert [m for _, m in got] == [1, 1, 1] and got[0][0] == 0.0
    assert abs(got[1][0] - 1e-4) <= 1e-15 and abs(got[2][0] - 2.0) <= 1e-14
    assert len(polished) == 2 and all(0.0 not in b for b in polished)


def test_a_root_just_past_the_window_end_is_found():
    # the square-free part is 5e-14 at the window end 1.0, within the zero
    # floor, so the end moves out by 1e-12 and the root 1 + 1e-13 is in
    got = univariate_roots(npoly.polyfromroots([0.5, 1.0 + 1e-13]),
                           (0.0, 1.0))
    assert [m for _, m in got] == [1, 1]
    assert abs(got[1][0] - (1.0 + 1e-13)) <= 1e-15
    # x (x - 2) is -2e-12 at the window end 1e-12, within the floor, so
    # the end moves out onto the root 0, with no sign variation inside
    assert univariate_roots([0.0, -2.0, 1.0], (1e-12, 1.0)) == [(0.0, 1)]


def test_a_root_on_the_moved_window_end_splits_the_window():
    # with tols.root 100 the window end 1.0, a root of x (x - 1), moves out
    # by 1.0 onto the root 0.0; Descartes' count on (0, 3) leaves that end
    # out and finds the root 1 inside, but with a zero end sign the window
    # is split, and the bisection stops at once at 1.5, within tols.root
    tols = dataclasses.replace(default_tols(), root=100.0)
    assert univariate_roots([0.0, -1.0, 1.0], (1.0, 3.0), tols) == \
        [(0.0, 1), (1.5, 1)]


def test_roots_past_where_tols_root_is_below_an_ulp():
    # from |r| of about 2**20 on, r +- tols.root rounds back to r, and from
    # about 5.2e5 on, adjacent doubles lie more than tols.root apart: the
    # polish check signs the next doubles instead, and the bisection ends
    # at two adjacent doubles
    assert univariate_roots([-1e7, 3.0], (-1e8, 1e8)) == \
        [(3333333.3333333335, 1)]
    assert univariate_roots([-1e13, 3.0], (-1e17, 1e17)) == \
        [(3333333333333.3335, 1)]
    got = univariate_roots([1.0, -1e-13], (-1e17, 1e17))
    assert [m for _, m in got] == [1] and got[0][0] == pytest.approx(1e13)


def test_descartes_counts_are_exact_on_integer_coefficients():
    # x^3 - 3x + 1 has three real roots, all in (-2, 2), where its signs
    # are -1 and 3
    assert polys._descartes([1, -3, 0, 1], -2.0, 2.0) == (3, -1, 1)
    # x^4 + x - 1 has two real roots, one in each of (-2, 0) and (0, 2):
    # the count on (-2, 2) exceeds them by 2, that of each half is exact
    assert polys._descartes([-1, 1, 0, 0, 1], -2.0, 2.0) == (4, 1, 1)
    assert polys._descartes([-1, 1, 0, 0, 1], -2.0, 0.0) == (1, 1, -1)
    assert polys._descartes([-1, 1, 0, 0, 1], 0.0, 2.0) == (1, -1, 1)
    assert polys._dyadic([0.75, -3.0, 2.0 ** -60]) == \
        ([3 << 58, -3 << 60, 1], 60)


def test_simple_roots_far_from_zero_have_multiplicity_one():
    # 3x^2 - 1e7 has simple roots at +-1825.74, where its derivative is
    # 1.1e4: the zero threshold of c' grows as |r|**1, not as |r|**2, which
    # put it at 3.3e4 and made both roots double
    got = univariate_roots([-1e7, 0.0, 3.0], (-1e8, 1e8))
    r = math.sqrt(1e7 / 3)
    assert [m for _, m in got] == [1, 1]
    assert [x for x, _ in got] == pytest.approx([-r, r], rel=1e-15)


@pytest.mark.parametrize("a", [0.3, 1 / 3, 2.0, -1.7])
def test_near_axis_complex_pairs(a):
    # (x - a)^2 + eps^2 has no real root, and times (x - 1) only the root
    # 1; from eps = 1e-6 on, the float square-free step makes the pair a
    # double root at a, which the cubic shows at eps = 1e-7, and at
    # eps = 1e-6 only for a = 2
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        pair = [a * a + eps * eps, -2.0 * a, 1.0]
        cubic = npoly.polymul(pair, [-1.0, 1.0])
        double = [(a, 2)] if eps <= 1e-6 else []
        got = univariate_roots(pair, (-3.0, 3.0))
        assert [m for _, m in got] == [m for _, m in double]
        assert [x for x, _ in got] == pytest.approx([x for x, _ in double],
                                                    abs=1e-15)
        if eps == 1e-7 or eps == 1e-6 and a == 2.0:
            want = sorted(double + [(1.0, 1)])
        else:
            want = [(1.0, 1)]
        got = univariate_roots(cubic, (-3.0, 3.0))
        assert [m for _, m in got] == [m for _, m in want]
        assert [x for x, _ in got] == pytest.approx([x for x, _ in want],
                                                    abs=1e-11)


def test_descartes_bounds_the_exact_root_count(seeded_fields):
    # the sign variations are at least the exact number of roots in the
    # open window, exact when 0 or 1, and the ends carry the signs there
    tols = default_tols()
    seen = set()
    for c, (w0, w1) in _count_once_cases(seeded_fields):
        if not any(c):
            continue
        sf = polys._square_free(_unit(c), tols.coeff_zero)
        if len(sf) == 1:
            continue
        variations, *signs = polys._descartes(polys._dyadic(sf)[0], w0, w1)
        ends = [sum(Fraction(a) * Fraction(x) ** k for k, a in enumerate(sf))
                for x in (w0, w1)]
        assert signs == [(v > 0) - (v < 0) for v in ends]
        inside = _exact_root_count(sf, w0, w1) - sum(v == 0 for v in ends)
        assert inside <= variations and (variations > 1 or inside ==
                                         variations), (c, (w0, w1))
        seen.add(min(variations, 2))
    assert seen == {0, 1, 2}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the float square-free step turns the resultant "
                   "of degree 21 into -x + 1.19e-12")
def test_semi_stable_focus_root_of_the_resultant_at_small_scale():
    # the semi-stable Y of tests/test_stability.py with v = y + 3, times
    # 1e-3 and scaled to unit largest coefficients as common_zero_seeds
    # scales it: its resultant is -1.598e-20 x plus a constant of 4e-33
    # and higher terms of at most 1e-32, so the focus's abscissa 0 is a
    # root to within 1e-12; _square_free turns it into [-1.0, 1.19e-12],
    # whose root is 8.4e11, so no root is found: the focus would be lost
    # even without the census's zero floor on the resultant
    u, v = poly({(1, 0): 1.0}), poly({(0, 1): 1.0, (0, 0): 3.0})
    q = poly({(0, 0): 1.0}) - (u * u + v * v)
    P, Q = ((f * poly({(0, 0): 1e-3})) for f in (-v - u * (q * q),
                                                  u - v * (q * q)))
    res = resultant_y(*(f.scale(1 / max(map(abs, f.coeffs.values())))
                        for f in (P, Q)))
    assert len(res) == 22
    roots = univariate_roots(res, (-6.0, 6.0))
    assert len(roots) == 1 and abs(roots[0][0]) <= 1e-12
