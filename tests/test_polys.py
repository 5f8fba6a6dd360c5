import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from filippov import flow, polys
from filippov.dline import det_xy
from filippov.errors import IdenticallyZeroOnD
from filippov.polys import (
    BivariatePolynomial,
    bracketed_root,
    cauchy_bound,
    eval_poly,
    homogeneous_part,
    partial,
    piecewise,
    poly,
    real_roots_on_line,
    resultant_y,
    univariate_roots,
    vf,
)
from filippov.tolerances import default_tols

EPS = np.finfo(float).eps


def test_eval_simple():
    p = poly({(2, 0): 1.0, (0, 1): 2.0})  # x^2 + 2y
    assert eval_poly(p, (1.0, 1.0)) == 3.0


def test_eval_zero_poly():
    p = poly({})
    assert eval_poly(p, (5.0, -3.0)) == 0.0


def test_eval_mixed():
    # x^3 y - y^2 at (2, 1): 8 - 1 = 7
    p = poly({(3, 1): 1.0, (0, 2): -1.0})
    assert eval_poly(p, (2.0, 1.0)) == 7.0


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
        assert eval_poly(a + b, z) == pytest.approx(
            eval_poly(a, z) + eval_poly(b, z), rel=1e-12, abs=1e-12
        )
        assert eval_poly(a * b, z) == pytest.approx(
            eval_poly(a, z) * eval_poly(b, z), rel=1e-12, abs=1e-12
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


def test_horner_compiled_once_on_first_call(monkeypatch):
    compiled = []
    original = polys._compile_horner

    def counting(coeffs):
        compiled.append(coeffs)
        return original(coeffs)

    monkeypatch.setattr(polys, "_compile_horner", counting)
    X = vf({(2, 1): 1.5, (0, 0): -2.0}, {(1, 0): 1.0})
    X.jacobian()
    X.divergence()
    assert compiled == []  # building a field and its partials compiles nothing
    assert [X.P(x, 0.5) for x in (0.0, 1.0, 2.0)] == [-2.0, -1.25, 1.0]
    assert X.P(np.float64(2.0), np.float64(0.5)) == 1.0
    assert len(compiled) == 1


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
    for obj in (X.P, X, Z):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone == obj
    clone = pickle.loads(pickle.dumps(X))
    assert clone(0.5, -1.0) == X(0.5, -1.0)
    assert clone.divergence()(0.5, -1.0) == X.divergence()(0.5, -1.0)
    assert copy.deepcopy(X.P)(2.0, 4.0) == X.P(2.0, 4.0)


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


# ---------------------------------------------------------------------------
# The Sturm isolator as it ran on numpy.polynomial, kept as a test-only
# reference: the float-list isolator of polys does the same operations in
# the same order, so it must return the same roots to the bit.
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


def _np_sturm_chain(c, rel_tol):
    chain = [_np_trim(c)]
    d = _np_trim(npoly.polyder(c))
    if len(d) == 1 and d[0] == 0.0:
        return chain
    chain.append(d)
    scale = max(np.max(np.abs(c)), 1.0)
    while len(chain[-1]) > 1:
        _, r = _np_polydiv(chain[-2], chain[-1])
        r = _np_trim(r, rel_tol * scale)
        if len(r) == 1 and abs(r[0]) <= rel_tol * scale:
            break
        chain.append(-r)
    return chain


def _np_count_roots(chain, a, b, zero_tol):
    def changes(x):
        signs = [1 if v > 0 else -1 for v in (npoly.polyval(x, c)
                                              for c in chain)
                 if abs(v) > zero_tol]
        return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)
    return changes(a) - changes(b)


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
    scale = max(np.max(np.abs(c)), 1.0) * max(1.0, abs(r)) ** (len(c) - 1)
    d = np.array(c, dtype=float)
    for k in range(1, len(c)):
        d = npoly.polyder(d)
        if abs(npoly.polyval(r, d)) > zero_tol * scale * 1e3:
            return k
    return max(len(c) - 1, 1)


def _np_univariate_roots(c, window, tols):
    c = _np_trim(np.asarray(c, dtype=float), 0.0)
    if len(c) == 1:
        return []
    c = c / min(np.max(np.abs(c)), 1.0)
    scale = max(np.max(np.abs(c)), 1.0)
    sf = _np_square_free(c, tols.coeff_zero)
    if len(sf) == 1:
        return []
    chain = _np_sturm_chain(sf, tols.coeff_zero)
    a, b = float(window[0]), float(window[1])
    zero_tol = tols.coeff_zero * scale
    eps = max(tols.root * 1e-2, 1e-14 * max(abs(a), abs(b), 1.0))
    while abs(npoly.polyval(a, sf)) <= zero_tol:
        a -= eps
        eps *= 2
    eps = max(tols.root * 1e-2, 1e-14 * max(abs(a), abs(b), 1.0))
    while abs(npoly.polyval(b, sf)) <= zero_tol:
        b += eps
        eps *= 2
    roots = []

    def isolate(lo, hi, n):
        if n == 0:
            return
        if n == 1 and hi - lo <= 1e-3:
            roots.append(_np_polish_root(sf, lo, hi, tols.root))
            return
        if hi - lo <= tols.root:
            roots.append(0.5 * (lo + hi))
            return
        mid = 0.5 * (lo + hi)
        e = eps
        while abs(npoly.polyval(mid, sf)) <= zero_tol:
            mid += e
            e *= 2
            if mid >= hi:
                mid = 0.5 * (lo + hi) - eps
        nl = _np_count_roots(chain, lo, mid, zero_tol)
        isolate(lo, mid, nl)
        isolate(mid, hi, n - nl)

    isolate(a, b, _np_count_roots(chain, a, b, zero_tol))
    return [(r, _np_multiplicity(c, r, tols.coeff_zero)) for r in sorted(roots)
            if window[0] - tols.root <= r <= window[1] + tols.root]


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


def test_isolator_matches_numpy_reference(seeded_fields):
    tols = default_tols()
    cases = _isolator_cases(seeded_fields)
    assert sum(1 for c, w in cases if univariate_roots(c, w, tols)) > 200
    for c, window in cases:
        want = _bits(_np_univariate_roots(np.asarray(c), window, tols))
        assert _bits(univariate_roots(np.asarray(c), window, tols)) == want
        assert _bits(univariate_roots(list(c), window, tols)) == want


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
        assert abs(tr.hit_state[0] - direction * math.sqrt(2.0)) <= 1e-9


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
