import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from filippov import polys
from filippov.errors import IdenticallyZeroOnD
from filippov.polys import (
    BivariatePolynomial,
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


def test_grid_matches_scalar_evaluation():
    rng = np.random.default_rng(5)
    xs = np.linspace(-3.0, 2.0, 7)
    ys = np.linspace(-0.5, 1.5, 4)
    for coeffs in ({}, {(0, 0): 2.5},
                   {(i, j): rng.standard_normal()
                    for i in range(4) for j in range(4 - i)}):
        p = poly(coeffs)
        g = p.grid(xs, ys)
        assert g.shape == (7, 4)
        for a, x in enumerate(xs):
            for b, y in enumerate(ys):
                # two summation orders: a few ulps of the largest term
                size = sum(abs(v * x**i * y**j) for (i, j), v in coeffs.items())
                assert abs(g[a, b] - p(x, y)) <= 8 * np.finfo(float).eps * size


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
