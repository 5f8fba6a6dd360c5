import numpy as np
import pytest

from filippov.errors import IdenticallyZeroOnD
from filippov.polys import (
    BivariatePolynomial,
    cauchy_bound,
    eval_poly,
    homogeneous_part,
    partial,
    poly,
    real_roots_on_line,
    vf,
)


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
                # plain sums against fsum: a few ulps of the largest term
                size = sum(abs(v * x**i * y**j) for (i, j), v in coeffs.items())
                assert abs(g[a, b] - p(x, y)) <= 8 * np.finfo(float).eps * size
