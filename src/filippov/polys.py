"""Bivariate polynomials, polynomial vector fields and the piecewise field.

Coefficients are double-precision reals stored sparsely; exact rational
arithmetic is out of scope.  Real roots on the discontinuity line y=0 are
isolated with Sturm sequences and polished by bisection/Newton, because
arc classification downstream depends on exact root counts and ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import IdenticallyZeroOnD
from .tolerances import Tolerances, default_tols

Coeffs = dict[tuple[int, int], float]


@dataclass(frozen=True)
class BivariatePolynomial:
    """Sparse real polynomial in (x, y): sum of a_ij x^i y^j."""

    coeffs: Coeffs = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), v in self.coeffs.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in monomial {(i, j)}")
            v = float(v)
            if v != 0.0:
                clean[(int(i), int(j))] = v
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        """Max total degree of stored monomials; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(i + j for i, j in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float, y: float) -> float:
        return math.fsum(v * x**i * y**j for (i, j), v in self.coeffs.items())

    def grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Values at every (xs[i], ys[j]), a len(xs) x len(ys) array.

        Computed as Vx @ C @ Vy.T from the power tables Vx[i, a] = xs[i]**a,
        Vy[j, b] = ys[j]**b and the dense coefficient matrix C[a, b] = a_ab.
        The sums are plain floating point, not fsum, so a value can differ
        from __call__ in the last digits.
        """
        dx = max((i for i, _ in self.coeffs), default=0)
        dy = max((j for _, j in self.coeffs), default=0)
        c = np.zeros((dx + 1, dy + 1))
        for (i, j), v in self.coeffs.items():
            c[i, j] = v
        vx = np.asarray(xs, dtype=float)[:, None] ** np.arange(dx + 1)
        vy = np.asarray(ys, dtype=float)[:, None] ** np.arange(dy + 1)
        return vx @ c @ vy.T

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return BivariatePolynomial(out)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out: Coeffs = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0.0) + v1 * v2
        return BivariatePolynomial(out)

    def scale(self, c: float) -> "BivariatePolynomial":
        return BivariatePolynomial({k: c * v for k, v in self.coeffs.items()})

    def restrict_y0(self) -> np.ndarray:
        """Coefficients of x -> p(x, 0), ascending powers (length >= 1)."""
        deg = max((i for (i, j) in self.coeffs if j == 0), default=0)
        c = np.zeros(deg + 1)
        for (i, j), v in self.coeffs.items():
            if j == 0:
                c[i] = v
        return c

    def restrict_x0(self) -> np.ndarray:
        deg = max((j for (i, j) in self.coeffs if i == 0), default=0)
        c = np.zeros(deg + 1)
        for (i, j), v in self.coeffs.items():
            if i == 0:
                c[j] = v
        return c


def poly(coeffs: Coeffs) -> BivariatePolynomial:
    return BivariatePolynomial(coeffs)


def constant(c: float) -> BivariatePolynomial:
    return BivariatePolynomial({(0, 0): c})


def eval_poly(p: BivariatePolynomial, point: tuple[float, float]) -> float:
    return p(point[0], point[1])


def partial(p: BivariatePolynomial, axis: str) -> BivariatePolynomial:
    """Formal partial derivative with respect to 'x' or 'y'."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    out: Coeffs = {}
    for (i, j), v in p.coeffs.items():
        if axis == "x" and i > 0:
            out[(i - 1, j)] = out.get((i - 1, j), 0.0) + i * v
        elif axis == "y" and j > 0:
            out[(i, j - 1)] = out.get((i, j - 1), 0.0) + j * v
    return BivariatePolynomial(out)


def homogeneous_part(p: BivariatePolynomial, k: int) -> BivariatePolynomial:
    """Sum of monomials of total degree exactly k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return BivariatePolynomial(
        {(i, j): v for (i, j), v in p.coeffs.items() if i + j == k}
    )


@dataclass(frozen=True)
class PolyVectorField:
    """Planar polynomial vector field (P, Q) of declared degree m."""

    P: BivariatePolynomial
    Q: BivariatePolynomial
    m: int

    def __post_init__(self):
        d = max(self.P.degree if not self.P.is_zero() else 0,
                self.Q.degree if not self.Q.is_zero() else 0)
        if d > self.m:
            raise ValueError(f"component degree {d} exceeds declared m={self.m}")

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        return self.P(x, y), self.Q(x, y)

    def jacobian(self) -> tuple[BivariatePolynomial, ...]:
        """(dP/dx, dP/dy, dQ/dx, dQ/dy)."""
        return (partial(self.P, "x"), partial(self.P, "y"),
                partial(self.Q, "x"), partial(self.Q, "y"))

    def divergence(self) -> BivariatePolynomial:
        return partial(self.P, "x") + partial(self.Q, "y")


def vf(P: Coeffs, Q: Coeffs, m: int | None = None) -> PolyVectorField:
    """Convenience constructor; m defaults to max component degree."""
    p, q = BivariatePolynomial(P), BivariatePolynomial(Q)
    if m is None:
        m = max(p.degree, q.degree)
    return PolyVectorField(p, q, m)


@dataclass(frozen=True)
class PiecewiseField:
    """Z = (X, Y): X governs N = {y>0}, Y governs S = {y<0}; bi-valued on D."""

    X: PolyVectorField
    Y: PolyVectorField
    m: int

    def __post_init__(self):
        if max(self.X.m, self.Y.m) > self.m:
            raise ValueError("side degree exceeds declared common degree")


def piecewise(X: PolyVectorField, Y: PolyVectorField) -> PiecewiseField:
    return PiecewiseField(X, Y, max(X.m, Y.m))


# ---------------------------------------------------------------------------
# Univariate machinery for roots on D.
# ---------------------------------------------------------------------------

def _trim(c: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Strip trailing coefficients with magnitude <= tol."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= tol:
        n -= 1
    return c[:n]


def _polydiv(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q, r = npoly.polydiv(a, b)
    return np.atleast_1d(q), np.atleast_1d(r)


def _gcd(a: np.ndarray, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """Numeric polynomial GCD via the Euclidean remainder sequence.

    Remainders whose magnitude falls below rel_tol relative to the running
    scale are treated as zero.  Adequate for the modest degrees handled here.
    """
    a = _trim(a)
    b = _trim(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    while len(b) > 1 or abs(b[0]) > rel_tol * scale:
        _, r = _polydiv(a, b)
        r = _trim(r, rel_tol * scale)
        if len(r) == 1 and abs(r[0]) <= rel_tol * scale:
            break
        a, b = b, r / np.max(np.abs(r))  # normalize to keep the scale tame
    return b / b[-1] if (len(b) > 1 or abs(b[0]) > rel_tol * scale) else np.array([1.0])


def _square_free(c: np.ndarray, rel_tol: float) -> np.ndarray:
    """Square-free part c / gcd(c, c')."""
    c = _trim(c)
    if len(c) <= 2:
        return c
    d = _trim(npoly.polyder(c))
    g = _gcd(c, d, rel_tol)
    if len(g) == 1:
        return c
    q, _ = _polydiv(c, g)
    return _trim(q, rel_tol * max(np.max(np.abs(q)), 1.0))


def _sturm_chain(c: np.ndarray, rel_tol: float) -> list[np.ndarray]:
    chain = [_trim(c)]
    d = _trim(npoly.polyder(c))
    if len(d) == 1 and d[0] == 0.0:
        return chain
    chain.append(d)
    scale = max(np.max(np.abs(c)), 1.0)
    while len(chain[-1]) > 1:
        _, r = _polydiv(chain[-2], chain[-1])
        r = _trim(r, rel_tol * scale)
        if len(r) == 1 and abs(r[0]) <= rel_tol * scale:
            break
        chain.append(-r)
    return chain


def _sign_changes(chain: list[np.ndarray], x: float, zero_tol: float) -> int:
    signs = []
    for c in chain:
        v = npoly.polyval(x, c)
        if abs(v) > zero_tol:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def _count_roots(chain, a, b, zero_tol) -> int:
    return _sign_changes(chain, a, zero_tol) - _sign_changes(chain, b, zero_tol)


def _polish_root(c: np.ndarray, a: float, b: float, tol: float) -> float:
    """Bisection to tol, with Newton acceleration when it stays bracketed."""
    d = npoly.polyder(c)
    fa = npoly.polyval(a, c)
    for _ in range(200):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        # Newton attempt from the midpoint
        fm = npoly.polyval(mid, c)
        dm = npoly.polyval(mid, d)
        if dm != 0.0:
            nxt = mid - fm / dm
            if a < nxt < b:
                fn = npoly.polyval(nxt, c)
                if fa * fn <= 0:
                    b, mid, fm = nxt, nxt, fn
                else:
                    a, fa = nxt, fn
                continue
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _multiplicity(c: np.ndarray, r: float, zero_tol: float) -> int:
    """Smallest k >= 1 with |c^(k)(r)| above the zero threshold."""
    scale = max(np.max(np.abs(c)), 1.0) * max(1.0, abs(r)) ** (len(c) - 1)
    d = np.array(c, dtype=float)
    for k in range(1, len(c)):
        d = npoly.polyder(d)
        if abs(npoly.polyval(r, d)) > zero_tol * scale * 1e3:
            return k
    return max(len(c) - 1, 1)


def univariate_roots(c: np.ndarray, window: tuple[float, float],
                     tols: Tolerances | None = None) -> list[tuple[float, int]]:
    """All real roots with multiplicity of the polynomial with ascending
    coefficients c inside the window, sorted ascending."""
    tols = tols or default_tols()
    c = _trim(np.asarray(c, dtype=float), 0.0)
    scale = max(np.max(np.abs(c)), 1.0)
    c_full = c
    if len(c) == 1:
        return []
    sf = _square_free(c, tols.coeff_zero)
    if len(sf) == 1:
        return []
    chain = _sturm_chain(sf, tols.coeff_zero)
    a, b = float(window[0]), float(window[1])
    zero_tol = tols.coeff_zero * scale
    # nudge endpoints off exact roots of the square-free part
    eps = max(tols.root * 1e-2, 1e-14 * max(abs(a), abs(b), 1.0))
    while abs(npoly.polyval(a, sf)) <= zero_tol:
        a -= eps
        eps *= 2
    eps = max(tols.root * 1e-2, 1e-14 * max(abs(a), abs(b), 1.0))
    while abs(npoly.polyval(b, sf)) <= zero_tol:
        b += eps
        eps *= 2

    roots: list[float] = []

    def isolate(lo: float, hi: float, n: int):
        if n == 0:
            return
        if n == 1 and hi - lo <= 1e-3:
            roots.append(_polish_root(sf, lo, hi, tols.root))
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
        nl = _count_roots(chain, lo, mid, zero_tol)
        isolate(lo, mid, nl)
        isolate(mid, hi, n - nl)

    isolate(a, b, _count_roots(chain, a, b, zero_tol))
    roots.sort()
    out = []
    for r in roots:
        if window[0] - tols.root <= r <= window[1] + tols.root:
            out.append((r, _multiplicity(c_full, r, tols.coeff_zero)))
    return out


def real_roots_on_line(p: BivariatePolynomial, window: tuple[float, float],
                       tols: Tolerances | None = None) -> list[tuple[float, int]]:
    """Real roots of x -> p(x, 0) inside the window, with multiplicity.

    Raises IdenticallyZeroOnD when the restriction vanishes identically:
    the whole line is tangency and arc analysis is meaningless.
    """
    tols = tols or default_tols()
    c = p.restrict_y0()
    scale = max(float(np.max(np.abs(c))) if len(c) else 0.0,
                max((abs(v) for v in p.coeffs.values()), default=0.0), 1.0)
    if np.all(np.abs(c) <= tols.coeff_zero * scale):
        raise IdenticallyZeroOnD("p(x,0) vanishes identically")
    return univariate_roots(c, window, tols)


def cauchy_bound(c: np.ndarray) -> float:
    """Cauchy root bound 1 + max |a_i / a_n| for ascending coefficients."""
    c = _trim(np.asarray(c, dtype=float), 0.0)
    if len(c) <= 1:
        return 1.0
    return 1.0 + float(np.max(np.abs(c[:-1])) / abs(c[-1]))

