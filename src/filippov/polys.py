"""Bivariate polynomials, polynomial vector fields and the piecewise field.

Coefficients are double-precision reals stored sparsely.  A polynomial
evaluates at a point through a function generated from its coefficients
on the first call and cached on the instance: a straight-line Horner form
in x whose coefficients are Horner forms in y, every coefficient written
by repr, so the generated code holds the stored doubles exactly.  Real
roots on the discontinuity line y=0 are isolated with Sturm sequences and
polished by Newton's method kept inside the isolating bracket, because
arc classification downstream depends on exact root counts and ordering.
The isolator is float code over coefficient lists: its Horner evaluation,
derivative and long division do numpy.polynomial's operations in the
same order, so each root has the bits numpy's arithmetic would give.

Common zeros in the plane start from the resultant in y, computed exactly:
the doubles scale to integers and the Sylvester determinant is taken by
fraction-free elimination over Z[x], rounded once at the end.  One damped
Newton method, newton_zero, polishes every planar zero in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CommonFactor, IdenticallyZeroOnD
from .tolerances import Tolerances, default_tols

Coeffs = dict[tuple[int, int], float]


def _horner_form(terms: dict[int, str], var: str) -> str:
    """Horner form of sum terms[k] * var**k, highest power first."""
    expr = ""
    for k in range(max(terms), -1, -1):
        if not expr:
            expr = terms[k]
        else:
            expr = f"({expr})*{var}"
            if k in terms:
                expr += f" + {terms[k]}"
    return expr


def _generate(source: str, label: str, **names) -> dict:
    """Run generated source in a namespace holding names (and inf, nan)
    and return the namespace.  Every evaluator the package generates goes
    through here: Horner forms, right-hand sides and the DOP853 step."""
    namespace = {"inf": math.inf, "nan": math.nan, **names}
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace


def _horner_body(coeffs: Coeffs) -> str:
    """Expression of sum a_ij x^i y^j in x and y: Horner in x of Horner
    forms in y, every coefficient written by repr."""
    rows: dict[int, dict[int, str]] = {}
    for (i, j), v in coeffs.items():
        rows.setdefault(i, {})[j] = repr(v)
    inner = {i: _horner_form(r, "y") for i, r in rows.items()}
    return f"({_horner_form(inner, 'x')})" if inner else "0.0"


def _compile_horner(coeffs: Coeffs) -> Callable[[float, float], float]:
    """Straight-line evaluator of sum a_ij x^i y^j (_horner_body).  The
    arguments are converted with float() first, so numpy scalars run at
    Python float speed and the result is a float."""
    source = f"def horner(x, y):\n    x = float(x)\n    y = float(y)\n" \
             f"    return {_horner_body(coeffs)}\n"
    return _generate(source, "horner")["horner"]


def _cached(obj, slot: str, key, build: Callable[[], object]):
    """build() for key, run on first use and cached on obj in the dict
    slot, which obj's pickle state leaves out (_field_state)."""
    cache = obj.__dict__.setdefault(slot, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _kernel(obj, key, body: Callable[[], list[str]], **names) -> Callable:
    """obj's right-hand side rhs(t, s) for key, generated from the lines
    body() on first use and cached on obj (_cached)."""
    def build():
        source = "def rhs(t, s):\n" + "".join(f"    {ln}\n" for ln in body())
        return _generate(source, "rhs", **names)["rhs"]
    return _cached(obj, "_kernels", key, build)


def _field_state(obj) -> dict:
    """Pickle state of a dataclass: its fields, without cached evaluators
    and derived polynomials."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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

    __getstate__ = _field_state

    @cached_property
    def _horner(self) -> Callable[[float, float], float]:
        return _compile_horner(self.coeffs)

    def __call__(self, x: float, y: float) -> float:
        return self._horner(x, y)

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

    def restrict_x(self, x: float) -> np.ndarray:
        """Coefficients of y -> p(x, y), ascending powers (length >= 1)."""
        c = np.zeros(max((j for _, j in self.coeffs), default=0) + 1)
        for (i, j), v in self.coeffs.items():
            c[j] += v * x ** i
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

    __getstate__ = _field_state

    @cached_property
    def _jacobian(self) -> tuple[BivariatePolynomial, ...]:
        return (partial(self.P, "x"), partial(self.P, "y"),
                partial(self.Q, "x"), partial(self.Q, "y"))

    @cached_property
    def _divergence(self) -> BivariatePolynomial:
        return self._jacobian[0] + self._jacobian[3]

    def jacobian(self) -> tuple[BivariatePolynomial, ...]:
        """(dP/dx, dP/dy, dQ/dx, dQ/dy), built once per field."""
        return self._jacobian

    def divergence(self) -> BivariatePolynomial:
        """dP/dx + dQ/dy, built once per field."""
        return self._divergence

    def jacobian_at(self, x: float, y: float) -> np.ndarray:
        """The matrix [[dP/dx, dP/dy], [dQ/dx, dQ/dy]] at (x, y)."""
        px, py, qx, qy = self._jacobian
        return np.array([[px(x, y), py(x, y)], [qx(x, y), qy(x, y)]])

    def rhs(self, reverse: bool = False, divergence: bool = False
            ) -> Callable:
        """rhs(t, s) of the flow at (s[0], s[1]), of -(P, Q) when reverse,
        with dP/dx + dQ/dy as a third component when divergence (_kernel).
        It runs the Horner forms of P, Q and the divergence, so it returns
        their floats; negation is exact, as rounding is symmetric."""
        def body():
            sign = "-" if reverse else ""
            P, Q, D = (_horner_body(p.coeffs)
                       for p in (self.P, self.Q, self._divergence))
            return ["x = s[0]", "y = s[1]", f"return ({sign}{P}, {sign}{Q}"
                    + (f", {D})" if divergence else ")")]
        return _kernel(self, (reverse, divergence), body)


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

    __getstate__ = _field_state

    def slide_rhs(self, direction: float = 1.0) -> Callable:
        """rhs(t, s) of the 1-D Filippov sliding field on D at x = s[0],
        (Q_Y P_X - Q_X P_Y) / (Q_Y - Q_X) at y = 0, times direction (+1 or
        -1) (_kernel)."""
        def body():
            p1, q1, p2, q2 = (_horner_body(p.coeffs) for p in
                              (self.X.P, self.X.Q, self.Y.P, self.Y.Q))
            sign = "-" if direction < 0 else ""
            return ["x = s[0]", "y = 0.0", f"q1 = {q1}", f"q2 = {q2}",
                    f"return ({sign}((q2*{p1} - q1*{p2})/(q2 - q1)),)"]
        return _kernel(self, direction, body)


def piecewise(X: PolyVectorField, Y: PolyVectorField) -> PiecewiseField:
    return PiecewiseField(X, Y, max(X.m, Y.m))


# ---------------------------------------------------------------------------
# Univariate machinery for roots on D.
# ---------------------------------------------------------------------------
# Coefficients are lists of floats in ascending powers.

def _polyval(x: float, c: list[float]) -> float:
    """c[0] + c[1] x + ... by Horner's rule."""
    v = c[-1] + x * 0
    for a in c[-2::-1]:
        v = a + v * x
    return v


def _polyder(c: list[float], m: int = 1) -> list[float]:
    """Coefficients of the m-th derivative."""
    if m >= len(c):
        return [c[0] * 0]
    for _ in range(m):
        c = [j * c[j] for j in range(1, len(c))]
    return c


def _norm(c: list[float]) -> float:
    return max(map(abs, c))


def _trim(c: list[float], tol: float = 0.0) -> list[float]:
    """Strip trailing coefficients with magnitude <= tol."""
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= tol:
        n -= 1
    return c[:n]


def _polydiv(a: list[float], b: list[float]
             ) -> tuple[list[float], list[float]]:
    """Quotient and remainder of a / b: long division by the divisor
    scaled to a unit lead, the quotient divided by that lead at the end."""
    a, b = _trim(a), _trim(b)
    if len(a) < len(b):
        return [a[0] * 0], a
    if len(b) == 1:
        return [v / b[0] for v in a], [a[0] * 0]
    lead, n = b[-1], len(b) - 1
    b = [v / lead for v in b[:-1]]
    for j in range(len(a) - 1, n - 1, -1):
        aj = a[j]
        for k, bk in enumerate(b, j - n):
            a[k] -= bk * aj
    return [v / lead for v in a[n:]], _trim(a[:n])


def _gcd(a: list[float], b: list[float], rel_tol: float) -> list[float]:
    """Numeric polynomial GCD via the Euclidean remainder sequence.

    Remainders whose magnitude falls below rel_tol relative to the running
    scale are treated as zero.  Adequate for the modest degrees handled here.
    """
    a = _trim(a)
    b = _trim(b)
    scale = max(_norm(a), _norm(b), 1.0)
    while len(b) > 1 or abs(b[0]) > rel_tol * scale:
        _, r = _polydiv(a, b)
        r = _trim(r, rel_tol * scale)
        if len(r) == 1 and abs(r[0]) <= rel_tol * scale:
            break
        top = _norm(r)  # normalize to keep the scale tame
        a, b = b, [v / top for v in r]
    if len(b) > 1 or abs(b[0]) > rel_tol * scale:
        return [v / b[-1] for v in b]
    return [1.0]


def _square_free(c: list[float], rel_tol: float) -> list[float]:
    """Square-free part c / gcd(c, c')."""
    c = _trim(c)
    if len(c) <= 2:
        return c
    d = _trim(_polyder(c))
    g = _gcd(c, d, rel_tol)
    if len(g) == 1:
        return c
    q, _ = _polydiv(c, g)
    return _trim(q, rel_tol * max(_norm(q), 1.0))


def _sturm_chain(c: list[float], rel_tol: float) -> list[list[float]]:
    chain = [_trim(c)]
    d = _trim(_polyder(c))
    if len(d) == 1 and d[0] == 0.0:
        return chain
    chain.append(d)
    scale = max(_norm(c), 1.0)
    while len(chain[-1]) > 1:
        _, r = _polydiv(chain[-2], chain[-1])
        r = _trim(r, rel_tol * scale)
        if len(r) == 1 and abs(r[0]) <= rel_tol * scale:
            break
        chain.append([-v for v in r])
    return chain


def _sign_changes(chain: list[list[float]], x: float, zero_tol: float) -> int:
    signs = []
    for c in chain:
        v = _polyval(x, c)
        if abs(v) > zero_tol:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def _count_roots(chain, a, b, zero_tol) -> int:
    return _sign_changes(chain, a, zero_tol) - _sign_changes(chain, b, zero_tol)


def _polish_root(c: list[float], a: float, b: float, tol: float) -> float:
    """Newton's method kept inside the sign-change bracket [a, b].

    A Newton step that would leave the bracket is replaced by bisection.
    Returns the iterate of the first Newton step no longer than tol, whose
    error is of the order of that step squared, or the bracket's end once
    bisection has narrowed it to two adjacent doubles.
    """
    d = _polyder(c)
    fa = _polyval(a, c)
    x = 0.5 * (a + b)
    for _ in range(200):
        fx = _polyval(x, c)
        if fx == 0.0:
            return x
        if fa * fx < 0:
            b = x
        else:
            a, fa = x, fx
        dfx = _polyval(x, d)
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


def bracketed_root(f: Callable[[float], float], a: float, fa: float,
                   b: float, fb: float, xtol: float) -> float:
    """A root of f in the bracket [a, b], given fa = f(a) and fb = f(b) of
    opposite signs (or one of them zero, whose end is returned).

    Brent's method (Brent, Algorithms for Minimization without
    Derivatives, ch. 4) step for step as scipy.optimize takes it: inverse
    quadratic or secant steps, bisection where they fall short, and the
    iterate returned once half the bracket is below (xtol + 4 eps |x|) / 2.
    f is never called at a or b.  After 100 steps the last iterate is
    returned as it stands.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    rtol = 4 * math.ulp(1.0)
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
        if stry is not None \
                and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


def _multiplicity(c: list[float], r: float, zero_tol: float) -> int:
    """Smallest k >= 1 with |c^(k)(r)| above the zero threshold."""
    scale = max(_norm(c), 1.0) * max(1.0, abs(r)) ** (len(c) - 1)
    d = c
    for k in range(1, len(c)):
        d = _polyder(d)
        if abs(_polyval(r, d)) > zero_tol * scale * 1e3:
            return k
    return max(len(c) - 1, 1)


def univariate_roots(c, window: tuple[float, float],
                     tols: Tolerances | None = None) -> list[tuple[float, int]]:
    """All real roots with multiplicity of the polynomial with ascending
    coefficients c (a sequence or an array) inside the window, sorted
    ascending."""
    tols = tols or default_tols()
    c = _trim([float(v) for v in c])
    if len(c) == 1:
        return []
    # the zero floors are relative to max(|c|, 1), so smaller polynomials
    # are scaled up to unit size first
    top = min(_norm(c), 1.0)
    c = [v / top for v in c]
    scale = max(_norm(c), 1.0)
    sf = _square_free(c, tols.coeff_zero)
    if len(sf) == 1:
        return []
    chain = _sturm_chain(sf, tols.coeff_zero)
    a, b = float(window[0]), float(window[1])
    zero_tol = tols.coeff_zero * scale
    # nudge the endpoints off the zeros of every member of the chain,
    # which would drop out of the sign count there
    def vanishing(x):
        return any(len(p) > 1 and abs(_polyval(x, p)) <= zero_tol
                   for p in chain)
    eps = max(tols.root * 1e-2, 1e-14 * max(abs(a), abs(b), 1.0))
    while vanishing(a):
        a -= eps
        eps *= 2
    eps = max(tols.root * 1e-2, 1e-14 * max(abs(a), abs(b), 1.0))
    while vanishing(b):
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
        e, resets = eps, 0
        while abs(_polyval(mid, sf)) <= zero_tol:
            mid += e
            e *= 2
            if mid >= hi:
                # eps may exceed the bracket after the window-end nudges
                mid = max(0.5 * (lo + hi) - eps, lo + 0.25 * (hi - lo))
                resets += 1
                if resets == 2:
                    # sf is below zero_tol from here to hi: every later
                    # step would come back to this point
                    break
        nl = _count_roots(chain, lo, mid, zero_tol)
        isolate(lo, mid, nl)
        isolate(mid, hi, n - nl)

    isolate(a, b, _count_roots(chain, a, b, zero_tol))
    roots.sort()
    out = []
    for r in roots:
        if window[0] - tols.root <= r <= window[1] + tols.root:
            out.append((r, _multiplicity(c, r, tols.coeff_zero)))
    return out


def real_roots_on_line(p: BivariatePolynomial, window: tuple[float, float],
                       tols: Tolerances | None = None) -> list[tuple[float, int]]:
    """Real roots of x -> p(x, 0) inside the window, with multiplicity.

    Raises IdenticallyZeroOnD when the restriction vanishes identically:
    the whole line is tangency and arc analysis is meaningless.
    """
    tols = tols or default_tols()
    c = p.restrict_y0().tolist()
    scale = max(_norm(c), max(map(abs, p.coeffs.values()), default=0.0), 1.0)
    if _norm(c) <= tols.coeff_zero * scale:
        raise IdenticallyZeroOnD("p(x,0) vanishes identically")
    return univariate_roots(c, window, tols)


def cauchy_bound(c) -> float:
    """Cauchy root bound 1 + max |a_i / a_n| for ascending coefficients."""
    c = _trim([float(v) for v in c])
    if len(c) <= 1:
        return 1.0
    return 1.0 + _norm(c[:-1]) / abs(c[-1])


# ---------------------------------------------------------------------------
# Common zeros in the plane.
# ---------------------------------------------------------------------------

def resultant_y(p: BivariatePolynomial, q: BivariatePolynomial
                ) -> np.ndarray:
    """Ascending x-coefficients of Res_y(p, q), the determinant of the
    Sylvester matrix of p and q as polynomials in y, each rounded once from
    its exact value.  A double is an integer over a power of two, so the
    entries scale to integer polynomials in x; packed as their values at
    x = 2**b (Kronecker substitution), fraction-free (Bareiss) elimination
    takes the determinant with exact integer divisions, and b is large
    enough that its base-2**b digits are the resultant's coefficients.
    When neither depends on y, p gets formal y-degree 1, so the result is q.
    """
    ints, exps = [], []
    for f in (p, q):
        ratios = {k: v.as_integer_ratio() for k, v in f.coeffs.items()}
        exps.append(max((d.bit_length() for _, d in ratios.values()),
                        default=1) - 1)
        ints.append({k: n << (exps[-1] - d.bit_length() + 1)
                     for k, (n, d) in ratios.items()})
    ny = [max((j for _, j in f), default=0) for f in ints]
    ny[0] = max(ny[0], 1 - ny[1])
    size = sum(ny)
    bits = max((abs(v).bit_length() for f in ints for v in f.values()),
               default=0)
    # a coefficient of the determinant, a sum of size! products of size
    # entries of at most deg + 1 terms each, is below
    # (size (deg + 1))**size 2**(size bits) <= 2**(b - 1) in magnitude
    terms = size * (max(p.degree, q.degree) + 1)
    b = size * (bits + terms.bit_length()) + 1
    m = [[0] * size for _ in range(size)]
    for f, n, k, top in ((ints[0], *ny, 0), (ints[1], ny[1], ny[0], ny[1])):
        for (i, j), v in f.items():
            for r in range(k):     # row top + r holds y^r f, descending
                m[top + r][r + n - j] += v << (b * i)
    sign, prev = 1, 1
    for s in range(size - 1):
        piv = next((i for i in range(s, size) if m[i][s]), None)
        if piv is None:
            return np.zeros(1)
        if piv != s:
            m[s], m[piv], sign = m[piv], m[s], -sign
        for i in range(s + 1, size):
            for j in range(s + 1, size):
                m[i][j] = (m[s][s] * m[i][j] - m[i][s] * m[s][j]) // prev
        prev = m[s][s]
    det, digits = sign * m[-1][-1], []
    while det:
        d = det & ((1 << b) - 1)
        d -= (d >> (b - 1)) << b       # the digit in [-2**(b-1), 2**(b-1))
        digits.append(d)
        det = (det - d) >> b
    den = 1 << (exps[0] * ny[1] + exps[1] * ny[0])
    return np.array([d / den for d in digits] or [0.0])


def common_zero_seeds(p: BivariatePolynomial, q: BivariatePolynomial,
                      x_window: tuple[float, float],
                      y_window: tuple[float, float], tols: Tolerances
                      ) -> list[tuple[float, float]]:
    """Seeds (x, y) for the common zeros of p and q: each x a real root of
    Res_y(p, q) in x_window, with each real root y in y_window of p(x, .)
    and q(x, .), leaving out one of them that vanishes to tols.sign.  p
    and q are scaled to unit largest coefficient first, so these zero
    tests do not depend on their scale.  Raises CommonFactor when p and q
    share a factor: the resultant vanishes, or both p(x, .) and q(x, .)
    do at one of its roots."""
    p, q = (f.scale(1 / max(map(abs, f.coeffs.values()), default=1.0))
            for f in (p, q))
    res = resultant_y(p, q)
    if np.max(np.abs(res)) <= tols.coeff_zero:
        raise CommonFactor("the resultant vanishes identically")
    seeds = []
    for xr, _ in univariate_roots(res, x_window, tols):
        live = [f.restrict_x(xr) for f in (p, q)]
        live = [c for c in live if np.max(np.abs(c)) > tols.sign]
        if not live:
            raise CommonFactor(f"both vanish at the resultant's root {xr!r}")
        seeds += [(xr, yr) for yr in sorted(
            {yr for c in live for yr, _ in univariate_roots(c, y_window,
                                                            tols)})]
    return seeds


def newton_zero(f: Callable[[float, float], tuple[float, float]],
                jac: Callable[[float, float], np.ndarray],
                x: float, y: float, tols: Tolerances
                ) -> tuple[float, float] | None:
    """Damped Newton for a zero of the planar map f with Jacobian jac: a
    step is halved until the residual norm drops (at most 25 times); the
    first iterate with residual norm <= tols.newton within 60 steps, else
    None."""
    fx, fy = f(x, y)
    res = math.hypot(fx, fy)
    for _ in range(60):
        if res <= tols.newton:
            return (x, y)
        try:
            sx, sy = np.linalg.solve(jac(x, y), (fx, fy))
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(25):
            xn, yn = x - lam * sx, y - lam * sy
            gx, gy = f(xn, yn)
            rn = math.hypot(gx, gy)
            if rn < res:
                x, y, fx, fy, res = xn, yn, gx, gy, rn
                break
            lam *= 0.5
        else:
            return None
    return (x, y) if res <= tols.newton else None
