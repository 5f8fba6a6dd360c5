"""Bivariate polynomials, polynomial vector fields and the piecewise field.

Coefficients are double-precision reals stored sparsely.  A polynomial
evaluates at a point through a straight-line function made on the first
call and cached on the instance: Horner forms in y of the rows of equal
power of x, joined in x's Horner order with each lower row added term by
term (_horner_body gives the exact order).  Its code depends on the
monomial support alone, with each coefficient a parameter whose default
is the stored double, so it is compiled once per support (_horner_code)
and returns the floats of the form with the coefficients written out.
Real roots are isolated by bisection with exact counts and polished by
Newton's method inside the isolating bracket, as arc classification
depends on exact root counts and ordering.  They are the roots of the float
square-free part, whose tolerance says what a multiple root is, taken over
the integers (_dyadic), and Descartes' rule of signs is the only count:
a window with no sign variation holds no root, one with a single variation
holds one, and any other is split (Vincent-Collins-Akritas).  The float
steps do numpy.polynomial's operations in the same order, so they give
numpy's bits.

Common zeros in the plane start from the resultant in y, whose Sylvester
determinant is taken exactly by fraction-free elimination over Z[x] and
rounded once; the Taylor coefficients at a point are exact too (taylor_at).
One damped Newton method, newton_zero, polishes every planar zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from types import CodeType
from typing import Callable

import numpy as np

from .errors import CommonFactor, IdenticallyZeroOnD
from .tolerances import Tolerances, default_tols
from .work import WORK

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


def _generate(source, label: str, **names) -> dict:
    """Run generated source, or its compiled code, in a namespace holding
    names (and inf, nan) and return the namespace.  Every evaluator the
    package generates goes through here: Horner forms, right-hand sides
    and the DOP853 step.  Counts the labels of WORK."""
    if label in WORK:
        WORK[label] += 1
    namespace = {"inf": math.inf, "nan": math.nan, **names}
    if isinstance(source, str):
        source = compile(source, f"<{label}>", "exec")
    exec(source, namespace)
    return namespace


def _horner_body(coeffs: Coeffs, named: bool = False) -> str:
    """Expression of sum a_ij x^i y^j in x and y, every coefficient written
    by repr, or as the name a{i}_{j} when named.

    Each row sum_j a_ij y^j is a Horner form in y, and the rows join in
    x's Horner order, the row of the highest power of x in parentheses
    and each lower one appended after ")*x + " without them.  So Python
    adds a lower row to the running value term by term, its y-part first
    and its constant a_i0 last: 0.5xy + 3x - y + 2 evaluates as
    (((0.5*y + 3.0)*x) + (-1.0)*y) + 2.0."""
    rows: dict[int, dict[int, str]] = {}
    for (i, j), v in coeffs.items():
        rows.setdefault(i, {})[j] = f"a{i}_{j}" if named else repr(v)
    inner = {i: _horner_form(r, "y") for i, r in rows.items()}
    return f"({_horner_form(inner, 'x')})" if inner else "0.0"


@lru_cache(maxsize=1024)
def _horner_code(support: tuple[tuple[int, int], ...]) -> CodeType:
    """Compiled source of horner(x, y) for the monomials of support: the
    _horner_body expression with each coefficient the parameter a{i}_{j},
    whose default is taken from the namespace the code runs in.  The
    source depends on the support alone, so each is compiled once while
    it stays among the 1024 supports used last."""
    names = "".join(f", a{i}_{j}=a{i}_{j}" for i, j in support)
    source = f"def horner(x, y{names}):\n    x = float(x)\n" \
             f"    y = float(y)\n" \
             f"    return {_horner_body(dict.fromkeys(support), True)}\n"
    return compile(source, "<horner>", "exec")


def _compile_horner(coeffs: Coeffs) -> Callable[[float, float], float]:
    """Straight-line evaluator of sum a_ij x^i y^j (_horner_body), the code
    of its support (_horner_code) run with the coefficients as its
    defaults; as a default is a stored double, it returns the floats of
    the literal form.  The arguments are converted with float() first, so
    numpy scalars run at Python float speed and the result is a float."""
    return _generate(_horner_code(tuple(sorted(coeffs))), "horner",
                     **{f"a{i}_{j}": v for (i, j), v in coeffs.items()}
                     )["horner"]


def _cached(obj, slot: str, key, build: Callable[[], object]):
    """build() for key, run on first use and cached on obj in the dict
    slot, which obj's pickle state leaves out (_field_state)."""
    cache = obj.__dict__.setdefault(slot, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _kernel(obj, key, n: int, body: Callable[[], list[str]],
            **names) -> Callable:
    """obj's right-hand side for key and a state of n components, which it
    takes as its parameters after t: rhs(t, x), rhs(t, x, y) or
    rhs(t, x, y, d).  It is generated from the lines body() on first use
    and cached on obj (_cached)."""
    def build():
        state = ", ".join(("x", "y", "d")[:n])
        source = f"def rhs(t, {state}):\n" \
            + "".join(f"    {ln}\n" for ln in body())
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

    def rhs(self, divergence: bool = False) -> Callable:
        """rhs(t, x, y) of the flow at (x, y); when divergence,
        rhs(t, x, y, d) with dP/dx + dQ/dy as a third component, d (the
        integral so far) unread (_kernel).  It runs the Horner forms of P,
        Q and the divergence, so it returns their floats.  The divergence
        is built only for a kernel that returns it."""
        def body():
            P, Q = (_horner_body(p.coeffs) for p in (self.P, self.Q))
            D = f", {_horner_body(self._divergence.coeffs)}" \
                if divergence else ""
            return [f"return ({P}, {Q}{D})"]
        return _kernel(self, divergence, 2 + divergence, body)


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

    def slide_rhs(self) -> Callable:
        """rhs(t, x) of the 1-D Filippov sliding field on D at x,
        (Q_Y P_X - Q_X P_Y) / (Q_Y - Q_X) at y = 0 (_kernel)."""
        def body():
            p1, q1, p2, q2 = (_horner_body(p.coeffs) for p in
                              (self.X.P, self.X.Q, self.Y.P, self.Y.Q))
            return ["y = 0.0", f"q1 = {q1}", f"q2 = {q2}",
                    f"return ((q2*{p1} - q1*{p2})/(q2 - q1),)"]
        return _kernel(self, "slide", 1, body)


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
    g = _gcd(c, _polyder(c), rel_tol)  # _gcd trims c'
    if len(g) == 1:
        return c
    q, _ = _polydiv(c, g)
    return _trim(q, rel_tol * max(_norm(q), 1.0))


def _dyadic(values) -> tuple[list[int], int]:
    """Integers n_k and the least e >= 0 with values[k] = n_k / 2**e."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max((d.bit_length() for _, d in ratios), default=1) - 1
    return [n << e - d.bit_length() + 1 for n, d in ratios], e


def _descartes(p: list[int], a: float, b: float) -> tuple[int, int, int]:
    """The sign variations of (1 + t)**n p((b + a t) / (1 + t)), n the
    degree of p, which exceed the number of roots of p in the open (a, b)
    by an even number (Descartes' rule of signs), and the signs of p(a)
    and p(b), all exact."""
    (A, B), s = _dyadic((a, b))
    n = len(p) - 1
    q = [v << s * (n - k) for k, v in enumerate(p)]  # in z = 2**s x
    for i in range(n if A else 0):  # z = A + w
        for j in range(n - 1, i - 1, -1):
            q[j] += A * q[j + 1]
    q = [v * (B - A) ** k for k, v in enumerate(q)][::-1]  # w = (B - A) / y
    for i in range(n):  # y = 1 + t
        for j in range(n - 1, i - 1, -1):
            q[j] += q[j + 1]
    signs = [v > 0 for v in q if v]
    return (sum(u != v for u, v in zip(signs, signs[1:])),
            (q[-1] > 0) - (q[-1] < 0), (q[0] > 0) - (q[0] < 0))


def _sign_at(p: list[int]) -> Callable[[float], int]:
    """The exact sign at a float x of the integer polynomial p, ascending.
    Its floats, p over its largest power of two, have a Horner value v
    within (2n + 1) u S b**n (1 + O(n u)) of its value (Higham, Accuracy
    and Stability of Numerical Algorithms, 5.1; a rounding u per float;
    S >= 1 their sum of magnitudes, n the degree, b = max(1, |x|)).  Where
    v clears (n + 1) 2**-51 S b**n, twice that with room for underflows and
    for the cut of a coefficient past 1000 bits, v decides; elsewhere the
    integers do."""
    n, k = len(p) - 1, max(map(int.bit_length, p)) - 1
    s = max(k - 1000, 0)  # so that float(v >> s) cannot overflow
    fl = [math.ldexp(v >> s, s - k) for v in reversed(p)]
    bound = len(p) * 2 ** -51 * sum(map(abs, fl))

    def sign(x: float) -> int:
        v = 0.0
        for a in fl:
            v = v * x + a
        if not abs(v) > bound * max(abs(x), 1.0) ** n:  # or nan
            (X,), e = _dyadic((x,))  # v = 2**(n e) p(x)
            v = sum(a * X ** j << e * (n - j) for j, a in enumerate(p))
        return (v > 0) - (v < 0)
    return sign


def _polish_root(c: list[float], a: float, b: float, tol: float) -> float:
    """Newton's method kept inside the sign-change bracket [a, b], a step
    that would leave it replaced by bisection: the iterate of the first
    step no longer than tol, whose error is of the order of that step
    squared, or the bracket's end once it is two adjacent doubles."""
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
    """Smallest k >= 1 with |c^(k)(r)| above its zero threshold, zero_tol
    1e3 max(|c|, 1) max(1, |r|)**(deg - k), which grows with |r| as
    c^(k) does."""
    scale, b, deg = max(_norm(c), 1.0), max(1.0, abs(r)), len(c) - 1
    d = c
    for k in range(1, len(c)):
        d = _polyder(d)
        if abs(_polyval(r, d)) > zero_tol * (scale * b ** (deg - k)) * 1e3:
            return k
    return max(deg, 1)


def univariate_roots(c, window: tuple[float, float],
                     tols: Tolerances | None = None) -> list[tuple[float, int]]:
    """The real roots in the window, ascending with multiplicity, of the
    polynomial with ascending coefficients c (a sequence or an array):
    those of its float square-free part, isolated by bisection with exact
    Descartes counts (Vincent-Collins-Akritas).  A window end where that
    part is within the zero floor moves out once; a subwindow with no sign
    variation holds no root, and one with a single variation and opposite
    end signs holds one, which is bracketed by exact signs (_sign_at) and
    polished; any other splits at its midpoint, itself a root where the
    part is 0 there.  A polished root is kept only where the exact signs
    tols.root, or an ulp, to either side of it hold one."""
    WORK["root_isolations"] += 1
    tols = tols or default_tols()
    c = _trim([float(v) for v in c])
    if len(c) == 1:
        return []
    # up to unit size, as the zero floors are relative to max(|c|, 1)
    top = min(_norm(c), 1.0)
    c = [v / top for v in c]
    sf = _square_free(c, tols.coeff_zero)
    if len(sf) == 1:
        return []
    ends = [float(window[0]), float(window[1])]
    for k, way in ((0, -1.0), (1, 1.0)):
        if abs(_polyval(ends[k], sf)) <= tols.coeff_zero * _norm(c):
            ends[k] += way * max(tols.root * 1e-2,
                                 1e-14 * max(abs(ends[0]), abs(ends[1]), 1.0))
    ints = _dyadic(sf)[0]
    variations, sa, sb = _descartes(ints, *ends)
    if not variations and sa * sb:  # no root in the window or at its ends
        return []

    def isolate(lo: float, hi: float, v: int, slo: int, shi: int):
        if not v:  # no root in the open (lo, hi)
            return
        one = v == 1 and slo * shi < 0
        if one and hi - lo <= 1e-3:
            r = _polish_root(sf, lo, hi, tols.root)
            near = [sign(min(max(x, lo), hi))
                    for x in (min(r - tols.root, math.nextafter(r, lo)),
                              max(r + tols.root, math.nextafter(r, hi)))]
            if near[0] != near[1]:
                roots.append(r)
                return
        mid = 0.5 * (lo + hi)
        if hi - lo <= tols.root or not lo < mid < hi:  # or adjacent doubles
            roots.append(mid)
            return
        if one:  # the root is in the half whose end signs differ
            smid = sign(mid)
            vlo, vhi = smid == shi, smid == slo
        else:
            vlo, _, smid = _descartes(ints, lo, mid)
            vhi = _descartes(ints, mid, hi)[0]
        if not smid:
            roots.append(mid)
        isolate(lo, mid, vlo, slo, smid)
        isolate(mid, hi, vhi, smid, shi)

    roots = [x for x, s in zip(ends, (sa, sb)) if not s]
    sign = _sign_at(ints)
    isolate(*ends, variations, sa, sb)
    roots.sort()
    return [(r, _multiplicity(c, r, tols.coeff_zero)) for r in roots
            if window[0] - tols.root <= r <= window[1] + tols.root]


def roots_on_d(p: BivariatePolynomial, window: tuple[float, float],
               tols: Tolerances) -> tuple[tuple[float, int], ...]:
    """univariate_roots of x -> p(x, 0) in the window, without a zero test,
    cached on p for (window, tols) (_cached): the D census and every motion
    along D ask for the same ones."""
    return _cached(p, "_roots", (tuple(window), tols), lambda: tuple(
        univariate_roots(p.restrict_y0(), window, tols)))


def real_roots_on_line(p: BivariatePolynomial, window: tuple[float, float],
                       tols: Tolerances | None = None) -> list[tuple[float, int]]:
    """Real roots of x -> p(x, 0) inside the window, with multiplicity
    (roots_on_d).

    Raises IdenticallyZeroOnD when the restriction vanishes identically:
    the whole line is tangency and arc analysis is meaningless.
    """
    tols = tols or default_tols()
    c = p.restrict_y0().tolist()
    scale = max(_norm(c), max(map(abs, p.coeffs.values()), default=0.0), 1.0)
    if _norm(c) <= tols.coeff_zero * scale:
        raise IdenticallyZeroOnD("p(x,0) vanishes identically")
    return list(roots_on_d(p, window, tols))


def cauchy_bound(c) -> float:
    """Cauchy root bound 1 + max |a_i / a_n| for ascending coefficients."""
    c = _trim([float(v) for v in c])
    if len(c) <= 1:
        return 1.0
    return 1.0 + _norm(c[:-1]) / abs(c[-1])


def default_window(Z: PiecewiseField) -> tuple[float, float, float, float]:
    """The square window (-b, b, -b, b) that the commands use when neither
    a flag nor the spec gives one: b is 1 past the largest Cauchy bound of
    the four polynomials' restrictions to y = 0 and to x = 0."""
    b = 1.0
    for p in (Z.X.P, Z.X.Q, Z.Y.P, Z.Y.Q):
        for axis in (0, 1):
            c = p.restrict_y0() if axis == 0 else p.restrict_x(0.0)
            nonzero = np.abs(c) > 1e-12
            if len(c) > 1 and nonzero[1:].any():
                b = max(b, cauchy_bound(c))
    b += 1.0  # a margin past every root bound
    return (-b, b, -b, b)


# ---------------------------------------------------------------------------
# Common zeros in the plane.
# ---------------------------------------------------------------------------

def resultant_y(p: BivariatePolynomial, q: BivariatePolynomial
                ) -> np.ndarray:
    """Ascending x-coefficients of Res_y(p, q), the determinant of the
    Sylvester matrix of p and q as polynomials in y, each rounded once from
    its exact value.  The entries scale to integer polynomials in x
    (_dyadic); packed as their values at x = 2**b (Kronecker substitution),
    fraction-free (Bareiss) elimination takes the determinant with exact
    integer divisions, and b is large enough that its base-2**b digits are
    the resultant's coefficients.  When neither depends on y, p gets formal
    y-degree 1, so the result is q."""
    ints, exps = [], []
    for f in (p, q):
        ns, e = _dyadic(f.coeffs.values())
        ints.append(dict(zip(f.coeffs, ns)))
        exps.append(e)
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


def taylor_at(ps, x: float, y: float
              ) -> tuple[list[dict[tuple[int, int], int]], int]:
    """The coefficients of each p(x + u, y + v), p in ps, in u^k v^l,
    exactly, as integers over one power of two: (dicts of integers by
    (k, l), e), each coefficient being its integer over 2**e.  The doubles
    scale to integers (_dyadic), and so does the binomial expansion."""
    (X, Y), s = _dyadic((x, y))               # x = X / 2**s, y = Y / 2**s
    ints, t = _dyadic([v for p in ps for v in p.coeffs.values()])
    ints = iter(ints)                         # each a_ij 2**t
    deg = max(p.degree for p in ps)
    xs, ys = ([v ** k for k in range(deg + 1)] for v in (X, Y))
    out: list[dict[tuple[int, int], int]] = []
    for p in ps:
        out.append({})
        for (i, j), a in zip(p.coeffs, ints):
            for k in range(i + 1):
                ak = a * math.comb(i, k) * xs[i - k]
                for l in range(j + 1):
                    # the power of 2**-s is i - k + j - l
                    term = ak * math.comb(j, l) * ys[j - l] \
                        << s * (deg - i + k - j + l)
                    out[-1][(k, l)] = out[-1].get((k, l), 0) + term
    return out, t + s * deg


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
