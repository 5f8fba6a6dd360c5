"""Poincare compactification in (theta, rho) coordinates.

The planar field (P, Q) of degree m becomes, after the positive time
rescaling that removes (1+rho^2)^((1-m)/2),

    theta' = sum_i rho^i A_{m-i}(theta)
    rho'   = -rho sum_i rho^i R_{m-i}(theta)

with A_k = Q_k(c,s) c - P_k(c,s) s and R_k = P_k(c,s) c + Q_k(c,s) s built
from the homogeneous parts.  rho = 0 is the invariant circle at infinity.

A_m is homogeneous of degree m+1 in (cos, sin): t = cot(theta) turns it into
a polynomial a(t) of degree <= m+1 on each open half-circle, whose real
roots (Sturm-isolated, with exact multiplicities) are the singular points
at infinity.  The equator is free of them when a has no real root and a
nonzero leading coefficient (no zero at theta = 0, pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (DegenerateTopCoefficient, EvenDegree, NoConvergence,
                     WrongHalf)
from .polys import (
    BivariatePolynomial,
    PiecewiseField,
    PolyVectorField,
    cauchy_bound,
    homogeneous_part,
    partial,
    univariate_roots,
)
from .tolerances import Tolerances, default_tols


@dataclass(frozen=True)
class TrigCoefficient:
    """Evaluator for A_k or R_k with an exact chain-rule derivative."""

    k: int
    field_tag: str  # "X" or "Y"
    kind: str       # "A" or "R"
    p_k: BivariatePolynomial
    q_k: BivariatePolynomial
    _parts: tuple[BivariatePolynomial, ...] = field(default=None, repr=False)

    def __post_init__(self):
        parts = (partial(self.p_k, "x"), partial(self.p_k, "y"),
                 partial(self.q_k, "x"), partial(self.q_k, "y"))
        object.__setattr__(self, "_parts", parts)

    def __call__(self, theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        p, q = self.p_k(c, s), self.q_k(c, s)
        if self.kind == "A":
            return q * c - p * s
        return p * c + q * s

    def derivative(self, theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        p, q = self.p_k(c, s), self.q_k(c, s)
        px, py, qx, qy = (f(c, s) for f in self._parts)
        dp = -px * s + py * c   # d/dtheta P_k(cos, sin)
        dq = -qx * s + qy * c
        if self.kind == "A":
            return dq * c - q * s - dp * s - p * c
        return dp * c - p * s + dq * s + q * c


def trig_coefficients(X: PolyVectorField, field_tag: str = "X"
                      ) -> tuple[list[TrigCoefficient], list[TrigCoefficient]]:
    """(A_k, R_k) evaluators for k = 0..m."""
    As, Rs = [], []
    for k in range(X.m + 1):
        pk = homogeneous_part(X.P, k)
        qk = homogeneous_part(X.Q, k)
        As.append(TrigCoefficient(k, field_tag, "A", pk, qk))
        Rs.append(TrigCoefficient(k, field_tag, "R", pk, qk))
    return As, Rs


@dataclass(frozen=True)
class TrigField:
    """The two-piece compactified field of Z on the (theta, rho) strip."""

    m: int
    A1: list[TrigCoefficient]
    R1: list[TrigCoefficient]
    A2: list[TrigCoefficient]
    R2: list[TrigCoefficient]

    def _eval(self, A, R, theta: float, rho: float) -> tuple[float, float]:
        th = sum(rho**i * A[self.m - i](theta) for i in range(self.m + 1))
        rr = sum(rho**i * R[self.m - i](theta) for i in range(self.m + 1))
        return (th, -rho * rr)

    def slope(self, A, R, theta: float, rho: float) -> tuple[float, float]:
        """d(rho)/d(theta) = rho'/theta' of the piece with coefficients
        (A, R) and its rho-derivative, from one evaluation of each
        coefficient: theta' and rho' are polynomials in rho."""
        a = [A[self.m - i](theta) for i in range(self.m + 1)]
        r = [R[self.m - i](theta) for i in range(self.m + 1)]
        th = sum(rho**i * v for i, v in enumerate(a))
        rr = sum(rho**i * v for i, v in enumerate(r))
        dth = sum(i * rho**(i - 1) * v for i, v in enumerate(a) if i)
        drr = sum(i * rho**(i - 1) * v for i, v in enumerate(r) if i)
        f = -rho * rr / th
        return f, (-rr - rho * drr - f * dth) / th

    def eval_upper(self, theta: float, rho: float) -> tuple[float, float]:
        """X-piece, valid for theta in [0, pi] mod 2*pi."""
        if not _in_upper(theta):
            raise WrongHalf(f"theta={theta} outside [0, pi]")
        return self._eval(self.A1, self.R1, theta, rho)

    def eval_lower(self, theta: float, rho: float) -> tuple[float, float]:
        """Y-piece, valid for theta in [pi, 2*pi] mod 2*pi."""
        if not _in_lower(theta):
            raise WrongHalf(f"theta={theta} outside [pi, 2pi]")
        return self._eval(self.A2, self.R2, theta, rho)


def _in_upper(theta: float) -> bool:
    t = theta % (2 * math.pi)
    return t <= math.pi + 1e-15


def _in_lower(theta: float) -> bool:
    t = theta % (2 * math.pi)
    return t >= math.pi - 1e-15 or t <= 1e-15 or t >= 2 * math.pi - 1e-15


def compactified_field(Z: PiecewiseField) -> TrigField:
    A1, R1 = trig_coefficients(
        PolyVectorField(Z.X.P, Z.X.Q, Z.m), "X")
    A2, R2 = trig_coefficients(
        PolyVectorField(Z.Y.P, Z.Y.Q, Z.m), "Y")
    return TrigField(Z.m, A1, R1, A2, R2)


def pullback_check(Z: PiecewiseField, theta: float, rho: float,
                   tols: Tolerances | None = None) -> float:
    """Angle between the trig-field value and the chain-rule transform of
    the planar field at (cos(theta)/rho, sin(theta)/rho).

    The two differ only by the positive factor absorbed into time
    rescaling, so the angle should vanish for a correct construction.
    """
    tols = tols or default_tols()
    if rho <= 0:
        raise ValueError("rho must be positive")
    s = math.sin(theta)
    if abs(s) <= tols.sign:
        raise ValueError("sin(theta) too close to zero: point lies on D")
    x, y = math.cos(theta) / rho, s / rho
    planar = Z.X(x, y) if y > 0 else Z.Y(x, y)
    r2 = x * x + y * y
    dtheta = (x * planar[1] - y * planar[0]) / r2
    drho = -(x * planar[0] + y * planar[1]) / (r2 ** 1.5)
    tf = compactified_field(Z)
    v = tf.eval_upper(theta % (2 * math.pi), rho) if y > 0 else \
        tf.eval_lower(theta % (2 * math.pi), rho)
    cross = v[0] * drho - v[1] * dtheta
    dot = v[0] * dtheta + v[1] * drho
    return abs(math.atan2(cross, dot))


class Hyperbolicity(Enum):
    YES = "yes"
    NO = "no"
    BORDERLINE = "borderline"


@dataclass(frozen=True)
class InfinitySingularity:
    theta: float
    field_tag: str  # "X", "Y" or "FilippovPoint"
    hyperbolic: Hyperbolicity
    certificates: dict[str, float]


def _top_scale(coef: TrigCoefficient) -> float:
    return max(max((abs(v) for v in coef.p_k.coeffs.values()), default=0.0),
               max((abs(v) for v in coef.q_k.coeffs.values()), default=0.0),
               1.0)


def _cot_poly(A: TrigCoefficient) -> np.ndarray:
    """Ascending coefficients of a(t) = t Q_k(t, 1) - P_k(t, 1), so that
    A_k(theta) = sin(theta)^(k+1) a(cot theta) on both open half-circles."""
    a = np.zeros(A.k + 2)
    for (i, _), v in A.q_k.coeffs.items():
        a[i + 1] += v
    for (i, _), v in A.p_k.coeffs.items():
        a[i] -= v
    return a


def _real_roots(a: np.ndarray, tols: Tolerances) -> list[tuple[float, int]]:
    """Every real root of a with its multiplicity, by Sturm isolation."""
    bound = cauchy_bound(a)
    return univariate_roots(a, (-bound, bound), tols)


def infinity_singularities(Z: PiecewiseField,
                           tols: Tolerances | None = None
                           ) -> list[InfinitySingularity]:
    """Singular points on the circle at infinity.

    Zeros of the top A-coefficient of each piece in its open half (real
    roots of its cot-polynomial; a multiple root is never hyperbolic), plus
    the two D-on-S1 points at theta = 0 and pi carrying the hyperbolicity
    certificate of the sliding field there.
    """
    tols = tols or default_tols()
    tf = compactified_field(Z)
    A1m, R1m = tf.A1[Z.m], tf.R1[Z.m]
    A2m, R2m = tf.A2[Z.m], tf.R2[Z.m]

    for A in (A1m, A2m):
        if np.max(np.abs(_cot_poly(A))) <= tols.sign * _top_scale(A):
            raise DegenerateTopCoefficient(
                f"top coefficient A_{{{A.field_tag},{Z.m}}} vanishes identically")

    out: list[InfinitySingularity] = []
    for A, R, tag, lo in ((A1m, R1m, "X", 0.0), (A2m, R2m, "Y", math.pi)):
        for r, mult in _real_roots(_cot_poly(A), tols):
            t = lo + math.atan2(1.0, r)   # cot(t) = r in (lo, lo + pi)
            dA = A.derivative(t)
            Rv = R(t)
            cert = {"A": A(t), "dA": dA, "R": Rv}
            hyp = Hyperbolicity.YES if mult == 1 and abs(dA * Rv) > tols.sign \
                else Hyperbolicity.NO
            out.append(InfinitySingularity(t, tag, hyp, cert))

    e4 = eq4_value(Z)
    for t in (0.0, math.pi):
        if abs(A1m(t)) > tols.sign and abs(A2m(t)) > tols.sign:
            hyp = Hyperbolicity.YES if abs(e4) > tols.sign else Hyperbolicity.NO
            out.append(InfinitySingularity(
                t, "FilippovPoint", hyp,
                {"eq4": e4, "A1m": A1m(t), "A2m": A2m(t)}))
    out.sort(key=lambda s: s.theta)
    return out


def eq4_value(Z: PiecewiseField) -> float:
    """Hyperbolicity certificate for the D-on-S1 Filippov points:
    P_{1,m}(1,0) Q_{2,m}(1,0) - Q_{1,m}(1,0) P_{2,m}(1,0)."""
    m = Z.m
    p1 = homogeneous_part(Z.X.P, m)(1.0, 0.0)
    q1 = homogeneous_part(Z.X.Q, m)(1.0, 0.0)
    p2 = homogeneous_part(Z.Y.P, m)(1.0, 0.0)
    q2 = homogeneous_part(Z.Y.Q, m)(1.0, 0.0)
    return p1 * q2 - q1 * p2


class S1Status(Enum):
    ELEMENTARY = "Elementary"
    NON_ELEMENTARY = "NonElementary"
    HAS_SINGULARITIES = "HasSingularitiesOnS1"


@dataclass(frozen=True)
class S1Report:
    status: S1Status
    mu: float | None = None
    sigma: int | None = None
    derivative: float | None = None


def s1_elementarity(Z: PiecewiseField,
                    tols: Tolerances | None = None) -> S1Report:
    """The equator integral mu, the orientation sign and the Poincare-map
    derivative e^{sigma mu} for S^1 as a type-1 closed poly-trajectory.

    Requires odd m; when the top A-coefficients vanish somewhere on the
    equator no integral exists and the status reports the obstruction.
    mu is the integral over [0, pi] of R1/A1 + R2/A2 by the trapezoidal
    rule (_periodic_integral), which raises NoConvergence when a zero of
    A1 or A2 lies too close to the real axis for it to settle.
    """
    tols = tols or default_tols()
    if Z.m % 2 == 0:
        raise EvenDegree("S^1 always carries singular points for even degree")
    tf = compactified_field(Z)
    A1m, R1m = tf.A1[Z.m], tf.R1[Z.m]
    A2m, R2m = tf.A2[Z.m], tf.R2[Z.m]

    # a real root of a is a zero of A_m inside a half-circle, a vanishing
    # leading coefficient one at theta = 0 and pi; either is a pole of the
    # integrand below
    for A in (A1m, A2m):
        a = _cot_poly(A)
        if abs(a[-1]) <= tols.sign * _top_scale(A) or _real_roots(a, tols):
            return S1Report(S1Status.HAS_SINGULARITIES)

    def integrand(t):
        return R1m(t) / A1m(t), R2m(t) / A2m(t)

    mu = _periodic_integral(integrand, math.pi)
    sigma = -1 if A1m(0.5 * math.pi) > 0 else 1
    derivative = math.exp(sigma * mu)
    status = S1Status.ELEMENTARY if abs(mu) > tols.mu else S1Status.NON_ELEMENTARY
    return S1Report(status, mu, sigma, derivative)


# the trapezoidal rule of _periodic_integral starts with _FIRST_NODES and
# gives up after _MAX_NODES
_FIRST_NODES, _MAX_NODES = 16, 1 << 13


def _periodic_integral(terms, period: float) -> float:
    """Integral over [0, period] of the sum of the values of terms(t), a
    tuple, for a sum that is analytic and periodic there, by the
    trapezoidal rule, which converges geometrically for such a sum
    (Trefethen and Weideman, SIAM Review 56, 2014).  Each round doubles
    the nodes, reusing the sums of the last one; the integral is the first
    sum that agrees with the one before to 1e-15 of the integral of the
    sum of the terms' absolute values, the scale of its rounding.  Raises
    NoConvergence when _MAX_NODES nodes do not get there: a pole close to
    the real axis slows the rule down without bound."""
    def rule(nodes):  # the sums of the values and of their sizes
        rows = [terms(t) for t in nodes]
        return (math.fsum(sum(row) for row in rows),
                math.fsum(sum(map(abs, row)) for row in rows))

    n, h = _FIRST_NODES, period / _FIRST_NODES
    total, size = (h * v for v in rule(k * h for k in range(n)))
    while n < _MAX_NODES:
        h /= 2
        value, scale = rule((2 * k + 1) * h for k in range(n))
        n *= 2
        last, total = total, total / 2 + h * value
        size = size / 2 + h * scale
        if abs(total - last) <= 1e-15 * size:
            return total
    raise NoConvergence(f"the trapezoidal rule did not settle with {n} "
                        f"nodes")
