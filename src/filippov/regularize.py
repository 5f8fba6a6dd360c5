"""The phi_eps regularization family of a piecewise field.

Z_eps(q) = (1 - phi(y/eps)) Y(q) + phi(y/eps) X(q) with a monotone
transition function phi: identically 0 left of -1, identically 1 right
of 1.  Emergent singularities live in the band |y| < eps.  In t = y/eps
the blend is a polynomial wherever its weight is: the smoothstep phi on
the whole band, the bump's chords row by row.  Its zeros are seeded by
the resultant that eliminates x and polished by the damped Newton of
polys.newton_zero on the true field, with the exact Jacobian from the
pieces' polynomial partials and phi', as is the divergence that gives a
regularized cycle its return derivative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import BadParameter, NoReturn, NotTransversal, StepFailure
from .polys import (BivariatePolynomial, PiecewiseField, _field_state,
                    _horner_body, _horner_form, _kernel, bracketed_root,
                    common_zero_seeds, newton_zero)
from .tolerances import Tolerances, default_tols


@dataclass(frozen=True)
class TransitionFunction:
    """Monotone C^k ramp from 0 at t<=-1 to 1 at t>=1."""

    family: str          # "smoothstep" or "bump"
    parameter: int       # smoothstep order n (ignored for bump)
    _norm: float = field(default=1.0, repr=False)
    # smoothstep: coefficient k of int_0^t (1-s^2)^n ds, on t^(2k+1)
    _coeffs: tuple[float, ...] = field(default=(), repr=False)

    def __call__(self, t: float) -> float:
        if t <= -1.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        if self.family == "smoothstep":
            s, v = t * t, 0.0
            for c in reversed(self._coeffs):
                v = v * s + c
            return 0.5 + t * v / self._norm
        return 0.5 + _bump_integral(t) / self._norm

    def derivative(self, t: float) -> float:
        if t <= -1.0 or t >= 1.0:
            return 0.0
        if self.family == "smoothstep":
            return (1 - t * t) ** self.parameter / self._norm
        return math.exp(-1.0 / (1.0 - t * t)) / self._norm

    def sources(self) -> tuple[str, str]:
        """Expressions in t of phi and phi' inside (-1, 1), term for term
        those of __call__ and derivative: for the bump, the Gauss-Legendre
        sum of _bump_integral written out."""
        norm = repr(float(self._norm))
        if self.family == "bump":
            terms = " + ".join(f"{w!r} * exp(-1.0 / (1.0 - (t * t) * {uu!r}))"
                               for uu, w in _bump_rule())
            return (f"0.5 + t * ({terms}) / {norm}",
                    f"exp(-1.0 / (1.0 - t * t)) / {norm}")
        horner = _horner_form(dict(enumerate(map(repr, self._coeffs))),
                              "(t * t)")
        return (f"0.5 + t * ({horner}) / {norm}",
                f"(1 - t * t) ** {self.parameter} / {norm}")


# nodes of the Gauss-Legendre rule of the bump's integral (_bump_rule)
_BUMP_NODES = 60


@functools.cache
def _bump_rule() -> tuple[tuple[float, float], ...]:
    """(u^2, w) pairs of the _BUMP_NODES-point Gauss-Legendre rule moved
    to [0, 1], int_0^t f(s) ds ~ t sum w f(t u), for the even bump.  Its
    integrand is smooth on [0, 1] and flat at 1, so the rule is within
    1e-14 of the integral for every t in [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(_BUMP_NODES)
    return tuple((((1.0 + a) / 2) ** 2, b / 2)
                 for a, b in zip(x.tolist(), w.tolist()))


def _bump_integral(t: float) -> float:
    """int_0^t exp(-1/(1-s^2)) ds by _bump_rule, summed term by term in
    the order of the expression TransitionFunction.sources writes."""
    total, tt = 0.0, t * t
    for uu, w in _bump_rule():
        total += w * math.exp(-1.0 / (1.0 - tt * uu))
    return t * total


def make_transition(family: str, parameter: int = 1) -> TransitionFunction:
    """smoothstep of order n = parameter: phi' proportional to (1-t^2)^n
    (C^n at the seams, (2+3t-t^3)/4 for n=1); bump: normalized integral
    of exp(-1/(1-t^2)), C-infinity."""
    if family == "smoothstep":
        n = int(parameter)
        if n < 1:
            raise BadParameter("smoothstep order must be >= 1")
        coeffs = tuple((-1) ** k * math.comb(n, k) / (2 * k + 1)
                       for k in range(n + 1))
        return TransitionFunction("smoothstep", n, 2 * math.fsum(coeffs),
                                  coeffs)
    if family == "bump":
        return TransitionFunction("bump", 0, 2 * _bump_integral(1.0))
    raise BadParameter(f"unknown transition family {family!r}")


@dataclass(frozen=True)
class RegularizedField:
    Z: PiecewiseField
    phi: TransitionFunction
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        t = y / self.epsilon
        if t >= 1.0:
            return self.Z.X(x, y)
        if t <= -1.0:
            return self.Z.Y(x, y)
        w = self.phi(t)
        vx = self.Z.X(x, y)
        vy = self.Z.Y(x, y)
        return ((1 - w) * vy[0] + w * vx[0], (1 - w) * vy[1] + w * vx[1])

    __getstate__ = _field_state

    def rhs(self, divergence: bool = False) -> Callable:
        """rhs(t, s) of the flow of the blend at (s[0], s[1]), with the
        trace of the exact Jacobian as a third component when divergence
        (polys._kernel).  It returns the floats of __call__ and jacobian:
        the same Horner forms, with phi and phi' as TransitionFunction.
        sources writes them.  The field is autonomous: t holds y/epsilon."""
        def body():
            # P, Q, dP/dx and dQ/dy of X, then of Y
            hx, hy = ([_horner_body(p.coeffs) for p in
                       (F.P, F.Q, F.jacobian()[0], F.jacobian()[3])]
                      for F in (self.Z.X, self.Z.Y))
            side = "({0}, {1}, {2} + {3})" if divergence else "({0}, {1})"
            phi, dphi = self.phi.sources()
            eps = repr(float(self.epsilon))
            # w J_X + (1 - w) J_Y, plus phi'/eps (Q_X - Q_Y) at dQ/dy
            trace = (f", (w*{hx[2]} + (1 - w)*{hy[2]}) + ((w*{hx[3]} + (1 - w)"
                     f"*{hy[3]}) + (({dphi}) / {eps})*(qx - qy))"
                     ) if divergence else ""
            return ["x = s[0]", "y = s[1]", f"t = y / {eps}",
                    f"if t >= 1.0: return {side.format(*hx)}",
                    f"if t <= -1.0: return {side.format(*hy)}",
                    f"w = {phi}", f"px = {hx[0]}", f"qx = {hx[1]}",
                    f"py = {hy[0]}", f"qy = {hy[1]}",
                    f"return ((1 - w)*py + w*px, (1 - w)*qy + w*qx{trace})"]
        return _kernel(self, divergence, body, exp=math.exp)

    def jacobian(self, x: float, y: float) -> np.ndarray:
        """Exact Jacobian of the blend: w J_X + (1 - w) J_Y with
        w = phi(y/eps), plus phi'(y/eps)/eps (X - Y) in the y column."""
        t = y / self.epsilon
        if t >= 1.0:
            return self.Z.X.jacobian_at(x, y)
        if t <= -1.0:
            return self.Z.Y.jacobian_at(x, y)
        w = self.phi(t)
        j = w * self.Z.X.jacobian_at(x, y) \
            + (1 - w) * self.Z.Y.jacobian_at(x, y)
        dw = self.phi.derivative(t) / self.epsilon
        vx, vy = self.Z.X(x, y), self.Z.Y(x, y)
        j[0, 1] += dw * (vx[0] - vy[0])
        j[1, 1] += dw * (vx[1] - vy[1])
        return j


class SingularityType(Enum):
    SADDLE = "Saddle"
    NODE = "Node"
    FOCUS = "Focus"
    BORDERLINE = "Borderline"


@dataclass(frozen=True)
class EmergentSingularity:
    position: tuple[float, float]
    jacobian: np.ndarray
    eigenvalues: tuple[complex, complex]
    type: SingularityType


def _classify_eigs(eigs: np.ndarray, tol: float) -> SingularityType:
    l1, l2 = eigs
    if abs(l1.imag) > tol or abs(l2.imag) > tol:
        if abs(l1.real) > tol:
            return SingularityType.FOCUS
        return SingularityType.BORDERLINE
    r1, r2 = l1.real, l2.real
    if abs(r1) <= tol or abs(r2) <= tol:
        return SingularityType.BORDERLINE
    if r1 * r2 < 0:
        return SingularityType.SADDLE
    return SingularityType.NODE


def emergent_singularities(R: RegularizedField,
                           x_window: tuple[float, float],
                           tols: Tolerances | None = None
                           ) -> list[EmergentSingularity]:
    """All zeros of Z_eps in the band x in window, |y| <= eps.

    In t = y/eps the blend is F_i(x, t) = Y_i(x, eps t) + w(t) (X_i -
    Y_i)(x, eps t), a polynomial when w is: phi itself for smoothstep, the
    chord of phi on each of 40 rows of height 1/20 for the bump.  Each is
    searched with half a row of margin, so no window ends at t = +-1, where
    the resultant can have near-multiple roots.  The seeds are the common
    zeros of F_1 and F_2 (polys.common_zero_seeds, eliminating x, which phi
    leaves alone); each starts a damped Newton run on the true field with
    its exact Jacobian, and converged zeros are merged when closer than
    10 * tol_root.  Raises CommonFactor when F_1 and F_2 share a factor.
    """
    tols = tols or default_tols()
    eps, phi = R.epsilon, R.phi
    step = eps / 20.0
    lo, hi = x_window[0] - step, x_window[1] + step
    if phi.family == "smoothstep":
        w = {(2 * k + 1, 0): c / phi._norm for k, c in enumerate(phi._coeffs)}
        rows = [(-1.0, 1.0, {(0, 0): 0.5, **w})]
    else:
        ts = [-1.0 + k / 20 for k in range(41)]
        ws = [phi(t) for t in ts]
        rows = [(t0, t1, {(0, 0): w0 - (w1 - w0) / (t1 - t0) * t0,
                          (1, 0): (w1 - w0) / (t1 - t0)})
                for t0, t1, w0, w1 in zip(ts, ts[1:], ws, ws[1:])]

    def in_t(p: BivariatePolynomial) -> BivariatePolynomial:
        # p(x, eps t), with t as the first variable
        return BivariatePolynomial({(j, i): v * eps ** j
                                    for (i, j), v in p.coeffs.items()})

    found: list[tuple[float, float]] = []
    for t0, t1, w in rows:
        F = [in_t(b) + BivariatePolynomial(w) * (in_t(a) - in_t(b))
             for a, b in ((R.Z.X.P, R.Z.Y.P), (R.Z.X.Q, R.Z.Y.Q))]
        for t, x in common_zero_seeds(*F, (t0 - 1 / 40, t1 + 1 / 40),
                                      (lo, hi), tols):
            sol = newton_zero(R, R.jacobian, x, eps * t, tols)
            if sol is None:
                continue
            x, y = sol
            if not (lo <= x <= hi and abs(y) <= eps + step):
                continue
            if any(math.hypot(x - a, y - b) <= 10 * tols.root
                   for a, b in found):
                continue
            found.append((x, y))

    out = []
    for x, y in sorted(found):
        j = R.jacobian(x, y)
        eigs = np.linalg.eigvals(j)
        out.append(EmergentSingularity(
            (x, y), j, (complex(eigs[0]), complex(eigs[1])),
            _classify_eigs(eigs, tols.sign)))
    return out


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    singularities: list[EmergentSingularity]


def epsilon_sweep(Z: PiecewiseField, phi: TransitionFunction,
                  x_window: tuple[float, float], eps_list: list[float],
                  tols: Tolerances | None = None) -> list[SweepRow]:
    """One emergent-singularity census per epsilon, descending."""
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    if not all(math.isfinite(e) and e > 0 for e in eps_list):
        raise ValueError("epsilon must be positive and finite")
    if list(eps_list) != sorted(eps_list, reverse=True):
        raise ValueError("eps_list must be descending")
    rows = []
    for eps in eps_list:
        R = RegularizedField(Z, phi, eps)
        rows.append(SweepRow(eps, emergent_singularities(R, x_window, tols)))
    return rows


@dataclass(frozen=True)
class RegularizedCycle:
    epsilon: float
    section_value: float
    return_derivative: float
    hyperbolic: bool


def regularized_cycle_search(Z: PiecewiseField, phi: TransitionFunction,
                             epsilon: float, section_x: float,
                             s_range: tuple[float, float],
                             horizon: float = 50.0,
                             tols: Tolerances | None = None
                             ) -> list[RegularizedCycle]:
    """Limit cycles of the regularized field crossing the vertical section
    x=section_x, y in s_range: fixed points of the smooth first-return map
    eta, where g(s) = eta(s) - s changes sign on a grid of 24 points.

    On a transversal segment eta is increasing (Perko, Differential
    Equations and Dynamical Systems, ch. 3), so g(s) > 0 makes g > 0 on
    all of [s, eta(s)), and g(s) < 0 makes g < 0 on (eta(s), s].  The scan
    evaluates the lowest and the highest grid point not yet known, in
    turn, and gives each such sign to the unknown grid points next to it
    that lie in that interval, up to the first at which R_x does not have
    the evaluated point's sign or is within tols.sign of zero.  A grid
    point whose orbit fails to return or blows up is nan and fixes no
    other.  Each sign change between neighbours is a bracket whose ends
    are the evaluated points that fixed the two signs, refined by
    polys.bracketed_root to tols.root.

    The derivative at a fixed point comes from one run with the
    divergence integral: eta' = (R_x(start)/R_x(end)) exp(int div R),
    div R the trace of the exact Jacobian: w div X + (1-w) div Y +
    phi'(y/eps)/eps (Q_X - Q_Y).  Raises NotTransversal when R_x vanishes
    at either end of that run.
    """
    from .flow import _integrate

    tols = tols or default_tols()
    R = RegularizedField(Z, phi, epsilon)

    def run(s: float, with_div: bool):
        """End state of the first return from (section_x, s), with the
        divergence integral as a third component when with_div."""
        # the return crosses x = section_x the way the orbit leaves it, so
        # the crossing at the start is refused
        ret = (1.0, 0.0, -section_x, -1 if R(section_x, s)[0] < 0 else 1,
               lambda t, st, way: t > 1e-12)
        _, hit = _integrate(R.rhs(with_div),
                            [section_x, s] + ([0.0] if with_div else []),
                            horizon, tols, [ret])
        if hit is None:
            raise NoReturn(f"no return from s={s}")
        return hit[2]

    def eta(s: float) -> float:
        return float(run(s, False)[1])

    def eta_prime(s: float) -> float:
        end = run(s, True)
        r0 = R(section_x, s)[0]
        r1 = R(float(end[0]), float(end[1]))[0]
        if abs(r0) <= tols.sign or abs(r1) <= tols.sign:
            raise NotTransversal("section parallel to the regularized field")
        return (r0 / r1) * math.exp(float(end[2]))

    ss = np.linspace(*s_range, 24).tolist()
    vx = [R(section_x, s)[0] for s in ss]
    gs: dict[int, float] = {}  # evaluated grid point -> g there
    fixed_by = [0] * len(ss)   # grid point -> evaluated point of its sign
    lo, hi = 0, len(ss) - 1    # the grid points still unknown
    way = 1                    # evaluate at lo (1) or at hi (-1)
    while lo <= hi:
        k = j = lo if way == 1 else hi
        try:
            s_ret = eta(ss[k])
        except (NoReturn, StepFailure):
            s_ret = math.nan
        gs[k], fixed_by[k] = s_ret - ss[k], k
        # g * way > 0 holds on to the return, where R_x keeps its sign
        while gs[k] * way > 0 and lo <= j + way <= hi \
                and (s_ret - ss[j + way]) * way > 0 \
                and abs(vx[j + way]) > tols.sign \
                and (vx[j + way] < 0) == (vx[k] < 0):
            j += way
            fixed_by[j] = k
        if way == 1:
            lo = j + 1
        else:
            hi = j - 1
        way = -way

    cycles = []
    for i, j in zip(fixed_by, fixed_by[1:]):
        a, b = gs[i], gs[j]
        if math.isnan(a) or math.isnan(b) or a * b > 0:
            continue
        s_star = bracketed_root(lambda s: eta(s) - s, ss[i], a, ss[j], b,
                                tols.root)
        if any(abs(s_star - c.section_value) < 1e-8 for c in cycles):
            continue
        d = eta_prime(s_star)
        cycles.append(RegularizedCycle(epsilon, float(s_star), float(d),
                                       abs(d - 1.0) > tols.sign))
    return cycles
