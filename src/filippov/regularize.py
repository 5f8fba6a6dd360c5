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

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BadParameter, NoReturn, StepFailure
from .polys import (BivariatePolynomial, PiecewiseField, _field_state,
                    _generate, _horner_body, _horner_form, _kernel,
                    bracketed_root, common_zero_seeds, newton_zero)
from .tolerances import Tolerances, default_tols


@dataclass(frozen=True)
class TransitionFunction:
    """Monotone C^k ramp from 0 at t<=-1 to 1 at t>=1."""

    family: str          # "smoothstep" or "bump"
    parameter: int       # smoothstep order n (ignored for bump)
    _norm: float = field(default=1.0, repr=False)
    # smoothstep: coefficient k of int_0^t (1-s^2)^n ds, on t^(2k+1)
    _coeffs: tuple[float, ...] = field(default=(), repr=False)

    __getstate__ = _field_state

    @cached_property
    def _compiled(self) -> tuple[Callable, Callable]:
        """phi and phi', compiled once from sources(), with the clamps at
        +-1; the compiled functions stay out of the pickle state."""
        phi, dphi = self.sources()
        namespace = _generate(
            f"def phi(t):\n    if t <= -1.0: return 0.0\n"
            f"    if t >= 1.0: return 1.0\n    return {phi}\n"
            f"def dphi(t):\n    if t <= -1.0 or t >= 1.0: return 0.0\n"
            f"    return {dphi}\n", "phi", exp=math.exp)
        return namespace["phi"], namespace["dphi"]

    def __call__(self, t: float) -> float:
        return self._compiled[0](t)

    def derivative(self, t: float) -> float:
        return self._compiled[1](t)

    def sources(self) -> tuple[str, str]:
        """Expressions in t of phi and phi' inside (-1, 1), from which
        __call__, derivative and RegularizedField.rhs are all compiled:
        for the smoothstep, the Horner form of its odd polynomial in t * t;
        for the bump, the Gauss-Legendre sum of _bump_rule written out."""
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


def _bump_rule() -> tuple[tuple[float, float], ...]:
    """(u^2, w) pairs of the _BUMP_NODES-point Gauss-Legendre rule moved
    to [0, 1], int_0^t f(s) ds ~ t sum w f(t u), for the even bump.  Its
    integrand is smooth on [0, 1] and flat at 1, so the rule is within
    1e-14 of the integral for every t in [-1, 1].  A fixed table: the
    pairs ((1 + x) / 2) ** 2, w / 2 of numpy.polynomial.legendre.leggauss,
    written with repr, so the nodes do not depend on the numpy or LAPACK
    build and a bump loads no numpy.polynomial module."""
    return (
        (1.5597632895904423e-07, 0.001013405984438688),
        (4.325307821754121e-06, 0.0023563649634771922),
        (2.6071770998080807e-05, 0.0036949655816731954),
        (8.961271236920511e-05, 0.0050237785911438305),
        (0.00022949540100937092, 0.0063390832384077654),
        (0.0004901296569746913, 0.007637309298392605),
        (0.0009251854903858148, 0.008914950507103916),
        (0.0015968624925225138, 0.010168560364728707),
        (0.002575039252968369, 0.011394758471998792),
        (0.003936312453135099, 0.012590238810760691),
        (0.005762936550960999, 0.01375177837496232),
        (0.008141676115919563, 0.014876245750394475),
        (0.01116258388595341, 0.01596060950964799),
        (0.014917718487616853, 0.01700194636247314),
        (0.019499816478044982, 0.017997449025542178),
        (0.025000933924469015, 0.01894443378462155),
        (0.031511073127690574, 0.019840347726190338),
        (0.039116810315834735, 0.020682775617792207),
        (0.047899940181293794, 0.02146944641796774),
        (0.057936153006392314, 0.02219823939789348),
        (0.06929375982317977, 0.022867189858057076),
        (0.08203248058298246, 0.023474494424455945),
        (0.09620230967685825, 0.024018515909985418),
        (0.11184247235561103, 0.02449778772787826),
        (0.1289804846559669, 0.024911017845274944),
        (0.14763132835794132, 0.02525709226625452),
        (0.16779675128889907, 0.025535078034927668),
        (0.18946470196528165, 0.0257442257504903),
        (0.21260890613764932, 0.025883971587454938),
        (0.23718859129385925, 0.025953938815610155),
        (0.2631483635951071, 0.025953938815610155),
        (0.29041824008718586, 0.025883971587454938),
        (0.3189138373622266, 0.0257442257504903),
        (0.34853671616232446, 0.025535078034927668),
        (0.3791748797339706, 0.02525709226625452),
        (0.4107034220792286, 0.024911017845274944),
        (0.4429853206240592, 0.02449778772787826),
        (0.47587236625365614, 0.024018515909985418),
        (0.5092062221660608, 0.023474494424455945),
        (0.5428196015848867, 0.022867189858057076),
        (0.576537553064962, 0.02219823939789348),
        (0.6101788409352382, 0.02146944641796774),
        (0.6435574073643452, 0.020682775617792207),
        (0.6764839016171676, 0.019840347726190338),
        (0.7087672613058245, 0.01894443378462155),
        (0.7402163298337753, 0.017997449025542178),
        (0.7706414937942025, 0.01700194636247314),
        (0.7998563238182176, 0.01596060950964799),
        (0.8276792022780654, 0.014876245750394475),
        (0.8539349213368905, 0.01375177837496232),
        (0.8784562351000333, 0.012590238810760691),
        (0.9010853500630144, 0.011394758471998792),
        (0.9216753386701501, 0.010168560364728707),
        (0.940091461606809, 0.008914950507103916),
        (0.9562123854969707, 0.007637309298392605),
        (0.9699312841660621, 0.0063390832384077654),
        (0.9811568144649673, 0.0050237785911438305),
        (0.9898139669932198, 0.0036949655816731954),
        (0.9958448504266598, 0.0023563649634771922),
        (0.9992102792037649, 0.001013405984438688),
    )


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
        # twice int_0^1 exp(-1/(1-s^2)) ds by _bump_rule
        return TransitionFunction("bump", 0, 2 * sum(
            w * math.exp(-1 / (1 - uu)) for uu, w in _bump_rule()))
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
        """rhs(t, x, y) of the flow of the blend at (x, y); when divergence,
        rhs(t, x, y, d) with the trace of the exact Jacobian as a third
        component, d unread (polys._kernel).  It returns the floats of
        __call__ and jacobian: the same Horner forms, with phi and phi' as
        TransitionFunction.sources writes them.  The field is autonomous:
        t holds y/epsilon.  The kernel is cached on the piecewise field Z
        for (phi, epsilon, divergence), so every blend of Z with the same
        phi and epsilon shares it."""
        def body():
            # P, Q, and with the divergence dP/dx and dQ/dy, of X, then Y
            hx, hy = ([_horner_body(p.coeffs) for p in (
                F.P, F.Q, *(F.jacobian()[::3] if divergence else ()))]
                for F in (self.Z.X, self.Z.Y))
            side = "({0}, {1}, {2} + {3})" if divergence else "({0}, {1})"
            phi, dphi = self.phi.sources()
            eps = repr(float(self.epsilon))
            # w J_X + (1 - w) J_Y, plus phi'/eps (Q_X - Q_Y) at dQ/dy
            trace = (f", (w*{hx[2]} + (1 - w)*{hy[2]}) + ((w*{hx[3]} + (1 - w)"
                     f"*{hy[3]}) + (({dphi}) / {eps})*(qx - qy))"
                     ) if divergence else ""
            return [f"t = y / {eps}",
                    f"if t >= 1.0: return {side.format(*hx)}",
                    f"if t <= -1.0: return {side.format(*hy)}",
                    f"w = {phi}", f"px = {hx[0]}", f"qx = {hx[1]}",
                    f"py = {hy[0]}", f"qy = {hy[1]}",
                    f"return ((1 - w)*py + w*px, (1 - w)*qy + w*qx{trace})"]
        return _kernel(self.Z, (self.phi, self.epsilon, divergence),
                       2 + divergence, body, exp=math.exp)

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

    # F_i = base_i + w * jump_i, with the row-independent parts built once
    parts = [(in_t(b), in_t(a) - in_t(b))
             for a, b in ((R.Z.X.P, R.Z.Y.P), (R.Z.X.Q, R.Z.Y.Q))]
    found: list[tuple[float, float]] = []
    for t0, t1, w in rows:
        F = [base + BivariatePolynomial(w) * jump for base, jump in parts]
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
    point whose orbit fails to return by t = 50 or blows up is nan and
    fixes no other.  Each sign change between neighbours is a bracket whose ends
    are the evaluated points that fixed the two signs, refined by
    polys.bracketed_root to tols.root.

    The derivative at a fixed point comes from one run with the
    divergence integral: eta' = (R_x(start)/R_x(end)) exp(int div R)
    (flow._transition_factor), div R the trace of the exact Jacobian:
    w div X + (1-w) div Y + phi'(y/eps)/eps (Q_X - Q_Y).  Raises
    NotTransversal when R_x vanishes at either end of that run.
    """
    from .flow import _integrate, _transition_factor

    tols = tols or default_tols()
    R = RegularizedField(Z, phi, epsilon)

    def run(s: float, with_div: bool):
        """End state of the first return from (section_x, s), with the
        divergence integral as a third component when with_div."""
        # the return crosses x = section_x the way the orbit leaves it, so
        # the crossing at the start is refused
        ret = (1.0, 0.0, -section_x, -1 if R(section_x, s)[0] < 0 else 1,
               lambda t, st, way: t > 1e-12)
        *_, hit = _integrate(R.rhs(with_div),
                             [section_x, s] + ([0.0] if with_div else []),
                             50.0, tols, [ret])
        if hit is None:
            raise NoReturn(f"no return from s={s}")
        return hit[2]

    def eta(s: float) -> float:
        return float(run(s, False)[1])

    def eta_prime(s: float) -> float:
        # R_x is R's speed across the vertical section
        end = run(s, True)
        return _transition_factor(R, (section_x, s), (0.0, 1.0), end,
                                  (0.0, 1.0), float(end[2]), tols)

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
