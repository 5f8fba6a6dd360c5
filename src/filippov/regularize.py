"""The phi_eps regularization family of a piecewise field.

Z_eps(q) = (1 - phi(y/eps)) Y(q) + phi(y/eps) X(q) with a monotone
transition function phi: identically 0 left of -1, identically 1 right
of 1.  Emergent singularities live in the band |y| < eps and are located
by sign-grid bracketing plus damped Newton.

The census grid is evaluated with numpy: every polynomial once per strip
of x values through BivariatePolynomial.grid, and phi once per grid row,
because t = y/eps is shared by the row.  Strips of a fixed width bound
the memory whatever eps is.  Newton and the Jacobians stay scalar.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import quad

from .errors import BadParameter, NoReturn, NotTransversal, StepFailure
from .polys import PiecewiseField
from .tolerances import Tolerances, default_tols


@dataclass(frozen=True)
class TransitionFunction:
    """Monotone C^k ramp from 0 at t<=-1 to 1 at t>=1."""

    family: str          # "smoothstep" or "bump"
    parameter: int       # smoothstep order n (ignored for bump)
    smoothness: str      # "C1", "Cn" or "Cinf"
    _norm: float = field(default=1.0, repr=False)

    def __call__(self, t: float) -> float:
        if t <= -1.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        if self.family == "smoothstep":
            n = self.parameter
            val, _ = quad(lambda s: (1 - s * s) ** n, 0.0, t) if n > 3 else \
                (self._smoothstep_int(t), None)
            return 0.5 + val / self._norm
        val, _ = quad(lambda s: math.exp(-1.0 / (1.0 - s * s)), 0.0, t)
        return 0.5 + val / self._norm

    def _smoothstep_int(self, t: float) -> float:
        # closed forms of int_0^t (1-s^2)^n ds for small n
        n = self.parameter
        if n == 1:
            return t - t**3 / 3
        if n == 2:
            return t - 2 * t**3 / 3 + t**5 / 5
        return t - t**3 + 3 * t**5 / 5 - t**7 / 7  # n == 3

    def derivative(self, t: float) -> float:
        if t <= -1.0 or t >= 1.0:
            return 0.0
        if self.family == "smoothstep":
            return (1 - t * t) ** self.parameter / self._norm
        return math.exp(-1.0 / (1.0 - t * t)) / self._norm


def make_transition(family: str, parameter: int = 1) -> TransitionFunction:
    """SmoothstepN(n): phi' proportional to (1-t^2)^n (C^n at the seams,
    (2+3t-t^3)/4 for n=1); AnalyticBump: normalized integral of
    exp(-1/(1-t^2)), C-infinity."""
    if family in ("smoothstep", "smoothstep1", "SmoothstepN"):
        n = int(parameter)
        if n < 1:
            raise BadParameter("smoothstep order must be >= 1")
        if n <= 3:
            tf = TransitionFunction("smoothstep", n, f"C{n}")
            norm = 2 * tf._smoothstep_int(1.0)
        else:
            tf = TransitionFunction("smoothstep", n, f"C{n}")
            norm = 2 * quad(lambda s: (1 - s * s) ** n, 0.0, 1.0)[0]
        object.__setattr__(tf, "_norm", norm)
        return tf
    if family in ("bump", "AnalyticBump"):
        tf = TransitionFunction("bump", 0, "Cinf")
        norm = 2 * quad(lambda s: math.exp(-1.0 / (1.0 - s * s)), 0.0, 1.0)[0]
        object.__setattr__(tf, "_norm", norm)
        return tf
    raise BadParameter(f"unknown transition family {family!r}")


_STRIP = 512  # grid cells along x per strip of the census


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

    def strips(self, xs: np.ndarray, ys: np.ndarray
               ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Both components on the grid xs x ys, one strip at a time: yields
        (s, U, V) with U[i, j], V[i, j] the field at (xs[s + i], ys[j]) for
        the strip xs[s:s + _STRIP + 1]; neighbouring strips share a column.
        phi is called once per y for the whole walk; outside the band it is
        exactly 0 or 1, so the blend of __call__ gives the piece itself."""
        w = np.array([self.phi(y / self.epsilon) for y in ys])
        X, Y = self.Z.X, self.Z.Y
        for s in range(0, len(xs) - 1, _STRIP):
            sx = xs[s:s + _STRIP + 1]
            yield (s, (1 - w) * Y.P.grid(sx, ys) + w * X.P.grid(sx, ys),
                   (1 - w) * Y.Q.grid(sx, ys) + w * X.Q.grid(sx, ys))

    def jacobian_fd(self, x: float, y: float, h: float) -> np.ndarray:
        j = np.empty((2, 2))
        for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            fp = self(x + dx, y + dy)
            fm = self(x - dx, y - dy)
            j[0, col] = (fp[0] - fm[0]) / (2 * h)
            j[1, col] = (fp[1] - fm[1]) / (2 * h)
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


def _newton(R: RegularizedField, x0: float, y0: float,
            tols: Tolerances) -> tuple[float, float] | None:
    h = 1e-6 * max(1.0, R.epsilon)
    x, y = x0, y0
    f = np.array(R(x, y))
    res = float(np.linalg.norm(f))
    for _ in range(50):
        if res <= tols.newton:
            return (x, y)
        j = R.jacobian_fd(x, y, h)
        try:
            step = np.linalg.solve(j, f)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(20):
            xn, yn = x - lam * step[0], y - lam * step[1]
            fn = np.array(R(xn, yn))
            rn = float(np.linalg.norm(fn))
            if rn < res:
                x, y, f, res = xn, yn, fn, rn
                break
            lam *= 0.5
        else:
            return None
    return (x, y) if res <= tols.newton else None


def _sign_varies(W: np.ndarray) -> np.ndarray:
    """Cells of the grid W whose four corners bracket 0: min <= 0 <= max."""
    corners = (W[:-1, :-1], W[1:, :-1], W[:-1, 1:], W[1:, 1:])
    return ((np.minimum.reduce(corners) <= 0.0)
            & (np.maximum.reduce(corners) >= 0.0))


def emergent_singularities(R: RegularizedField,
                           x_window: tuple[float, float],
                           tols: Tolerances | None = None
                           ) -> list[EmergentSingularity]:
    """All zeros of Z_eps in the band x in window, |y| <= eps.

    Grid step eps/20 resolves the band where emergent singularities are
    isolated for small eps; cells showing sign variation in both
    components seed a damped Newton run; converged zeros are merged when
    closer than 10 * tol_root.  The grid is walked in strips of _STRIP
    cells along x (one column of overlap), so its memory is bounded
    whatever eps is; each polynomial is evaluated once per strip and phi
    once per grid row for the whole census.  Seeds are visited in (x, y)
    cell order; Newton and the Jacobians use the scalar field.
    """
    tols = tols or default_tols()
    eps = R.epsilon
    step = eps / 20.0
    xs = np.arange(x_window[0], x_window[1] + step, step)
    ys = np.arange(-eps, eps + step / 2, step)

    found: list[tuple[float, float]] = []
    for s, U, V in R.strips(xs, ys):
        for i, j in zip(*np.nonzero(_sign_varies(U) & _sign_varies(V))):
            sol = _newton(R, xs[s + i] + step / 2, ys[j] + step / 2, tols)
            if sol is None:
                continue
            x, y = sol
            if not (x_window[0] - step <= x <= x_window[1] + step
                    and abs(y) <= eps + step):
                continue
            if any(math.hypot(x - a, y - b) <= 10 * tols.root
                   for a, b in found):
                continue
            found.append((x, y))

    out = []
    h = 1e-6 * max(1.0, eps)
    for x, y in sorted(found):
        j = R.jacobian_fd(x, y, h)
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
    found by bisection on eta(s)-s.  The derivative at a fixed point comes
    from one run with the divergence integral:
    eta' = (R_x(start)/R_x(end)) exp(int div R), where
    div R = w div X + (1-w) div Y + phi'(y/eps)/eps (Q_X - Q_Y), w = phi(y/eps).
    Raises NotTransversal when R_x vanishes at either end of that run.
    Grid points whose orbit fails to return or blows up are skipped.
    """
    from scipy.optimize import brentq

    from .flow import Section, _integrate

    tols = tols or default_tols()
    R = RegularizedField(Z, phi, epsilon)
    sec = Section((section_x, 0.0), (0.0, 1.0), s_range)
    div_x, div_y = Z.X.divergence(), Z.Y.divergence()

    def div_r(x: float, y: float) -> float:
        t = y / epsilon
        w = phi(t)
        return (w * div_x(x, y) + (1 - w) * div_y(x, y)
                + phi.derivative(t) / epsilon * (Z.X.Q(x, y) - Z.Y.Q(x, y)))

    def run(s: float, with_div: bool):
        """End state of the first return from sec(s), with the divergence
        integral as a third component when with_div."""
        p = sec.point(s)

        def rhs(t, st):
            v = R(st[0], st[1])
            if with_div:
                return [v[0], v[1], div_r(st[0], st[1])]
            return list(v)

        # leave the section before arming the event: integrate a short leg
        y0 = list(p) + ([0.0] if with_div else [])
        lead = _integrate(rhs, y0, 1e-3, tols)
        ret = (lambda t, st: st[0] - section_x,
               -1 if R(p[0], p[1])[0] < 0 else 1)
        sol = _integrate(rhs, [float(v) for v in lead.y[:, -1]], horizon,
                         tols, [ret])
        if len(sol.t_events[0]) == 0:
            raise NoReturn(f"no return from s={s}")
        return sol.y_events[0][0]

    def eta(s: float) -> float:
        return float(run(s, False)[1])

    def eta_prime(s: float) -> float:
        end = run(s, True)
        r0 = R(section_x, s)[0]
        r1 = R(float(end[0]), float(end[1]))[0]
        if abs(r0) <= tols.sign or abs(r1) <= tols.sign:
            raise NotTransversal("section parallel to the regularized field")
        return (r0 / r1) * math.exp(float(end[2]))

    lo, hi = s_range
    n_grid = 24
    ss = np.linspace(lo, hi, n_grid)
    gs = []
    for s in ss:
        try:
            gs.append(eta(s) - s)
        except (NoReturn, StepFailure):
            gs.append(np.nan)
    cycles = []
    for k in range(n_grid - 1):
        a, b = gs[k], gs[k + 1]
        if np.isnan(a) or np.isnan(b) or a * b > 0:
            continue
        s_star = brentq(lambda s: eta(s) - s, ss[k], ss[k + 1],
                        xtol=tols.root)
        if any(abs(s_star - c.section_value) < 1e-8 for c in cycles):
            continue
        d = eta_prime(s_star)
        cycles.append(RegularizedCycle(epsilon, float(s_star), float(d),
                                       abs(d - 1.0) > tols.sign))
    return cycles
