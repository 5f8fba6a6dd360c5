"""Hybrid trajectory integration with Filippov transition rules.

Smooth arcs are traced with the adaptive DOP853 integrator (Dormand-Prince
8(5,3)); their y=0, window and section events are localized by the solver's
root finder and by a root count on each step's dense-output polynomial,
which catches a pair of crossings inside one step; sliding arcs integrate
the one-dimensional Filippov field along D.  Transitions follow the
poly-trajectory rules: X/Y swaps only at sewing points, entry/exit of
sliding arcs only at folds or regular sliding points, termination at
Filippov-field singularities and on escaping arcs (forward evolution is
not unique there and trajectories are never silently branched).

Every ODE solve of the package, here and in the regularized and
compactified flows, goes through one kernel, _integrate: DOP853 with
rtol = tols.root and atol = tols.root / 100, so FILIPPOV_TOLERANCE_SCALE
reaches the solver; events are terminal; a solve whose step controller
gives up raises StepFailure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.integrate import solve_ivp

from . import dline
from .dline import PointTag
from .errors import (
    ClassificationAmbiguous,
    NoReturn,
    NotTransversal,
    StepFailure,
)
from .polys import PiecewiseField, PolyVectorField, univariate_roots
from .tolerances import Tolerances, default_tols

Window = tuple[float, float, float, float]  # x0, x1, y0, y1
_D_DIRECTION = (1.0, 0.0)
# sewing abscissas that seed the closed-trajectory census by default
DEFAULT_SEEDS = (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)


class EventKind(Enum):
    CROSSING_AT_SEWING = "CrossingAtSewing"
    ENTER_SLIDING = "EnterSliding"
    EXIT_AT_FOLD = "ExitAtFold"
    REACH_FZ_SINGULARITY = "ReachFzSingularity"
    NON_UNIQUE_FORWARD = "NonUniqueForward"
    FOLD_GRAZE = "FoldGraze"
    WINDOW_EXIT = "WindowExit"
    TIME_BUDGET = "TimeBudget"
    CLOSED = "Closed"
    SECTION_CROSSING = "SectionCrossing"


class Closure(Enum):
    NO = "No"
    TYPE1 = "Type1"
    TYPE3 = "Type3"


@dataclass(frozen=True)
class TrajectoryArc:
    tag: str  # "X", "Y" or "FZ"
    t_span: tuple[float, float]
    ts: np.ndarray
    states: np.ndarray  # shape (n, 2)
    divergence: float | None = None  # integral of div along a smooth arc


@dataclass(frozen=True)
class TrajectoryEvent:
    time: float
    kind: EventKind
    state: tuple[float, float]


@dataclass
class PolyTrajectory:
    arcs: list[TrajectoryArc] = field(default_factory=list)
    events: list[TrajectoryEvent] = field(default_factory=list)
    closed: Closure = Closure.NO

    def end_state(self) -> tuple[float, float]:
        s = self.arcs[-1].states[-1]
        return (float(s[0]), float(s[1]))

    def validate(self, tols: Tolerances | None = None) -> None:
        """Machine-check of the poly-trajectory legality invariants."""
        tols = tols or default_tols()
        tags = [a.tag for a in self.arcs]
        for a, b in zip(tags, tags[1:]):
            if {a, b} == {"X", "Y"}:
                continue
            if "FZ" in (a, b):
                continue
            if a == b:
                continue
            raise AssertionError(f"illegal transition {a} -> {b}")
        if self.closed is Closure.TYPE1:
            assert all(a.tag in ("X", "Y") for a in self.arcs)
        if self.closed is Closure.TYPE3:
            assert any(a.tag == "FZ" for a in self.arcs)


@dataclass(frozen=True)
class Section:
    """Parameterized transversal segment base + s * direction."""

    base: tuple[float, float]
    direction: tuple[float, float]
    s_range: tuple[float, float]

    def point(self, s: float) -> tuple[float, float]:
        return (self.base[0] + s * self.direction[0],
                self.base[1] + s * self.direction[1])

    def param_of(self, p: tuple[float, float]) -> float:
        dx, dy = self.direction
        return ((p[0] - self.base[0]) * dx + (p[1] - self.base[1]) * dy) / (
            dx * dx + dy * dy)

    def signed_dist(self, p: tuple[float, float]) -> float:
        dx, dy = self.direction
        return dx * (p[1] - self.base[1]) - dy * (p[0] - self.base[0])


@dataclass(frozen=True)
class SmoothTrace:
    ts: np.ndarray
    states: np.ndarray
    status: str  # "d_hit", "window", "horizon", "section"
    hit_state: tuple[float, float] | None


def _integrate(rhs, y0, t_end: float, tols: Tolerances, events=(),
               t0: float = 0.0, dense_output: bool = False):
    """Solve y' = rhs(t, y) from t0 to t_end with DOP853 at
    rtol = tols.root, atol = tols.root / 100.  events are (g, direction)
    pairs, all terminal.  Raises StepFailure when the step controller gives
    up."""
    for g, direction in events:
        g.terminal = True
        g.direction = direction
    sol = solve_ivp(rhs, (t0, t_end), y0, method="DOP853", rtol=tols.root,
                    atol=tols.root / 100,
                    events=[g for g, _ in events] or None,
                    dense_output=dense_output)
    if sol.status == -1:
        raise StepFailure(sol.message)
    return sol


@functools.cache
def _dense_basis(power: int) -> np.ndarray:
    """Ascending coefficients, one row each, of x, x(1-x), x^2(1-x),
    x^2(1-x)^2, ...: a DOP853 step's dense output is
    y_old + sum_j F_j b_j(x) in the fraction x of the step."""
    rows, p = [], np.array([1.0])
    for j in range(power):
        p = npoly.polymul(p, (0.0, 1.0) if j % 2 == 0 else (1.0, -1.0))
        rows.append(np.pad(p, (0, power + 1 - len(p))))
    return np.array(rows)


def _stepped_over(sol, lines, tols: Tolerances):
    """First crossing, in its direction, of an affine event
    g = a_x x + a_y y + b of lines that a forward solve stepped over: one
    inside a step whose end values do not show it, or one before the
    solver's own event in its last step.  Returns (index into lines, time,
    state) or None.

    Two cheap bounds close almost every (step, event) pair.  Each b_j is
    at most 1 on [0, 1], so a step with |g(t_old)| > sum_j |a.F_j| keeps
    the sign of g.  A step where g is monotone (its derivative's constant
    term outweighs the sum of the others) crosses at most once, and the
    solver sees that crossing at the step's ends.  Only the pairs both
    bounds leave open get an exact root count of g's interpolant."""
    steps = sol.sol.interpolants
    ax, ay, b = np.array([ln[:3] for ln in lines]).T
    y_old = np.array([st.y_old[:2] for st in steps])
    F = np.array([st.F[:, :2] for st in steps])
    # broadcast products, not matmul: the first BLAS call of a process
    # raises its peak memory by a quarter megabyte
    g0 = y_old[:, :1] * ax + y_old[:, 1:] * ay + b    # (steps, events)
    gF = F[..., :1] * ax + F[..., 1:] * ay              # (steps, power, events)
    # nonzero lists the pairs the first bound leaves open in step order
    pairs = np.nonzero(np.abs(g0) <= np.abs(gF).sum(axis=1))
    # g - g0 of each such pair in powers of x, shape (pairs, power + 1)
    c = (gF[pairs[0], :, pairs[1]][..., None]
         * _dense_basis(F.shape[1])).sum(axis=1)
    dc = c[:, 1:] * np.arange(1, c.shape[1])
    monotone = np.abs(dc[:, 0]) > np.abs(dc[:, 1:]).sum(axis=1)
    t_last = float(sol.t[-1])
    # roots closer than this to the solver's end are its own event
    t_stop = t_last - tols.root * max(1.0, abs(t_last))
    first = None
    for s, e, ce, mono in zip(*pairs, c, monotone):
        st = steps[s]
        if first is not None and st.t_old >= first[1]:
            break
        if mono:
            continue
        ce[0] += g0[s, e]
        for r, mult in univariate_roots(ce, (0.0, 1.0), tols):
            t = st.t_old + max(r, 0.0) * st.h
            if t >= t_stop or (first is not None and t >= first[1]):
                break
            # the first nonzero derivative of an odd root gives its direction
            slope = npoly.polyval(r, npoly.polyder(ce, mult))
            if mult % 2 == 1 and lines[e][3] * slope >= 0 and slope != 0.0:
                first = (e, t)
                break
    if first is None:
        return None
    return first[0], first[1], sol.sol(first[1])


def integrate_smooth(X: PolyVectorField, p0: tuple[float, float],
                     horizon: float, window: Window,
                     d_direction: int = 0,
                     section: Section | None = None,
                     section_direction: int = 0,
                     tols: Tolerances | None = None,
                     extra_quadrature=None) -> SmoothTrace:
    """Adaptive DOP853 trace of X from p0, stopping at the first y=0
    crossing (in the given direction), window exit or horizon.

    d_direction: -1 catches downward crossings (flows in N), +1 upward,
    0 both.  An optional section event stops the trace at a transversal
    crossing of the segment (matching section_direction when nonzero);
    crossings of its line outside the parameter range are stepped over.
    An optional extra_quadrature(x, y) integrand is accumulated as a third
    state component (used for divergence integrals).

    The solver sees an event only where its sign differs at the two ends
    of a step, so before a solve's end is accepted each step's dense output
    is searched for crossings it stepped over (_stepped_over); the trace
    ends at the first one found.
    """
    tols = tols or default_tols()
    aug = extra_quadrature is not None

    def rhs(t, s):
        v = X(s[0], s[1])
        if aug:
            return [v[0], v[1], extra_quadrature(s[0], s[1])]
        return [v[0], v[1]]

    # affine events (a_x, a_y, b, direction): y = 0, the window's sides
    # x1, x0, y1, y0, and the section's line (its signed_dist)
    wx0, wx1, wy0, wy1 = window
    lines = [(0.0, 1.0, 0.0, d_direction),
             (1.0, 0.0, -wx1, 1), (1.0, 0.0, -wx0, -1),
             (0.0, 1.0, -wy1, 1), (0.0, 1.0, -wy0, -1)]
    if section is not None:
        (bx, by), (dx, dy) = section.base, section.direction
        lines.append((-dy, dx, dy * bx - dx * by, section_direction))
    events = [((lambda t, s, ax=ax, ay=ay, b=b: ax * s[0] + ay * s[1] + b),
               direction) for ax, ay, b, direction in lines]

    state = list(p0) + ([0.0] if aug else [])
    offset = 0.0  # time already integrated before the current leg
    head_ts: list[np.ndarray] = []
    head_states: list[np.ndarray] = []
    while True:
        remaining = horizon - offset
        sol = _integrate(rhs, state, remaining, tols, events,
                         dense_output=True)
        hit = _stepped_over(sol, lines, tols) or next(
            ((k, float(te[0]), ye[0]) for k, (te, ye)
             in enumerate(zip(sol.t_events, sol.y_events)) if len(te)), None)
        if hit is None or hit[0] != 5:
            break
        # resume just past a section crossing that is not inside the
        # parameter range (or is the start point itself)
        _, te, se = hit
        s_par = section.param_of((se[0], se[1]))
        if section.s_range[0] <= s_par <= section.s_range[1] and te > 1e-12:
            break
        if te <= 1e-12 and head_ts:
            # back on the line right after stepping over a crossing
            raise NotTransversal("trajectory runs along the section line")
        t_shift = te + 1e-9 * max(1.0, abs(remaining))
        if t_shift >= remaining:
            break
        keep = sol.t <= t_shift
        head_ts.append(sol.t[keep] + offset)
        head_states.append(sol.y.T[keep])
        state = [float(v) for v in sol.sol(t_shift)]
        offset += t_shift

    ts, states = sol.t, sol.y.T
    status, hit_state = "horizon", None
    if hit is not None:
        kind, t_end, end = hit
        status = {0: "d_hit", 5: "section"}.get(kind, "window")
        if status != "window":
            hit_state = (float(end[0]), 0.0 if kind == 0 else float(end[1]))
        keep = sol.t < t_end
        ts = np.append(sol.t[keep], t_end)
        states = np.vstack([sol.y.T[keep], end])
    if head_ts:
        ts = np.concatenate(head_ts + [ts + offset])
        states = np.vstack(head_states + [states])
    return SmoothTrace(ts, states, status, hit_state)


def _fz_rhs(Z: PiecewiseField):
    p1, q1 = Z.X.P, Z.X.Q
    p2, q2 = Z.Y.P, Z.Y.Q

    def rhs(x):
        xf = q1(x, 0.0)
        yf = q2(x, 0.0)
        return (yf * p1(x, 0.0) - xf * p2(x, 0.0)) / (yf - xf)

    return rhs


def _d_events(Z: PiecewiseField, window: Window):
    """Events of a motion along D: the tangency roots Q_X(x, 0) and
    Q_Y(x, 0), then the window's x bounds."""
    q1, q2 = Z.X.Q, Z.Y.Q
    return [(lambda t, s: q1(s[0], 0.0), 0), (lambda t, s: q2(s[0], 0.0), 0),
            (lambda t, s: s[0] - window[0], 0),
            (lambda t, s: s[0] - window[1], 0)]


def _slide(Z: PiecewiseField, x0: float, horizon: float,
           window: Window, tols: Tolerances,
           section: Section | None = None) -> tuple:
    """Integrate the 1-D Filippov field along D from x0.

    Returns (ts, xs, outcome, x_end) with outcome one of
    'q1_root', 'q2_root', 'fz_singularity', 'window', 'horizon', 'section'.
    """
    fz = _fz_rhs(Z)
    det = dline.det_xy(Z)
    events = _d_events(Z, window) + [(lambda t, s: det(s[0], 0.0), 0)]
    names = ["q1_root", "q2_root", "window", "window", "fz_singularity"]
    if section is not None and abs(section.direction[1]) < 1e-15:
        events.append((lambda t, s: s[0] - section.base[0], 0))
        names.append("section")

    sol = _integrate(lambda t, s: [fz(s[0])], [x0], horizon, tols, events)
    outcome = "horizon"
    t_end, x_end = sol.t[-1], float(sol.y[0][-1])
    for k, name in enumerate(names):
        if len(sol.t_events[k]) > 0 and sol.t_events[k][0] <= t_end:
            t_end = float(sol.t_events[k][0])
            x_end = float(sol.y_events[k][0][0])
            outcome = name
    mask = sol.t <= t_end + 1e-15
    return sol.t[mask], sol.y[0][mask], outcome, x_end


def advance_hybrid(Z: PiecewiseField, p0: tuple[float, float], side: str,
                   horizon: float, window: Window,
                   tols: Tolerances | None = None,
                   max_arcs: int = 64,
                   section: Section | None = None,
                   section_direction: int = 0,
                   stop: Callable[[float, tuple[float, float], str], bool]
                   | None = None,
                   with_divergence: bool = False) -> PolyTrajectory:
    """Alternate smooth and sliding arcs under the Filippov rules.

    side: 'N', 'S' or 'D' (consistent with p0).  When a section is given,
    transversal crossings of it terminate the trajectory with a
    SectionCrossing event (used by return maps).  stop(t, p, side) is
    asked after each sewing crossing, with the side just entered; True
    ends the run there with a SectionCrossing event.  with_divergence
    integrates div along each smooth arc into TrajectoryArc.divergence.
    """
    tols = tols or default_tols()
    divs = {"N": Z.X.divergence(), "S": Z.Y.divergence()} \
        if with_divergence else {}
    traj = PolyTrajectory()
    t = 0.0
    p = (float(p0[0]), float(p0[1]))

    def record(kind: EventKind, state=None):
        traj.events.append(TrajectoryEvent(t, kind, state or p))

    if side == "D":
        cls = dline.classify_point(Z, p[0], tols)
        if cls.tag is PointTag.SEWING:
            side = "N" if cls.xf > 0 else "S"
        elif cls.tag is PointTag.SLIDING:
            side = "SLIDE"
        elif cls.tag is PointTag.ESCAPING:
            record(EventKind.NON_UNIQUE_FORWARD)
            return traj
        else:
            raise ClassificationAmbiguous(
                f"start point x={p[0]} is {cls.tag.value}")

    start = p
    started_on_d = abs(p[1]) <= tols.event
    crossings: list[tuple[float, str]] = []
    for _ in range(max_arcs):
        if t >= horizon:
            record(EventKind.TIME_BUDGET)
            break
        if side in ("N", "S"):
            fld = Z.X if side == "N" else Z.Y
            ddir = -1 if side == "N" else 1
            tr = integrate_smooth(fld, p, horizon - t, window, ddir,
                                  section, section_direction, tols,
                                  divs.get(side))
            traj.arcs.append(TrajectoryArc(
                "X" if side == "N" else "Y",
                (t, t + tr.ts[-1]), tr.ts + t, tr.states[:, :2],
                float(tr.states[-1, 2]) if with_divergence else None))
            t += float(tr.ts[-1])
            if tr.status == "window":
                p = (float(tr.states[-1, 0]), float(tr.states[-1, 1]))
                record(EventKind.WINDOW_EXIT)
                break
            if tr.status == "horizon":
                p = (float(tr.states[-1, 0]), float(tr.states[-1, 1]))
                record(EventKind.TIME_BUDGET)
                break
            if tr.status == "section":
                p = tr.hit_state
                record(EventKind.SECTION_CROSSING)
                break
            # D hit
            p = tr.hit_state
            cls = dline.classify_point(Z, p[0], tols)
            if cls.tag is PointTag.SEWING:
                new_side = "S" if side == "N" else "N"
                # a repeated crossing means the trajectory is periodic;
                # only needed for seeds off D, where the start-point
                # proximity check below can never fire
                if not started_on_d and any(
                        abs(p[0] - xc) <= tols.close and sc == new_side
                        for xc, sc in crossings):
                    tags = {a.tag for a in traj.arcs}
                    if tags <= {"X", "Y"}:
                        traj.closed = Closure.TYPE1
                    elif "FZ" in tags and any(
                            e.kind is EventKind.EXIT_AT_FOLD
                            for e in traj.events):
                        traj.closed = Closure.TYPE3
                    record(EventKind.CLOSED)
                    break
                crossings.append((p[0], new_side))
                record(EventKind.CROSSING_AT_SEWING)
                side = new_side
                if stop is not None and stop(t, p, side):
                    record(EventKind.SECTION_CROSSING)
                    break
            elif cls.tag is PointTag.SLIDING:
                record(EventKind.ENTER_SLIDING)
                side = "SLIDE"
            elif cls.tag is PointTag.ESCAPING:
                record(EventKind.NON_UNIQUE_FORWARD)
                break
            elif cls.tag in (PointTag.TANGENCY_X, PointTag.TANGENCY_Y):
                own = (cls.tag is PointTag.TANGENCY_X) == (side == "N")
                lie2 = dline.second_lie_derivative(
                    Z.X if side == "N" else Z.Y)(p[0], 0.0)
                curves_back = lie2 > 0 if side == "N" else lie2 < 0
                if own and abs(lie2) > tols.sign and curves_back:
                    record(EventKind.FOLD_GRAZE)
                    # graze: continue with the same field nudged off D
                    p = (p[0], math.copysign(tols.event, 1 if side == "N" else -1))
                else:
                    raise ClassificationAmbiguous(
                        f"hit tangency at x={p[0]} while flowing {side}")
            else:
                raise ClassificationAmbiguous(
                    f"hit TangencyBoth at x={p[0]}")
        else:  # SLIDE
            if abs(dline.det_xy(Z)(p[0], 0.0)) <= tols.sign:
                traj.arcs.append(TrajectoryArc(
                    "FZ", (t, t), np.array([t]), np.array([[p[0], 0.0]])))
                record(EventKind.REACH_FZ_SINGULARITY)
                break
            ts, xs, outcome, x_end = _slide(Z, p[0], horizon - t, window,
                                            tols, section)
            states = np.column_stack([xs, np.zeros_like(xs)])
            traj.arcs.append(TrajectoryArc("FZ", (t, t + ts[-1]),
                                           ts + t, states))
            t += float(ts[-1])
            p = (x_end, 0.0)
            if outcome == "fz_singularity":
                record(EventKind.REACH_FZ_SINGULARITY)
                break
            if outcome == "window":
                record(EventKind.WINDOW_EXIT)
                break
            if outcome == "horizon":
                record(EventKind.TIME_BUDGET)
                break
            if outcome == "section":
                record(EventKind.SECTION_CROSSING)
                break
            # fold exit: into the region of the field whose tangency vanishes
            if outcome in ("q1_root", "q2_root"):
                fld = Z.X if outcome == "q1_root" else Z.Y
                other = Z.Y.Q if outcome == "q1_root" else Z.X.Q
                lie2 = dline.second_lie_derivative(fld)(p[0], 0.0)
                if abs(lie2) <= tols.sign or abs(other(p[0], 0.0)) <= tols.sign:
                    raise ClassificationAmbiguous(
                        f"sliding arc ends at non-fold tangency x={p[0]}")
                record(EventKind.EXIT_AT_FOLD)
                side = "N" if outcome == "q1_root" else "S"
                p = (p[0], math.copysign(tols.event, 1 if side == "N" else -1))
        # closure check at transition points on D
        if abs(p[1]) <= tols.close and len(traj.arcs) >= 2 \
                and math.hypot(p[0] - start[0], p[1] - start[1]) <= tols.close:
            tags = {a.tag for a in traj.arcs}
            has_fold = any(e.kind is EventKind.EXIT_AT_FOLD for e in traj.events)
            if tags <= {"X", "Y"}:
                traj.closed = Closure.TYPE1
            elif "FZ" in tags and has_fold:
                traj.closed = Closure.TYPE3
            record(EventKind.CLOSED)
            break
    else:
        record(EventKind.TIME_BUDGET)
    return traj


def transition_derivative(X: PolyVectorField, p0: tuple[float, float],
                          p1: tuple[float, float], sec0: Section,
                          sec1: Section, t_span: float,
                          tols: Tolerances | None = None) -> float:
    """Derivative of the transition map between two transversal sections
    along the flow of X: boundary determinant ratio times the exponential
    of the divergence integral along the orbit.

    The orbit from p0 ends at its first crossing of sec1's line in the
    direction the flow crosses it at p1 (p0 may lie on that line, as in a
    half turn between two rays of one line), within 1.5 t_span."""
    tols = tols or default_tols()
    div = X.divergence()

    def rhs(t, s):
        v = X(s[0], s[1])
        return [v[0], v[1], div(s[0], s[1])]

    # signed_dist grows where the speed across the line is negative
    arrive = (lambda t, s: sec1.signed_dist((s[0], s[1])),
              -1 if _normal_speed(X, p1, sec1.direction) > 0 else 1)
    sol = _integrate(rhs, [p0[0], p0[1], 0.0], t_span * 1.5, tols, [arrive])
    if len(sol.t_events[0]) == 0:
        raise NoReturn("orbit did not reach the target section")
    end = sol.y_events[0][0]
    d0 = _normal_speed(X, p0, sec0.direction)
    d1 = _normal_speed(X, end, sec1.direction)
    if abs(d0) <= tols.sign or abs(d1) <= tols.sign:
        raise NotTransversal("section parallel to the field")
    return (d0 / d1) * math.exp(float(end[2]))


def _normal_speed(X: PolyVectorField, p, direction) -> float:
    """Speed of X across a line with the given direction at p."""
    v = X(float(p[0]), float(p[1]))
    return v[0] * direction[1] - v[1] * direction[0]


def return_map(Z: PiecewiseField, section: Section, s0: float,
               horizon: float, window: Window | None = None,
               tols: Tolerances | None = None,
               with_derivative: bool = True) -> tuple[float, float | None]:
    """First-return parameter s1 of the hybrid flow from section(s0) and
    its derivative eta'(s0).

    The run ends at the first return.  eta' is the product over the smooth
    arcs of the transition-map derivatives (n_start/n_end) exp(int div),
    n being the arc field's speed across the section at the two ends of
    the return and across D (-Q(x, 0)) at sewing crossings, so the Q_Y/Q_X
    ratio of each crossing falls out of the product.  A return through a
    sliding arc or a fold graze, or one that meets a section or D with
    |n| <= tols.sign, raises NotTransversal.
    """
    tols = tols or default_tols()
    if window is None:
        big = 50.0
        window = (-big, big, -big, big)
    p = section.point(s0)
    on_d = abs(p[1]) <= tols.event
    if on_d:
        # returns to a section on D are sewing crossings back into the
        # starting side with parameter inside the range
        cls = dline.classify_point(Z, p[0], tols)
        if cls.tag is not PointTag.SEWING:
            raise NoReturn("D-section seed not on a sewing arc")
        start_side = "N" if cls.xf > 0 else "S"
        lo, hi = section.s_range

        def returned(t, q, side):
            return side == start_side and lo <= section.param_of(q) <= hi \
                and t > 1e-9

        traj = advance_hybrid(Z, p, "D", horizon, window, tols,
                              stop=returned, with_divergence=with_derivative)
    else:
        traj = advance_hybrid(Z, p, "N" if p[1] > 0 else "S", horizon,
                              window, tols, section=section,
                              section_direction=0,
                              with_divergence=with_derivative)
    # a run from D may also close at its start, off the parameter range
    ends = (EventKind.SECTION_CROSSING, EventKind.CLOSED) if on_d \
        else (EventKind.SECTION_CROSSING,)
    if not traj.events or traj.events[-1].kind not in ends:
        raise NoReturn(f"no return from s={s0}")
    s1 = section.param_of(traj.end_state())
    if not with_derivative:
        return s1, None
    if any(a.tag == "FZ" for a in traj.arcs) or any(
            e.kind is EventKind.FOLD_GRAZE for e in traj.events):
        raise NotTransversal("return passes a sliding arc or a fold graze")
    eta_prime = 1.0
    last_arc = len(traj.arcs) - 1
    for k, arc in enumerate(traj.arcs):
        fld = Z.X if arc.tag == "X" else Z.Y
        n0 = _normal_speed(fld, arc.states[0],
                           section.direction if k == 0 else _D_DIRECTION)
        n1 = _normal_speed(fld, arc.states[-1], section.direction
                           if k == last_arc else _D_DIRECTION)
        if abs(n0) <= tols.sign or abs(n1) <= tols.sign:
            raise NotTransversal("return meets a section or D tangentially")
        eta_prime *= (n0 / n1) * math.exp(arc.divergence)
    return s1, eta_prime


def compactified_return_map(Z: PiecewiseField, rho0: float,
                            tols: Tolerances | None = None
                            ) -> tuple[float, float]:
    """Return map of the compactified field on the section theta=0 and its
    derivative at rho0.

    Valid when the equator carries no singular points (theta moves
    monotonically); integrates f = d(rho)/d(theta) across both halves,
    with the variational integral of df/drho as a second component of the
    same solve, so the derivative is exp of its total.
    """
    from .compactify import compactified_field

    tols = tols or default_tols()
    tf = compactified_field(Z)
    # (coefficients of the half, theta at entry, theta at exit) in the
    # order theta runs
    halves = [((tf.A1, tf.R1), 0.0, math.pi),
              ((tf.A2, tf.R2), math.pi, 2 * math.pi)]
    if tf.eval_upper(math.pi / 2, 0.0)[0] <= 0:
        halves = [(ar, b, a) for ar, a, b in reversed(halves)]

    state = [rho0, 0.0]
    for (A, R), theta0, theta1 in halves:
        def rhs(theta, s, A=A, R=R):
            return tf.slope(A, R, theta, s[0])
        sol = _integrate(rhs, state, theta1, tols, t0=theta0)
        state = [float(v) for v in sol.y[:, -1]]
    return state[0], math.exp(state[1])


@dataclass(frozen=True)
class ClosedOrbit:
    trajectory: PolyTrajectory
    closure: Closure
    elementary: str  # "yes", "no", "undetermined"
    certificate: dict


def find_closed_polytrajectories(Z: PiecewiseField, window: Window,
                                 seeds: list[float] | None = None,
                                 horizon: float = 100.0,
                                 tols: Tolerances | None = None
                                 ) -> list[ClosedOrbit]:
    """Heuristic census of closed poly-trajectories.

    Type-1 candidates come from fixed points of the D-section return map
    started at seed abscissas on sewing arcs (secant iteration); type-3
    candidates from hybrid runs seeded at fold points.  Misses are
    possible; the search is a semi-decision.
    """
    tols = tols or default_tols()
    if seeds is None:
        seeds = DEFAULT_SEEDS
    found: list[ClosedOrbit] = []
    seen_x: list[float] = []

    span = (window[0], window[1])
    for s0 in seeds:
        if not (window[0] < s0 < window[1]):
            continue
        cls = dline.classify_point(Z, s0, tols)
        if cls.tag is not PointTag.SEWING:
            continue
        section = Section((0.0, 0.0), (1.0, 0.0), span)

        def g(s):
            s1, _ = return_map(Z, section, s, horizon, window, tols,
                               with_derivative=False)
            return s1 - s

        try:
            s_star = _secant_fixed_point(g, s0, tols)
        except NoReturn:
            continue
        if s_star is None or not (window[0] < s_star < window[1]):
            continue
        if abs(s_star) < 1e-3:  # degenerate loop shrunk into the origin
            continue
        if any(abs(s_star - x) <= 1e-5 for x in seen_x):
            continue
        cls_star = dline.classify_point(Z, s_star, tols)
        if cls_star.tag is not PointTag.SEWING:
            continue
        try:
            _, eta_prime = return_map(Z, section, s_star, horizon, window, tols)
            traj = advance_hybrid(Z, (s_star, 0.0), "D", horizon, window, tols)
        except (NoReturn, NotTransversal, ClassificationAmbiguous):
            continue
        if traj.closed is not Closure.TYPE1:
            continue
        seen_x.append(s_star)
        # record every sewing abscissa of the orbit so the same cycle is
        # not reported again from a seed on its other D-crossing
        for ev in traj.events:
            if ev.kind is EventKind.CROSSING_AT_SEWING:
                seen_x.append(float(ev.state[0]))
        elem = "yes" if abs(eta_prime - 1.0) > tols.sign else "no"
        found.append(ClosedOrbit(traj, Closure.TYPE1, elem,
                                 {"eta_prime": eta_prime, "x": s_star}))

    # type-3 candidates from fold points
    for fold in dline.fold_points(Z, span, tols):
        if fold.kind not in (dline.SingKind.FOLD_X, dline.SingKind.FOLD_Y):
            continue
        side = "N" if fold.kind is dline.SingKind.FOLD_X else "S"
        p = (fold.x, math.copysign(tols.event, 1 if side == "N" else -1))
        try:
            traj = advance_hybrid(Z, p, side, horizon, window, tols)
        except (ClassificationAmbiguous, StepFailure):
            continue
        if traj.closed is Closure.TYPE3:
            classes = set()
            for arc in traj.arcs:
                if arc.tag == "FZ":
                    mid = arc.states[len(arc.states) // 2]
                    classes.add(dline.classify_point(Z, float(mid[0]), tols).tag)
            elem = "yes" if len(classes) == 1 else "no"
            found.append(ClosedOrbit(traj, Closure.TYPE3, elem,
                                     {"fold_x": fold.x}))
    return found


def _secant_fixed_point(g, s0: float, tols: Tolerances,
                        max_iter: int = 30) -> float | None:
    g0 = g(s0)
    if abs(g0) <= tols.close:
        return s0
    s1 = s0 * 1.05 + 1e-3
    g1 = g(s1)
    for _ in range(max_iter):
        if abs(g1) <= tols.root * 1e3:
            return s1
        denom = g1 - g0
        if denom == 0.0:
            return None
        s2 = s1 - g1 * (s1 - s0) / denom
        s0, g0, s1 = s1, g1, s2
        g1 = g(s1)
    return s1 if abs(g1) <= tols.close else None


@dataclass(frozen=True)
class SaddleSpec:
    kind: str  # "X", "Y" or "FZ"
    point: tuple[float, float]


@dataclass(frozen=True)
class SeparatrixBranch:
    saddle_index: int
    stability: str  # "stable" or "unstable"
    label: str
    points: np.ndarray


@dataclass(frozen=True)
class ConnectionReport:
    branches: list[SeparatrixBranch]
    distances: np.ndarray
    flagged: list[tuple[int, int]]


def probe_saddle_connections(Z: PiecewiseField, saddles: list[SaddleSpec],
                             horizon: float = 30.0,
                             window: Window = (-5, 5, -5, 5),
                             tols: Tolerances | None = None
                             ) -> ConnectionReport:
    """Trace separatrix branches of certified saddles and record minimum
    pairwise distances; close approaches are flagged PossibleConnection.

    Same-saddle branch pairs exclude points within a small radius of the
    saddle so the seeding offset does not self-flag."""
    tols = tols or default_tols()
    branches: list[SeparatrixBranch] = []
    for idx, sad in enumerate(saddles):
        if sad.kind in ("X", "Y"):
            fld = Z.X if sad.kind == "X" else Z.Y
            x0, y0 = sad.point
            eigvals, eigvecs = np.linalg.eig(fld.jacobian_at(x0, y0))
            for col, lam in enumerate(eigvals):
                v = np.real(eigvecs[:, col])
                v = v / np.linalg.norm(v)
                stab = "unstable" if np.real(lam) > 0 else "stable"
                fwd = np.real(lam) > 0
                for sgn in (1.0, -1.0):
                    seed = (x0 + sgn * tols.delta_sep * v[0],
                            y0 + sgn * tols.delta_sep * v[1])
                    pts = _trace_branch(Z, seed, sad.kind, fwd, horizon,
                                        window, tols)
                    branches.append(SeparatrixBranch(
                        idx, stab, f"{sad.kind}{idx}:{stab}:{sgn:+.0f}", pts))
        else:  # FZ saddle: branches along D in both time directions
            x0 = sad.point[0]
            for sgn in (1.0, -1.0):
                for direction, stab in ((1.0, "unstable"), (-1.0, "stable")):
                    xs = _trace_d_branch(Z, x0 + sgn * tols.delta_sep,
                                         direction, horizon, window, tols)
                    pts = np.column_stack([xs, np.zeros_like(xs)])
                    branches.append(SeparatrixBranch(
                        idx, stab, f"FZ{idx}:{stab}:{sgn:+.0f}", pts))

    n = len(branches)
    dmat = np.full((n, n), np.inf)
    flagged = []
    r_excl = 5e-2
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = branches[i], branches[j]
            pi, pj = bi.points, bj.points
            if bi.saddle_index == bj.saddle_index:
                c = np.asarray(saddles[bi.saddle_index].point)
                pi = pi[np.linalg.norm(pi - c, axis=1) > r_excl]
                pj = pj[np.linalg.norm(pj - c, axis=1) > r_excl]
            if len(pi) == 0 or len(pj) == 0:
                continue
            d = _min_dist(pi, pj)
            dmat[i, j] = dmat[j, i] = d
            if d < tols.connect and {bi.stability, bj.stability} == \
                    {"stable", "unstable"}:
                flagged.append((i, j))
    return ConnectionReport(branches, dmat, flagged)


def _trace_branch(Z, seed, kind, forward, horizon, window, tols) -> np.ndarray:
    fld = Z.X if kind == "X" else Z.Y
    if not forward:
        fld = PolyVectorField(fld.P.scale(-1.0), fld.Q.scale(-1.0), fld.m)
    ddir = -1 if kind == "X" else 1
    if (kind == "X" and seed[1] <= 0) or (kind == "Y" and seed[1] >= 0):
        return np.asarray([seed])
    tr = integrate_smooth(fld, seed, horizon, window, ddir, tols=tols)
    return tr.states[:, :2]


def _trace_d_branch(Z, x0, direction, horizon, window, tols) -> np.ndarray:
    fz = _fz_rhs(Z)
    sol = _integrate(lambda t, s: [direction * fz(s[0])], [x0], horizon,
                     tols, _d_events(Z, window))
    return sol.y[0]


def _min_dist(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.spatial import cKDTree

    tree = cKDTree(b)
    d, _ = tree.query(a, k=1)
    return float(np.min(d))
