"""Hybrid trajectory integration with Filippov transition rules.

Smooth arcs are traced with the adaptive DOP853 integrator (Dormand-Prince
8(5,3)); a slide and an FZ branch are one motion along D (_slide) of the
1-D Filippov field, to the nearest stop ahead, found once.  Transitions
follow the poly-trajectory rules: X/Y swaps only at sewing points,
entry/exit of sliding arcs only at folds or regular sliding points,
termination at Filippov-field singularities, on escaping arcs and at
tangencies no graze passes (forward evolution is not unique or not
decided there; trajectories are never silently branched).

Every ODE solve of the package, here and in the regularized and
compactified flows, is one call of _integrate: scipy's DOP853 at
rtol = tols.root and atol = tols.root / 100, so FILIPPOV_TOLERANCE_SCALE
reaches the solver, its accepted-step loop generated once per system size
as straight-line float code (_dop853_kernel).  Each stage calls one
generated right-hand side, rhs(t, *state), cached on the object it
integrates (PolyVectorField.rhs, PiecewiseField.slide_rhs,
RegularizedField.rhs); a solve back in time runs the same kernel with
negative steps.  Events are affine lines (y = 0, the window's sides, a
section, x = r on D), which the loop screens on each step's interpolant
(Hairer, Norsett and Wanner, Solving ODEs I, section II.6), so only the
steps near a line reach the exact crossing search (_crossing).  A solve
may also end in a box, the square of a trap that sink_trap certifies
with an exact Lyapunov bound: a run of the cycle census ends in the trap
of a stable node or focus with EnterSink, and a separatrix branch of the
connection probe, which also watches a ray from each node, focus or
center of its field until its crossings settle, ends with fate 'sink' in
a trap that attracts in its direction of time.  The census skips every
run whose outcome is proved (find_closed_polytrajectories).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import dline, dop853
from .dline import PointTag
from .errors import NoReturn, NotTransversal, StepFailure
from .polys import (
    PiecewiseField,
    PolyVectorField,
    _cached,
    _dyadic,
    _generate,
    _polish_root,
    _polyder,
    _polyval,
    roots_on_d,
    taylor_at,
    univariate_roots,
)
from .tolerances import Tolerances, default_tols
from .work import WORK

if TYPE_CHECKING:
    from fractions import Fraction

Window = tuple[float, float, float, float]  # x0, x1, y0, y1
_D_DIRECTION = (1.0, 0.0)
# sewing abscissas that seed the closed-trajectory census, and the time
# each of its runs may take
DEFAULT_SEEDS = (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)
CENSUS_HORIZON = 100.0
# D abscissas this close lie on one cycle of the census (absolute: the
# field's scale is not normalized at entry)
SAME_CYCLE = 1e-5


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
    ENTER_SINK = "EnterSink"
    TANGENCY = "Tangency"


class Closure(Enum):
    NO = "No"
    TYPE1 = "Type1"
    TYPE3 = "Type3"


@dataclass(frozen=True)
class TrajectoryArc:
    tag: str  # "X", "Y" or "FZ"
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

    def holds(self, p: tuple[float, float], tol: float) -> bool:
        """p lies on the segment: inside s_range, within tol of its line."""
        s = self.param_of(p)
        return self.s_range[0] <= s <= self.s_range[1] \
            and math.dist(p, self.point(s)) <= tol

    def line(self, direction: int) -> tuple[float, float, float, int]:
        """The section's line as an affine event (a_x, a_y, b, direction):
        g = dx (y - by) - dy (x - bx), a signed distance times |d|."""
        (bx, by), (dx, dy) = self.base, self.direction
        return (-dy, dx, dy * bx - dx * by, direction)


@dataclass(frozen=True)
class SmoothTrace:
    ts: np.ndarray
    states: np.ndarray
    # "d_hit", "window", "horizon", "section", "settled", "sink"; along D
    # (_slide): "q1_root", "q2_root", a stop's outcome, "window", "horizon"
    status: str
    # each watched ray's crossings by direction, as _Ray.xs keeps them
    crossings: tuple[dict[int, list[float]], ...]


# the step factor is 0.9 err^(-1/8), the DOP853 error estimator being of
# order 7; scipy's solvers raise a smaller rtol to 100 eps
_ERROR_EXPONENT, _MIN_RTOL = -1 / 8, 100 * 2.0 ** -52
# the maxima on [0, 1] of b_1, ..., b_6 of the dense output (_dense_basis):
# x(1-x), x^2(1-x), x^2(1-x)^2, ... at x = 1/2, 2/3, 1/2, 3/5, 1/2, 4/7
_BEND = (1 / 4, 4 / 27, 1 / 16, 108 / 3125, 1 / 64, 6912 / 823543)


@functools.cache
def _dop853_kernel(n: int):
    """The accepted-step loop of DOP853 for n components, generated as
    straight-line float code from the tableau of the dop853 module.

    run(rhs, t, y, f, h_abs, t_bound, direction, rtol, atol, screen, slack,
    traps, ts, ys) takes accepted steps from (t, y), f = rhs(t, *y), with
    the step controller of _integrate, and appends each step's end time
    and state to ts and ys.  With lines in screen, each step also runs the
    3 extra stages and the interpolant's rows of components 0 and 1, and
    keeps the lines that the screen cannot rule out (_integrate).  It
    returns (ok, t, y, f, h_abs, evals, near) when the step size falls
    below its smallest (ok false), or after a step that reaches t_bound,
    keeps a line, or ends in a box (x0, x1, y0, y1) of traps (n >= 2: only
    a step that keeps no line is checked).  evals counts its rhs calls in
    a local: 12 per trial step, one that an overflow cuts short included,
    and 3 per screen.  near is (t_old, t, y_old, y, F, kept) after a step
    that keeps lines, F the rows of every component, or the index into
    traps of the box the step ends in."""
    def lin(coef, i):  # component i of sum_j coef[j] k_j
        terms = [f"{float(c)!r}*k{j}_{i}" for j, c in enumerate(coef) if c]
        return f"({' + '.join(terms)})" if terms else "0.0"

    def names(v):  # the unpacking target v_0, ..., v_{n-1}
        return "".join(f"{v}_{i}, " for i in range(n))

    def args(v):  # the arguments v_0, ..., v_{n-1} of rhs after t
        return ", ".join(f"{v}_{i}" for i in range(n))

    def vec(v):  # the tuple (v_0, ..., v_{n-1})
        return f"({names(v)})"

    def stage(s, c, a):
        state = ", ".join(f"y_{i} + {lin(a[:s], i)}*h" for i in range(n))
        return f"{names(f'k{s}')}= rhs(t + {float(c)!r}*h, {state})"

    def rows(comps):  # the rows F0_i, ..., F6_i of the interpolant
        return [line for i in comps for line in (
            f"F0_{i} = yn_{i} - y_{i}", f"F1_{i} = h*k0_{i} - F0_{i}",
            f"F2_{i} = 2*F0_{i} - h*(k{m}_{i} + k0_{i})",
            *(f"F{3 + r}_{i} = h*{lin(d, i)}" for r, d in enumerate(T.D)))]

    def block(depth, lines):
        return "".join(" " * depth + line + "\n" for line in lines)

    def dot(a, b, v):  # a v_0 + b v_1, over the components lines act on
        return " + ".join(f"{c}*{v}_{i}" for c, i in zip((a, b), seen))

    T, m, e = dop853, dop853.N_STAGES, _ERROR_EXPONENT
    seen = range(min(n, 2))  # k{m} below is f at the end of the step
    y, yn = vec("y"), vec("yn")
    F = "(" + "".join("(" + ", ".join(f"F{r}_{i}" for r in range(7)) + "), "
                      for i in range(n)) + ")"
    extra = [stage(m + 1 + r, c, a)
             for r, (c, a) in enumerate(zip(T.C_EXTRA, T.A_EXTRA))]
    trial = [stage(s, T.C[s], T.A[s]) for s in range(1, m)]
    trial += [f"yn_{i} = y_{i} + h*{lin(T.B, i)}" for i in range(n)]
    trial.append(f"{names(f'k{m}')}= rhs(t + h, {args('yn')})")
    for i in range(n):
        trial += [f"sc_{i} = atol + max(abs(y_{i}), abs(yn_{i}))*rtol",
                  f"r5_{i} = {lin(T.E5, i)}/sc_{i}",
                  f"r3_{i} = {lin(T.E3, i)}/sc_{i}"]
    trial += [f"e5 = {' + '.join(f'r5_{i}*r5_{i}' for i in range(n))}",
              f"e3 = {' + '.join(f'r3_{i}*r3_{i}' for i in range(n))}",
              f"err = abs(h)*e5/sqrt((e5 + 0.01*e3)*{n}) if e5 else 0.0"]
    sieve = extra + rows(seen)
    for i in seen:  # u_r = |F_r|, their sum and the bend off the chord
        sieve += [f"u{r}_{i} = abs(F{r}_{i})" for r in range(7)] + [
            f"reach_{i} = " + " + ".join(f"u{r}_{i}" for r in range(7)),
            f"bend_{i} = " + " + ".join(f"{c!r}*u{r + 1}_{i}"
                                        for r, c in enumerate(_BEND))
            + f" + slack*(abs(y_{i}) + reach_{i})"]
    done = f"True, t_new, {yn}, {vec(f'k{m}')}, h_abs, evals"
    trap = [] if n < 2 else [
        "if traps:",
        "    for j, (x0, x1, y0, y1) in enumerate(traps):",
        "        if x0 <= yn_0 <= x1 and y0 <= yn_1 <= y1:",
        f"            return {done}, j"]
    source = f"""\
def run(rhs, t, y, f, h_abs, t_bound, direction, rtol, atol, screen, slack,
        traps, ts, ys):
    {names('y')}= y
    {names('k0')}= f
    toward = direction*inf
    evals = 0
    while True:
        min_step = 10*abs(nextafter(t, toward) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, t, {y}, {vec('k0')}, h_abs, evals, None
            t_new = t + h_abs*direction
            if direction*(t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            evals += {m}
            try:
{block(16, trial)}\
            except (OverflowError, ZeroDivisionError):
                err = inf
            if err < 1:
                break
            h_abs *= max(0.2, 0.9*err**{e!r})
            rejected = True
        factor = 10.0 if err == 0 else min(10.0, 0.9*err**{e!r})
        h_abs = h_abs*(min(1.0, factor) if rejected else factor)
        kept = None
        if screen:
            evals += {len(extra)}
{block(12, sieve)}\
            kept = []
            for i, (ax, ay, b, sx, sy, sb) in enumerate(screen):
                g0 = {dot('ax', 'ay', 'y')} + b
                if abs(g0) > {dot('sx', 'sy', 'reach')}:
                    continue
                g1 = {dot('ax', 'ay', 'yn')} + b
                if g0*g1 > 0.0 and \\
                        min(abs(g0), abs(g1)) > {dot('sx', 'sy', 'bend')} + sb:
                    continue
                kept.append(i)
        ts.append(t_new)
        ys.append({yn})
        if kept:
{block(12, rows(range(len(seen), n)))}\
            return {done}, (t, t_new, {y}, {yn}, {F}, kept)
{block(8, trap)}\
        if t_new == t_bound:
            return {done}, None
        t = t_new
        {names('y')}= {names('yn')}
        {names('k0')}= {names(f'k{m}')}
"""
    return _generate(source, f"dop853-{n}", sqrt=math.sqrt,
                     nextafter=math.nextafter)["run"]


def _rms(v: list[float]) -> np.float64:
    """Root mean square of the floats v, to the bit numpy's
    norm(v) / sqrt(len(v)), which for a real vector is sqrt(v.dot(v)):
    the dot product stays numpy's, as a sum of squares in Python rounds
    differently (numpy's dot may fuse a multiply and an add), and the
    result a numpy scalar, so that _initial_step divides by a zero step
    or norm as numpy does, to inf or nan."""
    a = np.array(v)
    return np.sqrt(a.dot(a)) / len(v) ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Starting step size of Hairer, Norsett and Wanner (Solving ODEs I,
    section II.4) for an error estimator of order 7, with the operations
    of scipy's select_initial_step in its order, so that a solve takes
    scipy's first step.  y0 and f0 are lists of floats, and the
    arithmetic is on floats but for the norms (_rms), whose numpy scalars
    carry numpy's inf and nan into every quotient; fun is called once,
    unless the interval is empty."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = float(min(h0, interval_length))
    step = h0 * direction
    f1 = fun(t0 + step, [v + step * f for v, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval_length)


def _integrate(rhs, y0, t_end: float, tols: Tolerances, lines=(),
               t0: float = 0.0, traps=()) -> tuple:
    """Solve y' = rhs(t, *y) from t0 to t_end with DOP853 at
    rtol = tols.root, atol = tols.root / 100; the accepted-step loop and
    the screen of the event lines run as straight-line float code
    (_dop853_kernel).  rhs receives the state's components as its
    arguments after t and returns a sequence.  A t_end before t0 solves
    backward, every direction below being the solve's: bit for bit, the
    solve of -rhs(-t, *y) from -t0 to -t_end with its times negated.

    The solve follows scipy's solve_ivp with method DOP853: the tableau
    (dop853), the initial step (_initial_step), the step controller (safety
    0.9, step factors 0.2 to 10, exponent -1/8, a smallest step of 10 ulps
    of t), the clamp of each step to t_end and the right-hand side
    evaluations: one for f(t0), one for the initial step, 12 per trial step
    and 3 per dense output (each step makes one when there are lines),
    which WORK counts as rhs_evaluations; a trial step that an overflow
    cuts short counts as 12.
    Each step replays scipy's to rounding; the sums of its error estimate
    run in another order, so later step sizes can differ in their last
    digits.  Every call passes floats to rhs, and _initial_step's norms
    are numpy's to the bit (_rms).  Where float arithmetic raises an
    OverflowError or ZeroDivisionError, f(t0) and the initial step's
    evaluation take numpy's inf or nan, calling rhs again on numpy
    scalars, and a trial step is rejected, as inf and nan do in numpy's
    arithmetic.

    lines holds affine events (a_x, a_y, b, direction[, accept]) on the
    first two components, g = a_x y_0 + a_y y_1 + b (a_y = 0 for one).
    Each accepted step builds the rows F_j of its interpolant
    g0 + sum_j (a.F_j) b_j(x) and screens every line.  The line keeps its
    sign over the step, and is dropped, when |g0| > sum_j |a.F_j|, each b_j
    being at most 1 on [0, 1]; or when g0 and g1 = g(1) share a sign and
    both exceed sum_{j>=1} |a.F_j| max|b_j| (_BEND), the most that the
    interpolant bends away from its chord, plus a slack of tols.root
    relative to the terms of g, so that no root of g comes within
    tols.root of the step either.  Only a step that keeps a line goes to
    _crossing, and the first crossing in its line's direction (0: either)
    that accept(t, state, way) approves, way the sign of g's change there,
    ends the solve; a start on a line moving in its direction is a
    crossing.

    traps holds boxes (x0, x1, y0, y1) of the first two components.  A
    step that keeps no line and ends in one of them ends the solve there;
    a step that keeps a line goes to _crossing, so a crossing still comes
    first.

    Returns (ts, ys, hit): the times and the states, one per row, of the
    steps' ends from t0; hit is (index into lines, time, state) of the
    crossing that ends the solve, (len(lines) + index into traps, time,
    state) of the step's end in a box, or None, and ts, ys end at it.
    Raises StepFailure when the step size falls below its smallest."""
    WORK["solves"] += 1
    y = [float(v) for v in y0]
    if not all(map(math.isfinite, y)):
        raise ValueError("All components of the initial state `y0` "
                         "must be finite.")
    t0, t_end = float(t0), float(t_end)
    rtol, atol = max(tols.root, _MIN_RTOL), tols.root / 100
    direction = math.copysign(1.0, t_end - t0) if t_end != t0 else 1.0

    def fun(t, s):  # numpy's inf or nan where float arithmetic raises
        WORK["rhs_evaluations"] += 1
        try:
            return [float(v) for v in rhs(t, *s)]
        except (OverflowError, ZeroDivisionError):
            WORK["rhs_evaluations"] += 1
            return np.asarray(rhs(t, *np.array(s)), dtype=float).tolist()

    f = fun(t0, y)
    h_abs = float(_initial_step(fun, t0, y, t_end, f, direction, rtol,
                                atol))
    t = t0
    ts, ys, hit = [t], [y], None
    if t == t_end:  # an empty interval ends where it starts, as in scipy
        ts.append(t)
        ys.append(y)
    run = _dop853_kernel(len(y))
    # each line as the screen reads it: a, b, |a| and the slack of b
    screen = [(ax, ay, b, abs(ax), abs(ay), tols.root * abs(b))
              for ax, ay, b, *_ in lines]
    while hit is None and direction * (t - t_end) < 0:
        ok, t, y, f, h_abs, evals, near = run(
            rhs, t, y, f, h_abs, t_end, direction, rtol, atol, screen,
            tols.root, traps, ts, ys)
        WORK["rhs_evaluations"] += evals
        if not ok:
            raise StepFailure("Required step size is less than spacing "
                              "between numbers.")
        if near is not None:
            hit = (len(lines) + near, t, y) if isinstance(near, int) \
                else _crossing(lines, tols, t0, *near)
    if hit is not None:  # the last step ends at or past the crossing
        _, t_hit, state = hit
        while ts and direction * (ts[-1] - t_hit) >= 0:
            del ts[-1], ys[-1]
        ts.append(t_hit)
        ys.append(state)
    return np.array(ts), np.array(ys), hit


def _crossing(lines, tols: Tolerances, t0: float, t, t_new, y, y_new, F,
              kept):
    """First approved crossing, in the solve's direction, of a line of
    kept, the lines that the screen left of a solve from t0, inside the
    step from (t, y) to (t_new, y_new) whose interpolant has the rows F by
    component, as (index, time, state), or None.

    Where g is monotone (its derivative's constant term outweighs the
    rest) it crosses at most once, where its end values change sign,
    and _polish_root places that crossing; only the other lines get an
    exact root count of g's interpolant.  The state at a crossing is
    the interpolant's (_interpolate).  A line whose interpolant is
    identically zero raises NotTransversal, unless it is a watched ray
    (_Ray)."""
    WORK["crossing_searches"] += 1
    h = t_new - t
    ahead = 1.0 if h > 0 else -1.0  # the solve's direction
    two = len(y) > 1
    Fx = F[0]
    Fy = F[1] if two else (0.0,) * len(Fx)
    first = None
    for k in kept:
        ax, ay, b, direction, *accept = lines[k]
        g0 = ax * y[0] + (ay * y[1] if two else 0.0) + b
        gF = [ax * fx + ay * fy for fx, fy in zip(Fx, Fy)]
        if g0 == 0.0 and not any(gF):
            if accept and isinstance(accept[0], _Ray):
                continue  # a watched ray is no event
            raise NotTransversal("trajectory runs along an event line")
        # g in powers of x = (t - t_old) / h; monotone where its
        # derivative's constant term outweighs the rest
        c = [g0] + [0.0] * len(Fx)
        for j, p, bp in _dense_basis(len(Fx)):
            c[p] += gF[j] * bp
        if abs(c[1]) > sum(abs(c[p] * p) for p in range(2, len(c))):
            g1 = ax * y_new[0] + (ay * y_new[1] if two else 0.0) + b
            # a zero at a later step's start was the last step's end
            if g0 * g1 > 0 or direction * (g1 - g0) < 0 \
                    or (g0 == 0.0 and t != t0):
                continue
            roots = [(0.0 if g0 == 0.0 else 1.0 if g1 == 0.0
                      else _polish_root(c, 0.0, 1.0, tols.root),
                      1 if g1 > g0 else -1)]
        else:
            roots = []
            for r, mult in univariate_roots(c, (0.0, 1.0), tols):
                # an odd root crosses, in the direction of g's first
                # nonzero derivative there
                slope = _polyval(r, _polyder(c, mult))
                if mult % 2 == 1 and slope != 0.0 \
                        and direction * slope >= 0:
                    roots.append((r, 1 if slope > 0 else -1))
        for r, way in roots:
            r = min(max(r, 0.0), 1.0)
            tc = t_new if r == 1.0 else t + r * h
            if first is not None and ahead * (tc - first[1]) >= 0:
                break
            state = _interpolate(F, y, (tc - t) / h)
            if not accept or accept[0](tc, state, way):
                first = (k, tc, state)
                break
    return first


def _interpolate(F, y, x: float) -> tuple:
    """y + sum_j F_j b_j(x), a step's interpolant at the fraction x of the
    step, with F its rows by component: the floats of scipy's DOP853
    dense output, whose operations it does in their order."""
    x1 = 1.0 - x
    return tuple((((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2)
                    * x + f1) * x1 + f0) * x + v
                 for (f0, f1, f2, f3, f4, f5, f6), v in zip(F, y))


@functools.cache
def _dense_basis(power: int) -> tuple:
    """The nonzero coefficients (j, power, coefficient), by ascending j, of
    b_j = x, x(1-x), x^2(1-x), x^2(1-x)^2, ...: a DOP853 step's dense
    output is y_old + sum_j F_j b_j(x) in the fraction x of the step."""
    terms, p = [], [1.0]
    for j in range(power):
        # times x, or times 1 - x: small integers, so every product is exact
        xp = [0.0] + p
        p = xp if j % 2 == 0 else [a - b for a, b in zip(p + [0.0], xp)]
        terms += [(j, k, v) for k, v in enumerate(p) if v]
    return tuple(terms)


class _Ray:
    """accept of the line y = y_c watched as the ray x > x_c: it records
    each crossing of the ray in the list of its direction and approves the
    one at which the branch has settled (probe_saddle_connections)."""

    def __init__(self, xc: float, close: float):
        self.xc, self.close, self.xs = xc, close, {1: [], -1: []}

    def __call__(self, t, state, way) -> bool:
        if state[0] <= self.xc:
            return False
        xs = self.xs[way]
        xs.append(float(state[0]))
        if len(xs) < 3:
            return False
        d1, d2 = abs(xs[-2] - xs[-3]), abs(xs[-1] - xs[-2])
        return 0.0 < d2 < d1 and d2 * (d2 / d1) / (1 - d2 / d1) <= self.close


def integrate_smooth(X: PolyVectorField, p0: tuple[float, float],
                     horizon: float, window: Window,
                     d_direction: int = 0,
                     section: Section | None = None,
                     tols: Tolerances | None = None,
                     with_divergence: bool = False,
                     rays: Sequence[tuple[float, float]] = (),
                     sinks: Sequence[Window] = ()) -> SmoothTrace:
    """Adaptive DOP853 trace of X from p0, stopping at the first y=0
    crossing (in the given direction), window exit or horizon, with status
    'settled' once a watched ray has settled, or with status 'sink' at the
    end of a step in one of the boxes of sinks, which hold no crossing to
    look for (sink_trap).  A negative horizon traces X back in time.

    d_direction: -1 catches downward crossings (flows in N), +1 upward,
    0 both.  An optional section event stops the trace at a transversal
    crossing of the segment in either direction; crossings of its line
    outside the parameter range do not stop it.
    with_divergence accumulates the integral of div X as a third state
    component.  Each point (x_c, y_c) of rays is watched as the ray
    {y = y_c, x > x_c}: one line in both directions, whose _Ray keeps the
    crossings of each direction apart; they come back in
    SmoothTrace.crossings, one entry per ray.

    One solve: the events are affine lines, which the stepper checks on
    each step's dense output (_integrate), so a step that jumps a pair of
    crossings does not hide them.  A section crossing at p0 itself does not
    count.
    """
    tols = tols or default_tols()
    # affine events (a_x, a_y, b, direction): y = 0, the window's sides
    # x1, x0, y1, y0, and the section's line within its parameter range
    wx0, wx1, wy0, wy1 = window
    lines = [(0.0, 1.0, 0.0, d_direction),
             (1.0, 0.0, -wx1, 1), (1.0, 0.0, -wx0, -1),
             (0.0, 1.0, -wy1, 1), (0.0, 1.0, -wy0, -1)]
    if section is not None:
        lo, hi = section.s_range
        lines.append((*section.line(0), lambda t, s, way:
                      t > 1e-12 and lo <= section.param_of(s) <= hi))
    events = len(lines)
    watched = [_Ray(xc, tols.close) for xc, _ in rays]
    lines += [(0.0, 1.0, -yc, 0, ray) for ray, (_, yc) in zip(watched, rays)]
    ts, ys, hit = _integrate(X.rhs(with_divergence),
                             list(p0) + ([0.0] if with_divergence else []),
                             horizon, tols, lines, traps=sinks)
    status = "horizon"
    if hit is not None:
        kind, _, end = hit
        if kind >= len(lines):
            status = "sink"
        elif kind >= events:
            status = "settled"
        else:
            status = {0: "d_hit", 5: "section"}.get(kind, "window")
        if kind == 0:   # the run goes on from the point of D
            ys[-1, 1] = 0.0
    return SmoothTrace(ts, ys, status, tuple(ray.xs for ray in watched))


def _slide(Z: PiecewiseField, x0: float, horizon: float, window: Window,
           tols: Tolerances, stops=()) -> SmoothTrace:
    """The motion along D from (x0, 0) under the 1-D Filippov field, back
    in time for a negative horizon: a SmoothTrace of the points (x, 0)
    whose status is its outcome, that of the nearest odd root ahead of
    Q_X(x, 0) ('q1_root'), Q_Y(x, 0) ('q2_root') or p for a pair
    (outcome, p) of stops, else 'window' or 'horizon'.  The motion is
    monotone between zeros of its field, so that root, of those the D
    census caches (roots_on_d), goes to the solver as one line x = r.  A
    start, or a root of Q_X or Q_Y ahead, at which a stop's p is within
    tols.sign of 0 takes that stop's outcome, the start as a motion of
    length zero."""
    for name, p in stops:
        if abs(p(x0, 0.0)) <= tols.sign:
            return SmoothTrace(np.array([0.0]), np.array([[x0, 0.0]]), name,
                               ())
    rhs = Z.slide_rhs()
    ahead = 1 if math.copysign(1.0, horizon) * rhs(0.0, x0)[0] > 0 else -1
    outcome, x_stop = "window", window[1] if ahead > 0 else window[0]
    for name, p in (("q1_root", Z.X.Q), ("q2_root", Z.Y.Q), *stops):
        for r, mult in roots_on_d(p, window[:2], tols):
            if mult % 2 and 0 < ahead * (r - x0) < ahead * (x_stop - x0):
                outcome, x_stop = name, r
    if outcome in ("q1_root", "q2_root"):
        outcome = next((name for name, p in stops
                        if abs(p(x_stop, 0.0)) <= tols.sign), outcome)
    ts, ys, hit = _integrate(rhs, [x0], horizon, tols,
                             [(1.0, 0.0, -x_stop, ahead)])
    return SmoothTrace(ts, np.column_stack([ys, np.zeros_like(ys)]),
                       outcome if hit else "horizon", ())


# arc outcomes that end a hybrid run, with the run's last event
_ENDS = {"window": EventKind.WINDOW_EXIT, "horizon": EventKind.TIME_BUDGET,
         "section": EventKind.SECTION_CROSSING,
         "fz_singularity": EventKind.REACH_FZ_SINGULARITY,
         "sink": EventKind.ENTER_SINK}
# a run that needs more arcs ends with TimeBudget, so crossings that pile
# up at one point of D in finite time cannot loop forever
_MAX_ARCS = 64


def _from_d(Z: PiecewiseField, x: float, arriving: str,
            tols: Tolerances) -> tuple[str | None, EventKind]:
    """Where a run goes from the point (x, 0) of D, reached from side
    arriving ("N" or "S"; "D" at the run's start), as (side, event):
    across a sewing point into the other side, or at a start the side its
    fields point to (CrossingAtSewing); onto a slide ("SLIDE",
    EnterSliding); or on in arriving past a fold of its field that curves
    back (FoldGraze, dline.fold_test).  side None ends the run, with
    NonUniqueForward at an escaping point and with Tangency at any other
    tangency, where forward motion is not decided (Guardia, Seara and
    Teixeira, J. Differential Equations 250, 2011)."""
    cls = dline.classify_point(Z, x, tols)
    if cls.tag is PointTag.SEWING:
        side = {"N": "S", "S": "N"}.get(arriving, "N" if cls.xf > 0 else "S")
        return side, EventKind.CROSSING_AT_SEWING
    if cls.tag is PointTag.SLIDING:
        return "SLIDE", EventKind.ENTER_SLIDING
    if cls.tag is PointTag.ESCAPING:
        return None, EventKind.NON_UNIQUE_FORWARD
    if arriving != "D":
        lie2, _, fold = dline.fold_test(Z, "X" if arriving == "N" else "Y",
                                        x, tols)
        if fold and (lie2 > 0) == (arriving == "N"):
            return arriving, EventKind.FOLD_GRAZE
    return None, EventKind.TANGENCY


def advance_hybrid(Z: PiecewiseField, p0: tuple[float, float], side: str,
                   horizon: float, window: Window,
                   tols: Tolerances | None = None,
                   section: Section | None = None,
                   with_divergence: bool = False,
                   sinks: Sequence[Window] = ()) -> PolyTrajectory:
    """Alternate smooth and sliding arcs under the Filippov rules.

    side: 'N', 'S' or 'D' (consistent with p0; a start on D may also name
    the side that _from_d gave it).  A start on D with side 'D' and each D
    hit go on as _from_d says.  A slide is the motion along D (_slide)
    that stops at the zeros of det[X, Y] as 'fz_singularity'; one that
    ends at a tangency exits at a fold (dline.fold_test), and ends with
    Tangency at any other.  A return to a section ends the run with a
    SectionCrossing event (return maps): for a run from off D, a
    transversal crossing of it (integrate_smooth); for a run from D, a
    sewing crossing back into the side it started on, after t = 1e-9, at
    a point of the section (Section.holds), which a section across D has
    only where it meets D.  with_divergence integrates div along each
    smooth arc into TrajectoryArc.divergence.  sinks are the boxes of
    sink_trap, each of the field of its side: an arc of X (Y) that
    reaches one in N (S) ends the run with an EnterSink event, as it
    would otherwise stay there to the horizon.
    """
    WORK["hybrid_runs"] += 1
    tols = tols or default_tols()
    traj = PolyTrajectory()
    t = 0.0
    p = (float(p0[0]), float(p0[1]))

    def record(kind: EventKind):
        traj.events.append(TrajectoryEvent(t, kind, p))

    def close():
        tags = {a.tag for a in traj.arcs}
        if tags <= {"X", "Y"}:
            traj.closed = Closure.TYPE1
        elif "FZ" in tags and any(e.kind is EventKind.EXIT_AT_FOLD
                                  for e in traj.events):
            traj.closed = Closure.TYPE3
        record(EventKind.CLOSED)

    if side == "D":
        side, kind = _from_d(Z, p[0], "D", tols)
        if side is None:
            record(kind)
            return traj

    start, start_side = p, side
    started_on_d = abs(p[1]) <= tols.event
    # a run from D meets its section at sewing crossings, not as a line
    d_section, section = (section, None) if started_on_d else (None, section)
    crossings: list[tuple[float, str]] = []
    for _ in range(_MAX_ARCS):
        if t >= horizon:
            record(EventKind.TIME_BUDGET)
            break
        if side in ("N", "S"):
            tag, fld, ddir = ("X", Z.X, -1) if side == "N" \
                else ("Y", Z.Y, 1)
            tr = integrate_smooth(fld, p, horizon - t, window, ddir,
                                  section, tols, with_divergence,
                                  sinks=[b for b in sinks
                                         if (b[2] > 0) == (side == "N")])
        else:
            tag = "FZ"
            tr = _slide(Z, p[0], horizon - t, window, tols,
                        [("fz_singularity", dline.det_xy(Z))])
        traj.arcs.append(TrajectoryArc(
            tag, tr.ts + t, tr.states[:, :2],
            float(tr.states[-1, 2]) if tr.states.shape[1] > 2 else None))
        t += float(tr.ts[-1])
        outcome = tr.status
        p = (float(tr.states[-1, 0]), float(tr.states[-1, 1]))
        if outcome in _ENDS:
            record(_ENDS[outcome])
            WORK["trap_exits"] += outcome == "sink"
            break
        if outcome == "d_hit":
            new_side, kind = _from_d(Z, p[0], side, tols)
        else:  # a slide's end at a root of Q_X (q1_root) or Q_Y
            new_side = "N" if outcome == "q1_root" else "S"
            if dline.fold_test(Z, "X" if new_side == "N" else "Y", p[0],
                               tols)[2]:
                kind = EventKind.EXIT_AT_FOLD
            else:
                new_side, kind = None, EventKind.TANGENCY
        if kind is EventKind.CROSSING_AT_SEWING:
            # a repeated crossing means the trajectory is periodic; only
            # needed for seeds off D, where the start-point proximity
            # check below can never fire
            if not started_on_d and any(
                    abs(p[0] - xc) <= tols.close and sc == new_side
                    for xc, sc in crossings):
                close()
                break
            crossings.append((p[0], new_side))
        record(kind)
        if new_side is None:
            break
        side = new_side
        if kind in (EventKind.FOLD_GRAZE, EventKind.EXIT_AT_FOLD):
            # on with the field of side, nudged off D into it
            p = (p[0], math.copysign(tols.event, 1 if side == "N" else -1))
        elif kind is EventKind.CROSSING_AT_SEWING and side == start_side \
                and t > 1e-9 and d_section and d_section.holds(p, tols.event):
            record(EventKind.SECTION_CROSSING)
            break
        # closure check at transition points on D
        if abs(p[1]) <= tols.close and len(traj.arcs) >= 2 \
                and math.hypot(p[0] - start[0], p[1] - start[1]) <= tols.close:
            close()
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
    half turn between two rays of one line), within 1.5 t_span, found by
    the stepper on each step's dense output as in integrate_smooth."""
    tols = tols or default_tols()
    # g of the line grows where the speed across it is negative
    arrive = [sec1.line(-1 if _normal_speed(X, p1, sec1.direction) > 0
                        else 1)]
    *_, hit = _integrate(X.rhs(divergence=True), [p0[0], p0[1], 0.0],
                         t_span * 1.5, tols, arrive)
    if hit is None:
        raise NoReturn("orbit did not reach the target section")
    end = hit[2]
    return _transition_factor(X, p0, sec0.direction, end, sec1.direction,
                              float(end[2]), tols)


def _normal_speed(X: Callable, p, direction) -> float:
    """Speed of the field X across a line with the given direction at p."""
    v = X(float(p[0]), float(p[1]))
    return v[0] * direction[1] - v[1] * direction[0]


def _transition_factor(X: Callable, p0, direction0, p1, direction1,
                       divergence: float, tols: Tolerances) -> float:
    """Derivative (n0 / n1) exp(divergence) of the transition map along an
    orbit of the field X from p0 to p1, between lines with the directions
    direction0 at p0 and direction1 at p1: n0 and n1 are the speeds of X
    across them (_normal_speed), divergence the integral of div X along
    the orbit.  Raises NotTransversal when |n0| or |n1| <= tols.sign."""
    n0 = _normal_speed(X, p0, direction0)
    n1 = _normal_speed(X, p1, direction1)
    if abs(n0) <= tols.sign or abs(n1) <= tols.sign:
        raise NotTransversal("orbit meets a section tangentially")
    return (n0 / n1) * math.exp(divergence)


class LeftWindow(NoReturn):
    """A return map's run from D left the window on its first arc, with
    no other event; s is the parameter it started from."""

    def __init__(self, s: float):
        super().__init__(f"no return from s={s}: the run left the window")
        self.s = s


def return_map(Z: PiecewiseField, section: Section, s0: float,
               horizon: float, window: Window,
               tols: Tolerances | None = None,
               with_derivative: bool = True,
               sinks: Sequence[Window] = (),
               side: str | None = None) -> tuple[float, float | None]:
    """First-return parameter s1 of the hybrid flow from section(s0) and
    its derivative eta'(s0) (return_derivative), from one advance_hybrid
    run that ends at the first return to section, or raises NoReturn at an
    end of another kind, among them the entry into one of the boxes of
    sinks; a run from D may also close at its start, and one whose one arc
    leaves the window raises LeftWindow.  side is the side that _from_d
    gives a seed on a sewing arc of D, for a caller that has classified it
    already."""
    WORK["return_maps"] += 1
    tols = tols or default_tols()
    p = section.point(s0)
    on_d = abs(p[1]) <= tols.event
    if not on_d:
        side = "N" if p[1] > 0 else "S"
    elif side is None:
        side, kind = _from_d(Z, p[0], "D", tols)
        if kind is not EventKind.CROSSING_AT_SEWING:
            raise NoReturn("D-section seed not on a sewing arc")
    traj = advance_hybrid(Z, p, side, horizon, window, tols, section,
                          with_divergence=with_derivative, sinks=sinks)
    ends = (EventKind.SECTION_CROSSING, EventKind.CLOSED) if on_d \
        else (EventKind.SECTION_CROSSING,)
    if not traj.events or traj.events[-1].kind not in ends:
        if on_d and [e.kind for e in traj.events] == [EventKind.WINDOW_EXIT]:
            raise LeftWindow(s0)
        raise NoReturn(f"no return from s={s0}")
    s1 = section.param_of(traj.end_state())
    if not with_derivative:
        return s1, None
    return s1, return_derivative(Z, traj, section.direction, tols)


def return_derivative(Z: PiecewiseField, traj: PolyTrajectory,
                      direction: tuple[float, float],
                      tols: Tolerances) -> float:
    """eta' of a run from a section with the given direction back to it,
    integrated with_divergence: the product over its smooth arcs of the
    transition-map derivatives (_transition_factor), n being the arc
    field's speed across the section at the two ends of the run and across
    D (-Q(x, 0)) at sewing crossings, so the Q_Y/Q_X ratio of each
    crossing falls out of the product.  A run through a sliding arc or a
    fold graze, or one that meets the section or D with |n| <= tols.sign,
    raises NotTransversal."""
    if any(a.tag == "FZ" for a in traj.arcs) or any(
            e.kind is EventKind.FOLD_GRAZE for e in traj.events):
        raise NotTransversal("return passes a sliding arc or a fold graze")
    eta_prime = 1.0
    last_arc = len(traj.arcs) - 1
    for k, arc in enumerate(traj.arcs):
        eta_prime *= _transition_factor(
            Z.X if arc.tag == "X" else Z.Y,
            arc.states[0], direction if k == 0 else _D_DIRECTION,
            arc.states[-1], direction if k == last_arc else _D_DIRECTION,
            arc.divergence, tols)
    return eta_prime


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
        def rhs(theta, rho, integral, A=A, R=R):
            return tf.slope(A, R, theta, rho)
        _, ys, _ = _integrate(rhs, state, theta1, tols, t0=theta0)
        state = [float(v) for v in ys[-1]]
    return state[0], math.exp(state[1])


@dataclass(frozen=True)
class SinkTrap:
    """A certified trap around a node or focus p of a field, attracting in
    time direction (1 forward, -1 backward): the Lyapunov function
    V(u) = u^T M u, with M = [[m11, m12], [m12, m22]] exact (lyapunov),
    decreases along the flow in that direction on the whole level set
    {V = level}, so no trajectory traced that way leaves {V <= level},
    which lies in the disc of the given radius around p, that of the
    uncut trap (sink_trap).  box is a square around p inside {V <= level}."""

    point: tuple[float, float]
    lyapunov: tuple[Fraction, Fraction, Fraction]
    level: Fraction
    radius: float
    box: Window
    direction: int


def sink_trap(X: PolyVectorField, point: tuple[float, float],
              window: Window, tols: Tolerances,
              margin: float = 0.0) -> SinkTrap | None:
    """A trap around the zero p = point of X, a node or focus, in the time
    direction in which it attracts, or None when none is proved: the
    region-of-attraction estimate of a quadratic Lyapunov function (Khalil,
    Nonlinear Systems, section 8.2).

    The doubles are integers over powers of two, so the Taylor
    coefficients of P and Q at p are exact (polys.taylor_at), and so is
    A = [[a, b], [c, d]], the linear part of X at p, negated with every
    Taylor coefficient where its trace T > 0 (-X, X's flow backward in
    time).  A is stable when T < 0 and det A > 0, and then M solves
    A^T M + M A = -I exactly: M = [[det A + c^2 + d^2, -(a c + b d)],
    [-(a c + b d), det A + a^2 + b^2]] / (-2 T det A).  The rest is
    bounded by |X(p + u) - A u| <= C_0 + sum_{k>=2} C_k |u|^k, with C_k
    the sum of the absolute Taylor coefficients of degree k; C_0 is kept,
    as p is a Newton iterate, not an exact zero.  So V(u) = u^T M u has
    V' = 2 u^T M X(p + u) < 0 wherever r = |u| satisfies
    g(r) = 2 |M| (C_0 / r + sum_{k>=2} C_k r^(k-1)) < 1, and as g is
    convex, on the whole level set {V = c} once g < 1 at both ends of the
    r it spans.  With lam at least the largest eigenvalue of M (and |M|)
    and mu = det M / lam at most the smallest, {V = c} spans r from
    sqrt(c / lam) to sqrt(c / mu).  The outer radius rho, c = mu rho^2, is
    the largest found, by halving and then bisection, for which both ends
    pass and the disc of radius rho lies inside the window, at least
    tols.event off D; the box is the square of half-side sqrt(c / lam) /
    sqrt(2), inside {V <= c}.  Each step of the search decides g < 1 in
    exact arithmetic, so the radius it ends at is proved as found, and
    the float differences that place the disc and the box carry a margin
    of 4 ulps of their operands.

    A margin > 0 cuts the trap to the level c' = mu (sqrt(c / lam) -
    margin)^2, whose outer radius sqrt(c' / mu) lies margin inside the
    inner radius sqrt(c / lam) of {V = c}: every point within margin of
    {V <= c'} lies in {V <= c}.  The cut level is proved as c is, or None
    is returned; the box is the square of {V <= c'}, and radius stays that
    of {V <= c}, whose search is cached on X for every margin."""
    px, py = float(point[0]), float(point[1])
    cut = _cached(X, "_traps", (px, py, tuple(window), tols),
                  lambda: _trap_search(X, px, py, window, tols))
    return cut(margin) if cut else None


def _trap_search(X: PolyVectorField, px: float, py: float, window: Window,
                 tols: Tolerances) -> Callable | None:
    """sink_trap's search at (px, py): its trap's cut to a margin, or None."""
    from fractions import Fraction  # here, as the import costs ms

    WORK["trap_searches"] += 1

    (tp, tq), e = taylor_at((X.P, X.Q), px, py)    # each over 2**e
    # where the trace is positive, -X: X's flow backward in time
    direction = -1 if tp.get((1, 0), 0) + tq.get((0, 1), 0) > 0 else 1
    tp, tq = ({k: direction * n for k, n in t.items()} for t in (tp, tq))
    a, b, c, d = tp.get((1, 0), 0), tp.get((0, 1), 0), \
        tq.get((1, 0), 0), tq.get((0, 1), 0)
    trace, det = a + d, a * d - b * c
    if trace >= 0 or det <= 0:          # not a node or focus
        return None
    deg = max(X.P.degree, X.Q.degree)
    C = [0] * (deg + 1)                 # C_1 stays 0: A u is the linear part
    for (k, l), n in [*tp.items(), *tq.items()]:
        if k + l != 1:
            C[k + l] += abs(n)
    # M = kappa N: with a, b, c, d over 2**e, N's entries are over
    # 2**(2 e) and kappa = 2**e / (-2 trace det)
    n11, n12, n22 = det + c * c + d * d, -(a * c + b * d), det + a * a + b * b
    disc = (n11 - n22) ** 2 + 4 * n12 * n12
    root = math.isqrt(disc)
    root += root * root < disc          # at least sqrt(disc)
    # N's largest eigenvalue is at most lam_N = (n11 + n22 + root) / 2, so
    # 2 |M| C_k / 2**e <= lam_N C_k / (-trace det) = C_k num / den
    num, den = n11 + n22 + root, -2 * trace * det
    # the inner radius over the outer, at most sqrt(mu / lam), the same
    # for N as for M
    det_n = n11 * n22 - n12 * n12
    ratio = math.nextafter(2 * math.isqrt(det_n) / num, 0.0)
    # the disc's room in the window and off D, less 4 ulps of the largest
    # operand: each difference is off by at most half of one
    room = min(px - window[0], window[1] - px, py - window[2],
               window[3] - py, abs(py) - tols.event) \
        - 4 * math.ulp(max(map(abs, (px, py, *window))) + tols.event)
    if room <= 0 or ratio <= 0.0:
        return None

    def proved(r: float) -> bool:
        # g(r) < 1, exactly: r = n / 2**q, times n 2**(q (deg - 1))
        (n,), q = _dyadic((r,))
        return num * sum(ck * n ** k << q * (deg - k)
                         for k, ck in enumerate(C)) \
            < den * n << q * (deg - 1)

    def passes(rho: float) -> bool:     # g < 1 at both ends of {V = c}
        return proved(rho) and proved(math.nextafter(rho * ratio, 0.0))

    rho = math.nextafter(room, 0.0)
    if not passes(rho):
        # the set of rho that pass is an interval, as both radii are
        # convex in rho: halve down into it, then bisect its upper end
        for _ in range(64):
            rho /= 2
            if passes(rho):
                break
        else:
            return None
        lo, hi = rho, 2 * rho
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        rho = lo
    kappa = Fraction(1 << e, den)
    lyapunov = (kappa * n11, kappa * n12, kappa * n22)

    def cut(margin: float) -> SinkTrap | None:
        inner, outer = math.nextafter(rho * ratio, 0.0), rho
        if margin:  # the outer radius sqrt(c' / mu), below inner - margin
            outer = math.nextafter(inner - margin, 0.0)
            if outer <= 0.0 or not passes(outer):
                return None
            inner = math.nextafter(outer * ratio, 0.0)
        # the half-side, below inner / sqrt(2) past its two roundings, and
        # each side of the box less 4 ulps of |v| + h off, so at most h off
        h = inner / math.sqrt(2.0) * (1 - 1e-12)
        box = tuple(v + s * (h - 4 * math.ulp(abs(v) + h))
                    for v, s in ((px, -1), (px, 1), (py, -1), (py, 1)))
        # c = mu rho^2 = kappa^2 det_N / (kappa lam_N) rho^2
        return SinkTrap((px, py), lyapunov,
                        kappa * Fraction(2 * det_n, num)
                        * Fraction(outer) ** 2, rho, box, direction)
    return cut


def _traps(Z: PiecewiseField, rays: dict | None, window: Window,
           tols: Tolerances, margin: float = 0.0) -> list:
    """(kind, trap) for each point of rays[kind], kind "X" or "Y", at which
    sink_trap proves a trap of kind's field, cut to margin."""
    return [(kind, t) for kind, F in (("X", Z.X), ("Y", Z.Y))
            for p in (rays or {}).get(kind, ())
            if (t := sink_trap(F, p, window, tols, margin))]


# the errors of a census run: the run is skipped and the census goes on
_RUN_ERRORS = (NoReturn, NotTransversal, StepFailure)


class _KnownCycle(Exception):
    """A census seed's return landed on a cycle already found."""


@dataclass(frozen=True)
class ClosedOrbit:
    trajectory: PolyTrajectory
    closure: Closure
    elementary: str  # "yes", "no", "undetermined"
    certificate: dict


def find_closed_polytrajectories(Z: PiecewiseField, window: Window,
                                 tols: Tolerances | None = None,
                                 rays: dict | None = None
                                 ) -> list[ClosedOrbit]:
    """Heuristic census of closed poly-trajectories, each run up to
    CENSUS_HORIZON.

    Type-1 candidates come from fixed points of the D-section return map
    started at the DEFAULT_SEEDS on sewing arcs (secant iteration); type-3
    candidates from hybrid runs seeded at fold points.  Misses are
    possible; the search is a semi-decision.  Every run watches the boxes
    of the traps that sink_trap proves forward in time at the points of
    rays["X"] for X and rays["Y"] for Y (the nodes, foci and centers of
    each field, as the connection probe gets them) where the divergence
    is negative, as no other trap attracts forward; a run ends in one with
    an EnterSink event: the box lies in a forward-invariant disc that
    meets neither D, the census's section, nor the window's sides, so
    such a run would end with TimeBudget, and neither returns nor closes.

    A seed stops once it can only lead to a cycle already found, that is,
    to within SAME_CYCLE of a D crossing x* recorded for one: before any
    run when the seed itself lies there, and during its secant when a
    return eta(s) lands there.  The return map is non-decreasing on a
    sewing arc, so a fixed point s' between s and x* has s' = eta(s') >=
    eta(s) >= x* - SAME_CYCLE when s < x*, and the mirror bound when
    s > x*: every such fixed point is within SAME_CYCLE of x*, the known
    cycle.  A secant that converges is checked against x* once more.

    Two more kinds of run are skipped, as their outcome is proved:

    - the seeds right of a point s of D (a seed or a secant iterate)
      whose run left the window on its first arc, when neither Q_X(., 0)
      nor Q_Y(., 0) has a root in [s, window[1]] (_shadows): that arc is
      a cross-cut of its half of the window, and the orbit from a seed
      s' > s starts on its side of it, on the stretch of D where both
      fields point off D, so it leaves the window, or stays to the
      horizon or a sink, before it can meet D (Perko, Differential
      Equations and Dynamical Systems, section 3.7): a NoReturn;
    - the fold runs when no arc of the D census (dline.segment_d, cached
      on Z) is sliding or a tangency: a type-3 closure needs a sliding
      arc, and a run slides only from a sliding point (_from_d).  Neither
      a common root of Q_X(., 0) and Q_Y(., 0) nor a sliding stretch
      shorter than 10 tols.root is an arc of that census.  The fold runs
      start from the folds check_gm cached on Z (dline.fold_points).

    Each seed and each fixed point is classified once, by _from_d, whose
    side the run from it takes.
    """
    tols = tols or default_tols()
    forward = {kind: [p for p in (rays or {}).get(kind, ())
                      if np.trace(F.jacobian_at(*p)) < 0]
               for kind, F in (("X", Z.X), ("Y", Z.Y))}
    sinks = [t.box for _, t in _traps(Z, forward, window, tols)
             if t.direction > 0]
    found: list[ClosedOrbit] = []
    seen_x: list[float] = []
    shadow = math.inf   # seeds right of it make no return (_shadows)

    def known(x: float) -> bool:
        return any(abs(x - c) <= SAME_CYCLE for c in seen_x)

    span = (window[0], window[1])
    section = Section((0.0, 0.0), (1.0, 0.0), span)
    for s0 in DEFAULT_SEEDS:
        if not window[0] < s0 < min(window[1], shadow) or known(s0):
            continue
        side, kind = _from_d(Z, s0, "D", tols)
        if kind is not EventKind.CROSSING_AT_SEWING:
            continue

        def g(s):
            s1, _ = return_map(Z, section, s, CENSUS_HORIZON, window,
                               tols, with_derivative=False, sinks=sinks,
                               side=side if s == s0 else None)
            if known(s1):
                raise _KnownCycle
            return s1 - s

        try:
            s_star = _secant_fixed_point(g, s0, tols)
        except LeftWindow as exc:
            if _shadows(Z, exc.s, window, tols):
                shadow = min(shadow, exc.s)
            continue
        except (_KnownCycle,) + _RUN_ERRORS:
            continue  # a known cycle, or this seed's return map fails
        if s_star is None or not (window[0] < s_star < window[1]):
            continue
        if abs(s_star) < 1e-3:  # degenerate loop shrunk into the origin
            continue
        if known(s_star):
            continue
        side_star, kind = _from_d(Z, s_star, "D", tols)
        if kind is not EventKind.CROSSING_AT_SEWING:
            continue
        try:
            # one run to the closure, with the divergence for eta'
            traj = advance_hybrid(Z, (s_star, 0.0), side_star,
                                  CENSUS_HORIZON, window, tols,
                                  with_divergence=True, sinks=sinks)
            if traj.closed is not Closure.TYPE1:
                continue
            eta_prime = return_derivative(Z, traj, section.direction, tols)
        except _RUN_ERRORS:
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
    if all(a.tag in (PointTag.SEWING, PointTag.ESCAPING)
           for a in dline.segment_d(Z, span, tols)):
        return found
    for fold in dline.fold_points(Z, span, tols):
        if fold.kind not in (dline.SingKind.FOLD_X, dline.SingKind.FOLD_Y):
            continue
        side = "N" if fold.kind is dline.SingKind.FOLD_X else "S"
        p = (fold.x, math.copysign(tols.event, 1 if side == "N" else -1))
        try:
            traj = advance_hybrid(Z, p, side, CENSUS_HORIZON, window,
                                  tols, sinks=sinks)
        except _RUN_ERRORS:
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


def _shadows(Z: PiecewiseField, s: float, window: Window,
             tols: Tolerances) -> bool:
    """Whether a census run from (s, 0) that left the window on its first
    arc (LeftWindow) proves that every seed right of s makes no return:
    s lies inside the window, and neither Q_X(., 0) nor Q_Y(., 0) has a
    root in [s, window[1]] (roots_on_d), so both fields point off D, to
    the side of the run, on that whole stretch
    (find_closed_polytrajectories)."""
    return window[0] < s and not any(
        r >= s for q in (Z.X.Q, Z.Y.Q)
        for r, _ in roots_on_d(q, window[:2], tols))


def _secant_fixed_point(g, s0: float, tols: Tolerances) -> float | None:
    g0 = g(s0)
    if abs(g0) <= tols.close:
        return s0
    s1 = s0 * 1.05 + 1e-3
    g1 = g(s1)
    for _ in range(30):
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
    fate: str  # how its trace ended (see probe_saddle_connections)
    # section -> abscissas where the branch crosses it: (ray point,
    # direction in forward time) for a watched ray, "D" for its end on D
    crossings: dict


@dataclass(frozen=True)
class ConnectionReport:
    branches: list[SeparatrixBranch]
    flagged: list[tuple[int, int]]
    skipped: list[tuple[str, str]]  # (label, error kind) of failed traces


def probe_saddle_connections(Z: PiecewiseField, saddles: list[SaddleSpec],
                             window: Window = (-5, 5, -5, 5),
                             tols: Tolerances | None = None,
                             rays: dict | None = None) -> ConnectionReport:
    """Trace separatrix branches of certified saddles and flag each stable
    and unstable branch pair that may connect as a PossibleConnection.

    One solve per branch of at most CENSUS_HORIZON / 3 time units, an
    unstable branch forward in time and a stable one backward.  A branch
    of X (Y) watches the ray {y = y_c, x > x_c} from each point of
    rays["X"] (rays["Y"]), the nodes, foci and centers of its field, one
    of which any cycle of it surrounds.  At crossings x1, x2, x3 of one
    ray in one direction with d2 = |x3 - x2| < d1 = |x2 - x1| and a
    geometric tail d2 q / (1 - q), q = d2/d1, of at most tols.close, far
    below tols.connect, the branch has fate 'settled'; else 'sink',
    'd_hit', 'window' or 'horizon' (an FZ branch: 'q1_root', 'q2_root',
    'window' or 'horizon', the outcome of its motion along D, _slide, with
    no stops).  A trace that raises NotTransversal or StepFailure keeps
    no points and the error's name as its fate (ConnectionReport.skipped).

    A branch of X (Y) traced in one time direction also watches the boxes
    of the traps that sink_trap proves in that direction at the points of
    rays["X"] (rays["Y"]), each cut to tols.connect (sink_trap's margin),
    and taken once per call.  A branch that enters one ends
    there with fate 'sink', as no flag can come from its rest, which stays
    in the cut trap {V <= c'}: every point within tols.connect of it lies
    in the trap {V <= c} it was cut from, invariant in the branch's time
    direction.  A branch of the other stability has no point there: each
    of its points flows, in that time direction, to its seed, which lies
    outside the trap's disc, as a trap is used only when every saddle of
    its field lies more than 2 tols.delta_sep outside that disc.  So
    neither a crossing nor a point of the rest comes within tols.connect
    of such a branch (Khalil, Nonlinear Systems, section 8.2).

    A connecting orbit is a matching condition on a section (Beyn, IMA J.
    Numer. Anal. 10, 1990).  Each branch keeps its crossings of each
    watched ray under the ray and the crossing's direction in forward
    time, so a stable branch, traced backward, flips its directions; a
    branch that ends on D (an X or Y branch at 'd_hit', an FZ branch at
    'q1_root' or 'q2_root') keeps that abscissa under "D".  A stable and
    an unstable branch are flagged when two of their crossings of one
    section differ by less than tols.connect, or, for branches of two
    saddles, when a point of either comes within tols.connect of the
    other's seed: a connection that crosses no section, as one that runs
    into an FZ saddle along D (_connections)."""
    tols, rays = tols or default_tols(), rays or {}
    horizon = CENSUS_HORIZON / 3.0
    branches: list[SeparatrixBranch] = []
    skipped: list[tuple[str, str]] = []
    traps = _traps(Z, rays, window, tols, tols.connect)

    def boxes(kind, direction):  # of kind's traps, clear of its saddles
        return [t.box for k, t in traps
                if k == kind and t.direction == direction
                and all(math.dist(t.point, s.point)
                        > t.radius + 2 * tols.delta_sep
                        for s in saddles if s.kind == kind)]

    def add(idx, stab, label, trace, *args):
        try:
            pts, fate, crossings = trace(*args)
        except (NotTransversal, StepFailure) as e:
            pts, fate, crossings = np.empty((0, 2)), type(e).__name__, {}
            skipped.append((label, fate))
        branches.append(SeparatrixBranch(idx, stab, label, pts, fate,
                                         crossings))

    for idx, sad in enumerate(saddles):
        if sad.kind in ("X", "Y"):
            fld = Z.X if sad.kind == "X" else Z.Y
            x0, y0 = sad.point
            eigvals, eigvecs = np.linalg.eig(fld.jacobian_at(x0, y0))
            for col, lam in enumerate(eigvals):
                v = np.real(eigvecs[:, col])
                v = v / np.linalg.norm(v)
                stab, direction = ("unstable", 1) if np.real(lam) > 0 \
                    else ("stable", -1)
                sinks = boxes(sad.kind, direction)
                for sgn in (1.0, -1.0):
                    seed = (x0 + sgn * tols.delta_sep * v[0],
                            y0 + sgn * tols.delta_sep * v[1])
                    add(idx, stab, f"{sad.kind}{idx}:{stab}:{sgn:+.0f}",
                        _trace_branch, Z, seed, sad.kind, direction,
                        horizon, window, tols, rays.get(sad.kind, ()), sinks)
        else:  # FZ saddle: branches along D in both time directions
            x0 = sad.point[0]
            for sgn in (1.0, -1.0):
                for direction, stab in ((1.0, "unstable"), (-1.0, "stable")):
                    add(idx, stab, f"FZ{idx}:{stab}:{sgn:+.0f}",
                        _trace_d_branch, Z, x0 + sgn * tols.delta_sep,
                        direction, horizon, window, tols)

    return ConnectionReport(branches, _connections(branches, tols.connect),
                            skipped)


def _connections(branches: list[SeparatrixBranch], connect: float
                 ) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of a stable and an unstable branch with two
    crossings of one section less than connect apart, or of two saddles
    with a point of either less than connect from the other's seed; a
    branch without points pairs with nothing."""
    flagged = []
    for i, bi in enumerate(branches):
        for j in range(i + 1, len(branches)):
            bj = branches[j]
            if bi.stability == bj.stability or not (
                    len(bi.points) and len(bj.points)):
                continue
            shared = bi.crossings.keys() & bj.crossings.keys()
            if any(abs(u - v) < connect for key in shared
                   for u in bi.crossings[key] for v in bj.crossings[key]) \
                    or bi.saddle_index != bj.saddle_index and (
                        _reaches(bi.points, bj.points[0], connect)
                        or _reaches(bj.points, bi.points[0], connect)):
                flagged.append((i, j))
    return flagged


def _trace_branch(Z, seed, kind, direction, horizon, window, tols, rays=(),
                  sinks=()):
    """(points, fate, crossings) of the branch of X or Y from seed, one
    solve of the field's kernel to direction (+1 or -1) * horizon that
    watches the rays from the points of rays and ends in a box of sinks
    with fate 'sink' (probe_saddle_connections)."""
    fld = Z.X if kind == "X" else Z.Y
    ddir = -1 if kind == "X" else 1
    if (kind == "X" and seed[1] <= 0) or (kind == "Y" and seed[1] >= 0):
        return np.asarray([seed]), "d_hit", {"D": [float(seed[0])]}
    tr = integrate_smooth(fld, seed, direction * horizon, window, ddir,
                          tols=tols, rays=rays, sinks=sinks)
    WORK["branch_traps"] += tr.status == "sink"
    crossings = {(tuple(p), direction * way): xs
                 for p, ray in zip(rays, tr.crossings)
                 for way, xs in ray.items()}
    if tr.status == "d_hit":
        crossings["D"] = [float(tr.states[-1, 0])]
    return tr.states[:, :2], tr.status, crossings


def _trace_d_branch(Z, x0, direction, horizon, window, tols):
    """(points, fate, crossings) of the branch along D from x0, the motion
    along D to direction (+1 or -1) * horizon with no stops (_slide;
    probe_saddle_connections)."""
    tr = _slide(Z, x0, direction * horizon, window, tols)
    crossings = {"D": [float(tr.states[-1, 0])]} \
        if tr.status in ("q1_root", "q2_root") else {}
    return tr.states, tr.status, crossings


def _reaches(points: np.ndarray, target, connect: float) -> bool:
    """Whether a point of points lies less than connect from target."""
    WORK["reach_scans"] += 1
    d = points - np.asarray(target)
    return bool(np.min(np.hypot(d[:, 0], d[:, 1])) < connect)
