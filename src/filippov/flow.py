"""Hybrid trajectory integration with Filippov transition rules.

Smooth arcs are traced with the adaptive DOP853 integrator (Dormand-Prince
8(5,3)); sliding arcs integrate the one-dimensional Filippov field along D
up to the nearest root ahead of the tangency and det polynomials, found
once.  Transitions follow the poly-trajectory rules: X/Y swaps only at
sewing points, entry/exit of sliding arcs only at folds or regular sliding
points, termination at Filippov-field singularities and on escaping arcs
(forward evolution is not unique there and trajectories are never
silently branched).

Every ODE solve of the package, here and in the regularized and
compactified flows, goes through one kernel, _integrate: scipy's solve_ivp
with FloatDOP853 as its method, at rtol = tols.root and
atol = tols.root / 100, so FILIPPOV_TOLERANCE_SCALE reaches the solver; a
solve whose step controller gives up raises StepFailure.  FloatDOP853 is
scipy's DOP853 (tableau, step controller, initial step) with each step run
as straight-line float code generated once per system size, so no stage
builds a numpy array.  Each stage calls one generated right-hand side,
cached on the object it integrates: PolyVectorField.rhs (forward or
reversed, with or without the divergence), PiecewiseField.slide_rhs and
RegularizedField.rhs, built from the Horner forms of the polynomials so
they return the same floats.  Events are affine lines (y = 0, the window's
sides, a section, x = r on D) that the stepper checks on each accepted
step's dense-output polynomial, which catches a pair of crossings inside
one step; the solve ends at the first crossing that its line accepts.  So
a separatrix branch of the connection probe, one solve, also watches a ray
from each node, focus or center of its field, and ends once its crossings
of one ray have settled: their drift's geometric tail is below tols.close.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.integrate import DOP853, DenseOutput, solve_ivp

from . import dline
from .dline import PointTag
from .errors import (
    ClassificationAmbiguous,
    NoReturn,
    NotTransversal,
    StepFailure,
)
from .polys import (
    PiecewiseField,
    PolyVectorField,
    _generate,
    _polish_root,
    _polyder,
    _polyval,
    univariate_roots,
)
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

    def line(self, direction: int) -> tuple[float, float, float, int]:
        """The section's line as an affine event (a_x, a_y, b, direction):
        g = dx (y - by) - dy (x - bx), a signed distance times |d|."""
        (bx, by), (dx, dy) = self.base, self.direction
        return (-dy, dx, dy * bx - dx * by, direction)


@dataclass(frozen=True)
class SmoothTrace:
    ts: np.ndarray
    states: np.ndarray
    status: str  # "d_hit", "window", "horizon", "section", "settled"
    hit_state: tuple[float, float] | None


@functools.cache
def _dop853_kernel(n: int):
    """step and dense functions of DOP853 for n components, generated as
    straight-line float code from the public tableau of scipy's DOP853.

    step(rhs, t, h, y, f, rtol, atol) -> (error norm, y_new, f_new, K) runs
    the 12 stages, the 8th-order solution and scipy's embedded 5th/3rd-order
    error norm; K is the flat tuple of the 13 stage derivatives.
    dense(rhs, t, h, y, y_new, K) runs the 3 extra stages and returns the
    rows F of the step's interpolant, each a tuple of n floats."""
    def lin(coef, i):  # component i of sum_j coef[j] k_j
        terms = [f"{float(c)!r}*k{j}_{i}" for j, c in enumerate(coef) if c]
        return f"({' + '.join(terms)})" if terms else "0.0"

    def vec(fmt):  # the tuple (fmt(0), ..., fmt(n - 1))
        return "(" + "".join(fmt(i) + ", " for i in range(n)) + ")"

    def names(v):  # the unpacking target v_0, ..., v_{n-1}
        return "".join(f"{v}_{i}, " for i in range(n))

    def stage(s, c, a):
        return (f"    {names(f'k{s}')}= rhs(t + {float(c)!r}*h, "
                f"{vec(lambda i: f'y_{i} + {lin(a[:s], i)}*h')})")

    T, m = DOP853, DOP853.n_stages  # k{m} is f at the end of the step
    ks, yn, fn = ("".join(names(f"k{j}") for j in range(m + 1)),
                  vec(lambda i: f"yn_{i}"), vec(lambda i: f"k{m}_{i}"))
    step = ["def step(rhs, t, h, y, f, rtol, atol):",
            f"    {names('y')}= y", f"    {names('k0')}= f"]
    step += [stage(s, T.C[s], T.A[s]) for s in range(1, m)]
    step += [f"    yn_{i} = y_{i} + h*{lin(T.B, i)}" for i in range(n)]
    step.append(f"    {names(f'k{m}')}= rhs(t + h, {yn})")
    for i in range(n):
        step += [f"    sc_{i} = atol + max(abs(y_{i}), abs(yn_{i}))*rtol",
                 f"    r5_{i} = {lin(T.E5, i)}/sc_{i}",
                 f"    r3_{i} = {lin(T.E3, i)}/sc_{i}"]
    step += [f"    e5 = {' + '.join(f'r5_{i}*r5_{i}' for i in range(n))}",
             f"    e3 = {' + '.join(f'r3_{i}*r3_{i}' for i in range(n))}",
             f"    err = abs(h)*e5/sqrt((e5 + 0.01*e3)*{n}) if e5 else 0.0",
             f"    return err, {yn}, {fn}, ({ks})"]
    dense = ["def dense(rhs, t, h, y, yn, K):", f"    {names('y')}= y",
             f"    {names('yn')}= yn", f"    {ks}= K"]
    dense += [stage(m + 1 + r, c, a)
              for r, (c, a) in enumerate(zip(T.C_EXTRA, T.A_EXTRA))]
    dense += [f"    d_{i} = yn_{i} - y_{i}" for i in range(n)]
    rows = [vec(lambda i: f"d_{i}"), vec(lambda i: f"h*k0_{i} - d_{i}"),
            vec(lambda i: f"2*d_{i} - h*(k{m}_{i} + k0_{i})")]
    rows += [vec(lambda i, d=d: f"h*{lin(d, i)}") for d in T.D]
    dense.append(f"    return {', '.join(rows)}")
    namespace = _generate("\n".join(step + dense) + "\n", f"dop853-{n}",
                          sqrt=math.sqrt)
    return namespace["step"], namespace["dense"]


class FloatDOP853(DOP853):
    """scipy's DOP853 with each step as straight-line float code, and with
    its event lines checked inside the stepper.

    The tableau, the step controller (safety 0.9, step factors 0.2 to 10,
    error_exponent, min_step, the t_bound clamp) and the initial step are
    scipy's; only the arithmetic moves into _dop853_kernel(n), whose stages
    pass tuples of floats to the right-hand side.  An OverflowError or
    ZeroDivisionError of the right-hand side inside a trial step rejects
    the step, as inf and nan do in numpy's arithmetic.

    lines holds affine events (a_x, a_y, b, direction[, accept]) on the
    first two components, g = a_x y_0 + a_y y_1 + b (a_y = 0 for one).
    Each accepted step builds its dense rows, and the first crossing in its
    line's direction (0: either) that accept(t, state, way) approves, way
    the sign of g's change there (_crossing), goes into hits as (index, t,
    state); a start on a line moving in its direction is a crossing.
    t_bound moves to the step's end, so solve_ivp ends there, status 0."""

    def __init__(self, fun, t0, y0, t_bound, lines=(), tols=None, hits=None,
                 **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun  # called directly; nfev is counted per step
        self.f = self.f.tolist()
        self.h_abs = float(self.h_abs)
        self._tols = (float(self.rtol), float(self.atol))
        self._step, self._dense = _dop853_kernel(self.n)
        self._lines, self._hits, self._t0 = lines, hits, t0
        self._line_tols = tols or default_tols()

    def _step_impl(self):
        t, y, direction = self.t, self.y.tolist(), float(self.direction)
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(self.h_abs, min_step), self.max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            self.nfev += self.n_stages
            try:
                err, y_new, f_new, K = self._step(self._rhs, t, h, y, self.f,
                                                  *self._tols)
            except (OverflowError, ZeroDivisionError):
                err = math.inf
            if err < 1:
                break
            h_abs *= max(0.2, 0.9 * err ** self.error_exponent)
            rejected = True
        factor = 10.0 if err == 0 else min(10.0,
                                           0.9 * err ** self.error_exponent)
        self.h_abs = h_abs * (min(1.0, factor) if rejected else factor)
        self.h_previous, self.y_old, self.t = h, self.y, t_new
        self.y, self.f, self._K = np.array(y_new), f_new, K
        if self._lines:
            self.nfev += len(self.C_EXTRA)
            hit = self._crossing(t, t_new, y, y_new,
                                 self._dense(self._rhs, t, h, y, y_new, K))
            if hit is not None:
                self._hits.append(hit)
                self.t_bound = t_new  # OdeSolver.step then finishes
        return True, None

    def _crossing(self, t, t_new, y, y_new, F):
        """First approved crossing of a line inside the step from (t, y) to
        (t_new, y_new) with dense rows F, as (index, time, state), or None.

        Each b_j is at most 1 on [0, 1], so a line with |g(t)| above
        sum_j |a.F_j| keeps its sign over the step.  Where g is monotone
        (its derivative's constant term outweighs the rest) it crosses at
        most once, where its end values change sign, and _polish_root
        places that crossing; only the other steps get an exact root count
        of g's interpolant.  A line whose interpolant is identically zero
        raises NotTransversal, unless it is a watched ray (_Ray)."""
        tols, h = self._line_tols, t_new - t
        two = self.n > 1
        Fx = [row[0] for row in F]
        Fy = [row[1] for row in F] if two else [0.0] * len(F)
        reach_x, reach_y = sum(map(abs, Fx)), sum(map(abs, Fy))
        first = None
        for k, (ax, ay, b, direction, *accept) in enumerate(self._lines):
            g0 = ax * y[0] + (ay * y[1] if two else 0.0) + b
            if abs(g0) > abs(ax) * reach_x + abs(ay) * reach_y:
                continue
            gF = [ax * fx + ay * fy for fx, fy in zip(Fx, Fy)]
            if g0 == 0.0 and not any(gF):
                if accept and isinstance(accept[0], _Ray):
                    continue  # a watched ray is no event
                raise NotTransversal("trajectory runs along an event line")
            # g in powers of x = (t - t_old) / h; monotone where its
            # derivative's constant term outweighs the rest
            c = [g0] + [0.0] * len(F)
            for j, p, bp in _dense_basis(len(F)):
                c[p] += gF[j] * bp
            if abs(c[1]) > sum(abs(c[p] * p) for p in range(2, len(c))):
                g1 = ax * y_new[0] + (ay * y_new[1] if two else 0.0) + b
                # a zero at a later step's start was the last step's end
                if g0 * g1 > 0 or direction * (g1 - g0) < 0 \
                        or (g0 == 0.0 and t != self._t0):
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
                if first is not None and tc >= first[1]:
                    break
                state = _Dop853Interpolant(t, t_new, np.array(y),
                                           np.array(F))(tc)
                if not accept or accept[0](tc, state, way):
                    first = (k, tc, state)
                    break
        return first

    def _dense_output_impl(self):
        self.nfev += len(self.C_EXTRA)
        F = self._dense(self._rhs, self.t_old, self.h_previous,
                        self.y_old.tolist(), self.y.tolist(), self._K)
        # an array holds a long solve's rows in a fifth of the memory
        return _Dop853Interpolant(self.t_old, self.t, self.y_old,
                                  np.array(F))


class _Dop853Interpolant(DenseOutput):
    """y_old + sum_j F_j b_j(x) on one step, x = (t - t_old) / h, with
    b_j = x, x(1-x), x^2(1-x), x^2(1-x)^2, ... (see _dense_basis)."""

    def __init__(self, t_old, t, y_old, F):
        super().__init__(t_old, t)
        self.h = t - t_old
        self.y_old = y_old
        self.F = F

    def _call_impl(self, t):
        x = ((t - self.t_old) / self.h)[..., None]
        y = 0.0
        for k, f in enumerate(self.F[::-1]):
            y = (y + f) * (x if k % 2 == 0 else 1.0 - x)
        return (y + self.y_old).T


def _integrate(rhs, y0, t_end: float, tols: Tolerances, lines=(),
               t0: float = 0.0):
    """Solve y' = rhs(t, y) from t0 to t_end with FloatDOP853 at
    rtol = tols.root, atol = tols.root / 100.  rhs receives the state as a
    sequence of floats and returns a sequence.  lines are the solver's
    affine events (see FloatDOP853); the solve ends at the first crossing.

    Returns (sol, hit): hit is (index into lines, time, state) of that
    crossing or None, and sol.t, sol.y end at it.  Raises StepFailure when
    the step controller gives up."""
    hits: list = []
    sol = solve_ivp(rhs, (t0, t_end), y0, method=FloatDOP853, rtol=tols.root,
                    atol=tols.root / 100, lines=lines, tols=tols, hits=hits)
    if sol.status == -1:
        raise StepFailure(sol.message)
    if not hits:
        return sol, None
    _, t_hit, state = hits[0]
    keep = sol.t < t_hit
    sol.t = np.append(sol.t[keep], t_hit)
    sol.y = np.column_stack([sol.y[:, keep], state])
    return sol, hits[0]


@functools.cache
def _dense_basis(power: int) -> tuple:
    """The nonzero coefficients (j, power, coefficient), by ascending j, of
    b_j = x, x(1-x), x^2(1-x), x^2(1-x)^2, ...: a DOP853 step's dense
    output is y_old + sum_j F_j b_j(x) in the fraction x of the step."""
    terms, p = [], np.array([1.0])
    for j in range(power):
        p = npoly.polymul(p, (0.0, 1.0) if j % 2 == 0 else (1.0, -1.0))
        terms += [(j, k, float(v)) for k, v in enumerate(p) if v]
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
                     reverse: bool = False,
                     rays: Sequence[tuple[float, float]] = ()) -> SmoothTrace:
    """Adaptive DOP853 trace of X (of -X when reverse) from p0, stopping at
    the first y=0 crossing (in the given direction), window exit or
    horizon, or with status 'settled' once a watched ray has settled.

    d_direction: -1 catches downward crossings (flows in N), +1 upward,
    0 both.  An optional section event stops the trace at a transversal
    crossing of the segment in either direction; crossings of its line
    outside the parameter range do not stop it.
    with_divergence accumulates the integral of div X as a third state
    component.  Each point (x_c, y_c) of rays is watched as the ray
    {y = y_c, x > x_c}: one line in both directions, whose _Ray keeps the
    crossings of each direction apart.

    One solve: the events are affine lines, which the stepper checks on
    each step's dense output (FloatDOP853), so a step that jumps a pair of
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
    lines += [(0.0, 1.0, -yc, 0, _Ray(xc, tols.close)) for xc, yc in rays]
    sol, hit = _integrate(X.rhs(reverse, with_divergence),
                          list(p0) + ([0.0] if with_divergence else []),
                          horizon, tols, lines)
    status, hit_state = "horizon", None
    if hit is not None:
        kind, _, end = hit
        status = "settled" if kind >= events else \
            {0: "d_hit", 5: "section"}.get(kind, "window")
        if status in ("d_hit", "section"):
            hit_state = (float(end[0]), 0.0 if kind == 0 else float(end[1]))
    return SmoothTrace(sol.t, sol.y.T, status, hit_state)


def _d_stop(Z: PiecewiseField, x0: float, speed: float, window: Window,
            tols: Tolerances, named=()) -> tuple[str, tuple]:
    """First event of a motion along D from x0 at the given speed, as
    (outcome, line x = r in the motion's direction): r is the nearest odd
    root ahead of Q_X(x, 0) ("q1_root"), Q_Y(x, 0) ("q2_root") or a
    polynomial of the (outcome, polynomial) pairs named, else the window's
    side.  The motion is monotone between zeros of its field, so it can
    reach no other event."""
    ahead = 1 if speed > 0 else -1
    side = window[1] if ahead > 0 else window[0]
    stop, x_stop = "window", side
    span = (min(x0, side), max(x0, side))
    for name, p in (("q1_root", Z.X.Q), ("q2_root", Z.Y.Q), *named):
        for r, mult in univariate_roots(p.restrict_y0(), span, tols):
            if mult % 2 and 0 < ahead * (r - x0) < ahead * (x_stop - x0):
                stop, x_stop = name, r
    return stop, (1.0, 0.0, -x_stop, ahead)


def _slide(Z: PiecewiseField, x0: float, horizon: float,
           window: Window, tols: Tolerances) -> tuple:
    """Integrate the 1-D Filippov field along D from x0.

    Returns (ts, xs, outcome, x_end) with outcome one of
    'q1_root', 'q2_root', 'fz_singularity', 'window', 'horizon'.  The first
    event ahead (_d_stop, with the roots of det) is found once and goes to
    the solver as one line x = r.  A tangency root where |det| <= tols.sign
    is also a zero of the sliding field, so the slide ends there as
    'fz_singularity', as one started there does in advance_hybrid.
    """
    rhs, det = Z.slide_rhs(), dline.det_xy(Z)
    outcome, line = _d_stop(Z, x0, rhs(0.0, (x0,))[0], window, tols,
                            [("fz_singularity", det)])
    if outcome in ("q1_root", "q2_root") \
            and abs(det(-line[2], 0.0)) <= tols.sign:
        outcome = "fz_singularity"
    sol, hit = _integrate(rhs, [x0], horizon, tols, [line])
    return sol.t, sol.y[0], outcome if hit else "horizon", float(sol.y[0][-1])


# arc outcomes that end a hybrid run, with the run's last event
_ENDS = {"window": EventKind.WINDOW_EXIT, "horizon": EventKind.TIME_BUDGET,
         "section": EventKind.SECTION_CROSSING,
         "fz_singularity": EventKind.REACH_FZ_SINGULARITY}
# a run that needs more arcs ends with TimeBudget, so crossings that pile
# up at one point of D in finite time cannot loop forever
_MAX_ARCS = 64


def advance_hybrid(Z: PiecewiseField, p0: tuple[float, float], side: str,
                   horizon: float, window: Window,
                   tols: Tolerances | None = None,
                   section: Section | None = None,
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
    traj = PolyTrajectory()
    t = 0.0
    p = (float(p0[0]), float(p0[1]))

    def record(kind: EventKind, state=None):
        traj.events.append(TrajectoryEvent(t, kind, state or p))

    def close():
        tags = {a.tag for a in traj.arcs}
        if tags <= {"X", "Y"}:
            traj.closed = Closure.TYPE1
        elif "FZ" in tags and any(e.kind is EventKind.EXIT_AT_FOLD
                                  for e in traj.events):
            traj.closed = Closure.TYPE3
        record(EventKind.CLOSED)

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
    for _ in range(_MAX_ARCS):
        if t >= horizon:
            record(EventKind.TIME_BUDGET)
            break
        if side in ("N", "S"):
            fld = Z.X if side == "N" else Z.Y
            ddir = -1 if side == "N" else 1
            tr = integrate_smooth(fld, p, horizon - t, window, ddir,
                                  section, tols, with_divergence)
            traj.arcs.append(TrajectoryArc(
                "X" if side == "N" else "Y",
                (t, t + tr.ts[-1]), tr.ts + t, tr.states[:, :2],
                float(tr.states[-1, 2]) if with_divergence else None))
            t += float(tr.ts[-1])
            outcome = tr.status
            p = tr.hit_state or (float(tr.states[-1, 0]),
                                 float(tr.states[-1, 1]))
        elif abs(dline.det_xy(Z)(p[0], 0.0)) <= tols.sign:
            traj.arcs.append(TrajectoryArc(
                "FZ", (t, t), np.array([t]), np.array([[p[0], 0.0]])))
            outcome = "fz_singularity"
        else:
            ts, xs, outcome, x_end = _slide(Z, p[0], horizon - t, window,
                                            tols)
            states = np.column_stack([xs, np.zeros_like(xs)])
            traj.arcs.append(TrajectoryArc("FZ", (t, t + ts[-1]),
                                           ts + t, states))
            t += float(ts[-1])
            p = (x_end, 0.0)
        if outcome in _ENDS:
            record(_ENDS[outcome])
            break
        if outcome == "d_hit":
            cls = dline.classify_point(Z, p[0], tols)
            if cls.tag is PointTag.SEWING:
                new_side = "S" if side == "N" else "N"
                # a repeated crossing means the trajectory is periodic;
                # only needed for seeds off D, where the start-point
                # proximity check below can never fire
                if not started_on_d and any(
                        abs(p[0] - xc) <= tols.close and sc == new_side
                        for xc, sc in crossings):
                    close()
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
        else:
            # fold exit (q1_root or q2_root): into the region of the field
            # whose tangency vanishes
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
    _, hit = _integrate(X.rhs(divergence=True), [p0[0], p0[1], 0.0],
                        t_span * 1.5, tols, arrive)
    if hit is None:
        raise NoReturn("orbit did not reach the target section")
    end = hit[2]
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
               horizon: float, window: Window,
               tols: Tolerances | None = None,
               with_derivative: bool = True) -> tuple[float, float | None]:
    """First-return parameter s1 of the hybrid flow from section(s0) and
    its derivative eta'(s0) (return_derivative).  The run ends at the first
    return."""
    tols = tols or default_tols()
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
                              with_divergence=with_derivative)
    # a run from D may also close at its start, off the parameter range
    ends = (EventKind.SECTION_CROSSING, EventKind.CLOSED) if on_d \
        else (EventKind.SECTION_CROSSING,)
    if not traj.events or traj.events[-1].kind not in ends:
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
    transition-map derivatives (n_start/n_end) exp(int div), n being the
    arc field's speed across the section at the two ends of the run and
    across D (-Q(x, 0)) at sewing crossings, so the Q_Y/Q_X ratio of each
    crossing falls out of the product.  A run through a sliding arc or a
    fold graze, or one that meets the section or D with |n| <= tols.sign,
    raises NotTransversal."""
    if any(a.tag == "FZ" for a in traj.arcs) or any(
            e.kind is EventKind.FOLD_GRAZE for e in traj.events):
        raise NotTransversal("return passes a sliding arc or a fold graze")
    eta_prime = 1.0
    last_arc = len(traj.arcs) - 1
    for k, arc in enumerate(traj.arcs):
        fld = Z.X if arc.tag == "X" else Z.Y
        n0 = _normal_speed(fld, arc.states[0],
                           direction if k == 0 else _D_DIRECTION)
        n1 = _normal_speed(fld, arc.states[-1],
                           direction if k == last_arc else _D_DIRECTION)
        if abs(n0) <= tols.sign or abs(n1) <= tols.sign:
            raise NotTransversal("return meets a section or D tangentially")
        eta_prime *= (n0 / n1) * math.exp(arc.divergence)
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
        def rhs(theta, s, A=A, R=R):
            return tf.slope(A, R, theta, s[0])
        sol, _ = _integrate(rhs, state, theta1, tols, t0=theta0)
        state = [float(v) for v in sol.y[:, -1]]
    return state[0], math.exp(state[1])


# the errors of a census run: the run is skipped and the census goes on
_RUN_ERRORS = (ClassificationAmbiguous, NoReturn, NotTransversal, StepFailure)


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
        except _RUN_ERRORS:
            continue  # this seed's return map fails; the others still run
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
            # one run to the closure, with the divergence for eta'
            traj = advance_hybrid(Z, (s_star, 0.0), "D", horizon, window, tols,
                                  with_divergence=True)
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
    for fold in dline.fold_points(Z, span, tols):
        if fold.kind not in (dline.SingKind.FOLD_X, dline.SingKind.FOLD_Y):
            continue
        side = "N" if fold.kind is dline.SingKind.FOLD_X else "S"
        p = (fold.x, math.copysign(tols.event, 1 if side == "N" else -1))
        try:
            traj = advance_hybrid(Z, p, side, horizon, window, tols)
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
    fate: str  # how its trace ended (see probe_saddle_connections)


@dataclass(frozen=True)
class ConnectionReport:
    branches: list[SeparatrixBranch]
    distances: np.ndarray
    flagged: list[tuple[int, int]]
    skipped: list[tuple[str, str]]  # (label, error kind) of failed traces


def probe_saddle_connections(Z: PiecewiseField, saddles: list[SaddleSpec],
                             horizon: float = 30.0,
                             window: Window = (-5, 5, -5, 5),
                             tols: Tolerances | None = None,
                             rays: dict | None = None) -> ConnectionReport:
    """Trace separatrix branches of certified saddles and record minimum
    pairwise distances; close approaches are flagged PossibleConnection.

    One solve per branch.  A branch of X (Y) watches the ray {y = y_c,
    x > x_c} from each point of rays["X"] (rays["Y"]), the nodes, foci
    and centers of its field, one of which any cycle of it surrounds.
    At crossings x1, x2, x3 of one ray in one direction with d2 = |x3 -
    x2| < d1 = |x2 - x1| and a geometric tail d2 q / (1 - q), q = d2/d1,
    of at most tols.close, far below tols.connect, the branch has fate
    'settled'; else 'd_hit', 'window' or 'horizon' (an FZ branch: the
    _d_stop outcome or 'horizon').  A trace that raises one of
    ClassificationAmbiguous, NotTransversal and StepFailure keeps no
    points and the error's name as its fate (ConnectionReport.skipped).

    Same-saddle branch pairs exclude points within a small radius of the
    saddle so the seeding offset does not self-flag."""
    tols, rays = tols or default_tols(), rays or {}
    branches: list[SeparatrixBranch] = []
    skipped: list[tuple[str, str]] = []

    def add(idx, stab, label, trace, *args):
        try:
            pts, fate = trace(*args)
        except (ClassificationAmbiguous, NotTransversal, StepFailure) as e:
            pts, fate = np.empty((0, 2)), type(e).__name__
            skipped.append((label, fate))
        branches.append(SeparatrixBranch(idx, stab, label, pts, fate))

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
                    add(idx, stab, f"{sad.kind}{idx}:{stab}:{sgn:+.0f}",
                        _trace_branch, Z, seed, sad.kind, fwd, horizon,
                        window, tols, rays.get(sad.kind, ()))
        else:  # FZ saddle: branches along D in both time directions
            x0 = sad.point[0]
            for sgn in (1.0, -1.0):
                for direction, stab in ((1.0, "unstable"), (-1.0, "stable")):
                    add(idx, stab, f"FZ{idx}:{stab}:{sgn:+.0f}",
                        _trace_d_branch, Z, x0 + sgn * tols.delta_sep,
                        direction, horizon, window, tols)

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
    return ConnectionReport(branches, dmat, flagged, skipped)


def _trace_branch(Z, seed, kind, forward, horizon, window, tols, rays=()):
    fld = Z.X if kind == "X" else Z.Y
    ddir = -1 if kind == "X" else 1
    if (kind == "X" and seed[1] <= 0) or (kind == "Y" and seed[1] >= 0):
        return np.asarray([seed]), "d_hit"
    tr = integrate_smooth(fld, seed, horizon, window, ddir, tols=tols,
                          reverse=not forward, rays=rays)
    return tr.states[:, :2], tr.status


def _trace_d_branch(Z, x0, direction, horizon, window, tols):
    rhs = Z.slide_rhs(direction)
    outcome, line = _d_stop(Z, x0, rhs(0.0, (x0,))[0], window, tols)
    sol, hit = _integrate(rhs, [x0], horizon, tols, [line])
    xs = sol.y[0]
    return np.column_stack([xs, 0.0 * xs]), outcome if hit else "horizon"


def _min_dist(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.spatial import cKDTree

    tree = cKDTree(b)
    d, _ = tree.query(a, k=1)
    return float(np.min(d))
