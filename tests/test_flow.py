import inspect
import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, solve_ivp
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from filippov import dop853, flow, polys
from filippov.dline import fold_points
from filippov.errors import NoReturn, NotTransversal, StepFailure
from filippov.flow import (
    Closure,
    EventKind,
    SaddleSpec,
    Section,
    advance_hybrid,
    compactified_return_map,
    find_closed_polytrajectories,
    integrate_smooth,
    probe_saddle_connections,
    return_map,
    transition_derivative,
)
from filippov.polys import PolyVectorField, piecewise, univariate_roots, vf
from filippov.regularize import (
    RegularizedField,
    make_transition,
    regularized_cycle_search,
)
from filippov.tolerances import Tolerances, default_tols

WIN = (-5.0, 5.0, -5.0, 5.0)
ONE = {(0, 0): 1.0}
M_ONE = {(0, 0): -1.0}
X_MONO = {(1, 0): 1.0}
Y_MONO = {(0, 1): 1.0}
ROT = vf({(0, 1): -1.0}, X_MONO)  # (-y, x)


def test_straight_drop_hits_d_at_unit_time():
    X = vf({}, M_ONE)
    tr = integrate_smooth(X, (0.0, 1.0), 10.0, WIN, d_direction=-1)
    assert tr.status == "d_hit"
    assert abs(tr.ts[-1] - 1.0) < 1e-9
    assert math.hypot(tr.hit_state[0], tr.hit_state[1]) < 1e-9


def test_horizontal_field_never_hits_d():
    X = vf(ONE, {})
    tr = integrate_smooth(X, (0.0, 1.0), 3.0, WIN, d_direction=-1)
    assert tr.status in ("window", "horizon")
    assert np.all(np.abs(tr.states[:, 1] - 1.0) < 1e-12)


def test_rotation_returns_to_d_at_pi():
    tr = integrate_smooth(ROT, (1.0, 0.0), 10.0, WIN, d_direction=-1)
    assert tr.status == "d_hit"
    assert abs(tr.ts[-1] - math.pi) < 1e-8
    assert abs(tr.hit_state[0] + 1.0) < 1e-8


def test_out_of_range_section_crossings_do_not_recurse():
    # rotation about (0, 2): the orbit from (0, 1) crosses x = 0 at y = 1
    # and y = 3 every half turn, never inside the range (5, 6).  Stepping
    # over each crossing once recursed, so horizon 5000 (about 1600
    # crossings) overflowed the default recursion limit; horizon 500
    # under a limit 100 frames above the current depth shows the same.
    X = vf({(0, 0): 2.0, (0, 1): -1.0}, X_MONO)
    sec = Section((0.0, 0.0), (0.0, 1.0), (5.0, 6.0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        tr = integrate_smooth(X, (0.0, 1.0), 500.0, WIN, section=sec)
    finally:
        sys.setrecursionlimit(limit)
    assert tr.status == "horizon"
    assert abs(tr.ts[-1] - 500.0) < 1e-6
    assert np.all(np.diff(tr.ts) >= 0.0)
    radius = np.hypot(tr.states[:, 0], tr.states[:, 1] - 2.0)
    assert np.max(np.abs(radius - 1.0)) < 1e-5


def test_out_of_range_restart_keeps_quadrature():
    # X = (1, y) has div 1; from (-0.5, 1) it crosses x = 0 at y = e^0.5,
    # outside the range (5, 6), and the integral must run on past it
    X = vf(ONE, Y_MONO)
    sec = Section((0.0, 0.0), (0.0, 1.0), (5.0, 6.0))
    tr = integrate_smooth(X, (-0.5, 1.0), 1.0, WIN, d_direction=0,
                          section=sec, with_divergence=True)
    assert tr.status == "horizon"
    assert abs(tr.states[-1, 1] - math.e) < 1e-8
    assert abs(tr.states[-1, 2] - 1.0) < 1e-9


def test_out_of_range_crossing_at_horizon_ends_at_horizon():
    # X = (1, 0) from (-1, 1) crosses x = 0 at y = 1, outside (5, 6), at
    # t = 1, within 1e-9 of the horizon: no restart fits, so the trace
    # ends there at the horizon, not as a section hit
    sec = Section((0.0, 0.0), (0.0, 1.0), (5.0, 6.0))
    tr = integrate_smooth(vf(ONE, {}), (-1.0, 1.0), 1.0 + 5e-10, WIN,
                          section=sec)
    assert tr.status == "horizon"
    assert tr.hit_state is None


def test_trajectory_along_section_line_not_transversal():
    # the radial field moves (0, 1) along the line x = 0 of the section
    X = vf(X_MONO, Y_MONO)
    sec = Section((0.0, 0.0), (0.0, 1.0), (5.0, 6.0))
    with pytest.raises(NotTransversal):
        integrate_smooth(X, (0.0, 1.0), 1.0, WIN, section=sec)


def test_start_on_window_side_moving_out_exits_at_once():
    # a start on an event line moving in its direction is a crossing: only
    # a section refuses its start
    tr = integrate_smooth(vf(ONE, ONE), (5.0, 1.0), 10.0, WIN)
    assert tr.status == "window"
    assert list(tr.ts) == [0.0]


def test_reversibility_of_smooth_arc():
    X = vf({(1, 0): 1.0, (0, 1): -1.0}, {(1, 1): 1.0, (0, 0): 0.5})
    tr = integrate_smooth(X, (0.3, 0.7), 1.2, WIN, d_direction=-1)
    end = tr.states[-1, :2]
    back = vf({(1, 0): -1.0, (0, 1): 1.0}, {(1, 1): -1.0, (0, 0): -0.5})
    tr2 = integrate_smooth(back, (float(end[0]), float(end[1])),
                           float(tr.ts[-1]), WIN, d_direction=0)
    end2 = tr2.states[-1, :2]
    assert math.hypot(end2[0] - 0.3, end2[1] - 0.7) < 1e-7


def test_hybrid_enters_sliding_then_exits_window():
    Z = piecewise(vf(ONE, M_ONE), vf(ONE, ONE))
    traj = advance_hybrid(Z, (0.0, 1.0), "N", 100.0, WIN)
    kinds = [e.kind for e in traj.events]
    assert kinds[0] is EventKind.ENTER_SLIDING
    assert kinds[-1] is EventKind.WINDOW_EXIT
    assert [a.tag for a in traj.arcs] == ["X", "FZ"]
    slide = traj.arcs[1]
    assert np.all(slide.states[:, 1] == 0.0)
    # sliding speed matches the Filippov field (1, 0)
    xs = slide.states[:, 0]
    ts = slide.ts
    assert abs((xs[-1] - xs[0]) / (ts[-1] - ts[0]) - 1.0) < 1e-9
    traj.validate()


def test_degenerate_sliding_terminates_immediately():
    Z = piecewise(vf({}, M_ONE), vf({}, ONE))
    traj = advance_hybrid(Z, (0.3, 0.5), "N", 10.0, WIN)
    kinds = [e.kind for e in traj.events]
    assert EventKind.REACH_FZ_SINGULARITY in kinds


def test_center_closes_type1():
    Z = piecewise(ROT, ROT)
    traj = advance_hybrid(Z, (1.0, 0.0), "D", 100.0, WIN)
    assert traj.closed is Closure.TYPE1
    assert [a.tag for a in traj.arcs] == ["X", "Y"]
    sew = [e for e in traj.events if e.kind is EventKind.CROSSING_AT_SEWING]
    assert len(sew) == 2
    assert abs(sew[0].state[0] + 1.0) < 1e-7
    end = traj.end_state()
    assert math.hypot(end[0] - 1.0, end[1]) < 1e-6
    traj.validate()


def test_escaping_hit_is_nonunique():
    # X pushes away from D above, Y away below: (0, 1) / (0, -1)
    Z = piecewise(vf(ONE, ONE), vf(ONE, M_ONE))
    traj = advance_hybrid(Z, (0.0, 0.0), "D", 10.0, WIN)
    assert traj.events[-1].kind is EventKind.NON_UNIQUE_FORWARD


def test_transition_derivative_radial_linear():
    X = vf(X_MONO, Y_MONO)  # div = 2
    e = math.e
    sec0 = Section((1.0, 0.0), (0.0, 1.0), (-1.0, 1.0))
    sec1 = Section((e, 0.0), (0.0, 1.0), (-1.0, 1.0))
    d = transition_derivative(X, (1.0, 0.0), (e, 0.0), sec0, sec1, 1.0)
    assert abs(d - e) < 1e-6


def test_transition_derivative_rotation_half_turn():
    sec0 = Section((1.0, 0.0), (1.0, 0.0), (0.5, 1.5))
    sec1 = Section((-1.0, 0.0), (-1.0, 0.0), (0.5, 1.5))
    d = transition_derivative(ROT, (1.0, 0.0), (-1.0, 0.0), sec0, sec1,
                              math.pi)
    assert abs(d - 1.0) < 1e-8


@pytest.mark.parametrize("t_span", [10.0, 100.0])
def test_transition_derivative_catches_stepped_over_crossing(t_span):
    # X = (1, x) from (-4, 7): y = 7 - 4t + t^2/2 meets D at x = -sqrt(2),
    # t = 4 - sqrt(2), inside one step of this polynomial orbit; n0 = 1,
    # n1 = sqrt(2), div = 0
    X = vf(ONE, X_MONO)
    sec0 = Section((-4.0, 7.0), (0.0, 1.0), (-9.0, 9.0))
    sec1 = Section((0.0, 0.0), (1.0, 0.0), (-9.0, 9.0))
    d = transition_derivative(X, (-4.0, 7.0), (-math.sqrt(2.0), 0.0), sec0,
                              sec1, t_span)
    assert abs(d - 1.0 / math.sqrt(2.0)) < 1e-9


def test_transition_derivative_blow_up_is_step_failure():
    # X = (x^2, 0): x = 1/(1 - t) from x = 1 blows up at t = 1, before the
    # horizon 1.5; the solver gives up there instead of reporting no return
    X = vf({(2, 0): 1.0}, {})
    sec0 = Section((1.0, 0.0), (0.0, 1.0), (0.0, 1.0))
    sec1 = Section((-1.0, 0.0), (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(StepFailure):
        transition_derivative(X, (1.0, 0.5), (-1.0, 0.5), sec0, sec1, 1.0)


def test_transition_derivative_matches_displacement():
    # shear field with zero divergence: (y, 0) ... use (y, 0.5) to move
    X = vf({(0, 1): 1.0, (0, 0): 0.2}, {(0, 0): 0.5, (1, 0): 0.1})
    sec0 = Section((0.0, 1.0), (1.0, 0.0), (-0.5, 0.5))
    sec1 = Section((2.0, 2.0), (1.0, 0.0), (-2.0, 2.0))

    def hit_param(s):
        p = sec0.point(s)
        tr = integrate_smooth(X, p, 20.0, WIN, d_direction=0,
                              section=sec1)
        assert tr.status == "section"
        return sec1.param_of(tr.hit_state)

    p0 = sec0.point(0.0)
    tr = integrate_smooth(X, p0, 20.0, WIN, d_direction=0, section=sec1)
    p1 = tr.hit_state
    d = transition_derivative(X, p0, p1, sec0, sec1, float(tr.ts[-1]))
    h = 1e-5
    fd = (hit_param(h) - hit_param(-h)) / (2 * h)
    assert abs(d - fd) / abs(fd) < 1e-4


UNIT_CYCLE = vf({(1, 0): 1.0, (0, 1): -1.0, (3, 0): -1.0, (1, 2): -1.0},
                {(1, 0): 1.0, (0, 1): 1.0, (2, 1): -1.0, (0, 3): -1.0})


def test_return_map_contracts_to_unit_circle():
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    sec = Section((0.0, 0.0), (0.0, 1.0), (0.1, 2.0))
    s1, _ = return_map(Z, sec, 0.5, 100.0, WIN, with_derivative=False)
    assert abs(s1 - 1.0) < abs(0.5 - 1.0)
    s_fix, eta_prime = return_map(Z, sec, 1.0, 100.0, WIN)
    assert abs(s_fix - 1.0) < 1e-8
    assert eta_prime == pytest.approx(math.exp(-4 * math.pi), rel=1e-6)


def test_return_map_center_is_identity():
    Z = piecewise(ROT, ROT)
    sec = Section((0.0, 0.0), (0.0, 1.0), (0.2, 2.0))
    s1, eta_prime = return_map(Z, sec, 0.7, 100.0, WIN)
    assert abs(s1 - 0.7) < 1e-8
    assert abs(eta_prime - 1.0) < 1e-6


def _richardson_derivative(Z, section, s0, horizon=100.0):
    """Central difference of the return map with one Richardson step: an
    independent cross-check of the divergence-integral eta'.  The runs use
    root = 1e-12: solver noise of tols.root over h = 1e-5 would swamp an
    eta' of 1e-6."""
    h = 1e-5 * max(abs(section.s_range[1] - section.s_range[0]), 1.0)
    tols = replace(Tolerances(), root=1e-12)

    def eta(s):
        return return_map(Z, section, s, horizon, WIN, tols,
                          with_derivative=False)[0]

    d_h = (eta(s0 + h) - eta(s0 - h)) / (2 * h)
    d_h2 = (eta(s0 + h / 2) - eta(s0 - h / 2)) / h
    return (4 * d_h2 - d_h) / 3.0


def test_d_section_return_stops_at_first_return(monkeypatch):
    runs = []
    original = flow.advance_hybrid

    def recording(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(flow, "advance_hybrid", recording)
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    sec = Section((0.0, 0.0), (1.0, 0.0), (-5.0, 5.0))
    s1, _ = return_map(Z, sec, 0.5, 100.0, WIN, with_derivative=False)
    assert 0.5 < s1 < 1.0
    (traj,) = runs
    assert [a.tag for a in traj.arcs] == ["X", "Y"]
    assert traj.events[-1].kind is EventKind.SECTION_CROSSING
    assert traj.arcs[-1].t_span[1] < 2 * math.pi + 1


def test_exact_eta_prime_matches_richardson_two_sided():
    uc2 = vf(UNIT_CYCLE.P.scale(2.0).coeffs, UNIT_CYCLE.Q.scale(2.0).coeffs)
    Z = piecewise(UNIT_CYCLE, uc2)
    for sec, s0 in ((Section((0.0, 0.0), (1.0, 0.0), (-5.0, 5.0)), 0.5),
                    (Section((0.0, 0.0), (1.0, 0.0), (-5.0, 5.0)), -1.5),
                    (Section((0.0, 0.0), (0.0, 1.0), (0.1, 2.0)), 0.5)):
        _, exact = return_map(Z, sec, s0, 100.0, WIN)
        fd = _richardson_derivative(Z, sec, s0)
        assert abs(exact - fd) <= 1e-4 * abs(fd)


def test_return_through_sliding_arc_not_transversal():
    # X = (1, x + y) over Y = (1, 1): from (-2, 1) the orbit y = 1 - t
    # lands on the sliding arc x < 0 at x = -1, slides to the visible fold
    # at the origin and leaves on y = e^x - 1 - x, which meets y = 1 at
    # the root of e^x - x = 2
    Z = piecewise(vf(ONE, {(1, 0): 1.0, (0, 1): 1.0}), vf(ONE, ONE))
    sec = Section((-2.0, 1.0), (1.0, 0.0), (-1.0, 5.0))
    s1, _ = return_map(Z, sec, 0.0, 100.0, WIN, with_derivative=False)
    x_exit = brentq(lambda x: math.exp(x) - x - 2.0, 0.5, 2.0)
    assert abs(s1 - (2.0 + x_exit)) < 1e-6
    with pytest.raises(NotTransversal):
        return_map(Z, sec, 0.0, 100.0, WIN)


def test_slide_under_horizontal_section_is_no_return():
    # X = (1, -1) over Y = (1, 1) slides right along D.  From (-4, 1) on the
    # section y = 1 the orbit lands at (-3, 0) and slides under the
    # section's base (-2, 1) to the window without returning; a slide that
    # passed the base's abscissa once ended the run with (-2, 0) as the
    # return, a point off the section
    Z = piecewise(vf(ONE, M_ONE), vf(ONE, ONE))
    sec = Section((-2.0, 1.0), (1.0, 0.0), (-5.0, 5.0))
    with pytest.raises(NoReturn):
        return_map(Z, sec, -2.0, 100.0, WIN, with_derivative=False)


def test_census_work_counter(monkeypatch):
    # deterministic work gate: every return map stops at its first return
    # and eta' needs no finite-difference runs
    nfev = [0]
    original = flow._integrate

    def counting(*args, **kwargs):
        sol, hit = original(*args, **kwargs)
        nfev[0] += sol.nfev
        return sol, hit

    monkeypatch.setattr(flow, "_integrate", counting)
    found = find_closed_polytrajectories(piecewise(UNIT_CYCLE, UNIT_CYCLE),
                                         (-5.0, 5.0, -5.0, 5.0))
    assert len(found) == 1
    assert nfev[0] <= 40_000


def test_census_runs_each_found_cycle_once(monkeypatch):
    # beyond the returns of its secant iterations (return_map without the
    # derivative), the census makes one hybrid run per cycle it finds: the
    # closure and eta' come from the same run
    runs, returns = [0], [0]
    hybrid, first_return = flow.advance_hybrid, flow.return_map

    def counting_run(*args, **kwargs):
        runs[0] += 1
        return hybrid(*args, **kwargs)

    def counting_return(*args, **kwargs):
        returns[0] += kwargs.get("with_derivative") is False
        return first_return(*args, **kwargs)

    monkeypatch.setattr(flow, "advance_hybrid", counting_run)
    monkeypatch.setattr(flow, "return_map", counting_return)
    found = find_closed_polytrajectories(piecewise(UNIT_CYCLE, UNIT_CYCLE),
                                         WIN)
    assert len(found) == 1
    assert runs[0] - returns[0] == len(found)
    assert found[0].certificate["eta_prime"] == pytest.approx(
        math.exp(-4 * math.pi), rel=1e-6)


@pytest.mark.parametrize("field, p0, window, status, t_hit, end", [
    # X = (1, x) from (-2, 1): y = 1 - 2t + t^2/2 meets D at x = -sqrt(2),
    # t = 2 - sqrt(2), then dips below D and comes back
    (vf(ONE, X_MONO), (-2.0, 1.0), WIN, "d_hit", 2.0 - math.sqrt(2.0),
     (-math.sqrt(2.0), 0.0)),
    # the same field from (-4, 7): y = 7 - 4t + t^2/2 dips below D on
    # (4 - sqrt(2), 4 + sqrt(2)), inside one DOP853 step of this orbit
    (vf(ONE, X_MONO), (-4.0, 7.0), (-9.0, 9.0, -9.0, 9.0), "d_hit",
     4.0 - math.sqrt(2.0), (-math.sqrt(2.0), 0.0)),
    # X = (1, -x) from (-3, 0.5): y = 0.5 + 3t - t^2/2 peaks at 5 and is
    # above the window's top 4.5 on (2, 4), inside one DOP853 step
    (vf(ONE, {(1, 0): -1.0}), (-3.0, 0.5), (-9.0, 9.0, -9.0, 4.5),
     "window", 2.0, (-1.0, 4.5)),
], ids=["d-near", "d-far", "window-top"])
def test_polynomial_orbit_crossing_is_not_missed(field, p0, window, status,
                                                 t_hit, end):
    # on an orbit that is a polynomial in t the error estimate is zero, so
    # the step grows until it may span both crossings of the dip; the
    # dense-output check of integrate_smooth finds the first one
    tr = integrate_smooth(field, p0, 100.0, window, d_direction=-1)
    assert tr.status == status
    assert abs(tr.ts[-1] - t_hit) < 1e-9
    assert np.allclose(tr.states[-1, :2], end, atol=1e-9)
    assert np.all(np.diff(tr.ts) > 0.0)


# random_01's Y (bench generator seed 1), whose attracting cycle passes
# through (-9.40084, -4.04373)
RANDOM_01_Y = vf({(0, 0): -1.0290401058277294, (0, 2): -1.3079703936837963,
                  (0, 3): 0.81216304826252594, (1, 0): -0.50118791799343887,
                  (1, 1): 0.033705952999927291, (2, 0): -0.42697962014309576,
                  (2, 1): -1.8817001441323717, (3, 0): 0.81352835441534399},
                 {(0, 0): -1.9771634821984283, (0, 1): -0.42560125448834407,
                  (0, 2): 0.0089542337339323375, (1, 1): 1.4411591156821983,
                  (1, 2): 0.055086652750548026, (2, 1): -0.16347307235732655,
                  (3, 0): 0.19198523786499555})
SLIDING = piecewise(vf(X_MONO, M_ONE), vf({(0, 0): 1.0, (2, 0): 0.5},
                                          {(0, 0): 1.0, (1, 0): 0.2}))


def test_dop853_tableau_shapes():
    # FloatDOP853 generates its stages from these attributes of the dop853
    # module; a change of their layout must fail here
    T = dop853
    assert T.N_STAGES == 12
    assert np.shape(T.A) == (12, 12) and np.shape(T.B) == (12,)
    assert np.shape(T.C) == (12,)
    assert np.shape(T.E3) == (13,) and np.shape(T.E5) == (13,)
    assert np.shape(T.D) == (4, 16)
    assert np.shape(T.A_EXTRA) == (3, 16) and np.shape(T.C_EXTRA) == (3,)


def test_dop853_tableau_matches_scipy_bit_for_bit():
    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        ours, ref = np.array(getattr(dop853, name)), getattr(DOP853, name)
        assert ours.shape == ref.shape, name
        assert ours.tobytes() == ref.tobytes(), name


def _steps(solver):
    """The times and states of the steps of a FloatDOP853 solver run to
    its end, and the interpolant of each step (3 more evaluations a step,
    as scipy's dense output makes)."""
    ts, ys, interpolants = [solver.t], [solver.y], []
    while solver.status == "running":
        solver.step()
        assert solver.status != "failed"
        ts.append(solver.t)
        ys.append(solver.y)
        interpolants.append(solver.dense_output())
    return np.array(ts), np.array(ys).T, interpolants


@pytest.mark.parametrize("rhs, y0", [
    (RANDOM_01_Y.rhs(), [-9.40084, -4.04373]),
    (RANDOM_01_Y.rhs(divergence=True), [-9.40084, -4.04373, 0.0]),
    (SLIDING.slide_rhs(), [0.3]),
], ids=["random_01-Y", "random_01-Y-divergence", "sliding-1d"])
def test_float_dop853_matches_scipy_dop853(rhs, y0):
    tols = Tolerances()
    kw = dict(rtol=tols.root, atol=tols.root / 100)
    ref = solve_ivp(rhs, (0.0, 2.0), y0, method="DOP853", dense_output=True,
                    **kw)
    solver = flow.FloatDOP853(rhs, 0.0, y0, 2.0, **kw)
    ts, ys, interpolants = _steps(solver)
    assert len(ts) == len(ref.t) and solver.nfev == ref.nfev
    # the embedded error estimate of the conservative first step cancels
    # down to rounding noise, so the summation order moves every later step
    # size in its last digits: each step is replayed from the same state
    # with scipy's stepper
    for k, st in enumerate(interpolants):
        one = DOP853(rhs, st.t_old, st.y_old, st.t, first_step=st.h,
                     rtol=kw["rtol"], atol=kw["atol"])
        one.step()
        assert one.t == pytest.approx(st.t, rel=1e-15)
        assert np.allclose(one.y, ys[:, k + 1], rtol=1e-12, atol=1e-12)
        mid = st.t_old + st.h / 2
        assert np.allclose(one.dense_output()(mid), st(mid), rtol=1e-12,
                           atol=1e-12)
    mids = (ref.t[1:] + ref.t[:-1]) / 2
    ours = OdeSolution(ts, interpolants)
    assert np.allclose(ours(mids), ref.sol(mids), rtol=1e-12, atol=1e-12)


def test_single_solver_call_site():
    # one solver, made in one place, and its events come from the
    # stepper's lines alone
    texts = [path.read_text() for path in Path(flow.__file__).parent.glob(
        "*.py")]
    assert sum(text.count("FloatDOP853(") for text in texts) == 1
    for word in ("solve_ivp(", "events=", "t_events", "y_events"):
        assert not any(word in text for text in texts), word


def test_single_code_generator():
    # polys._generate compiles every generated evaluator of the package
    texts = [path.read_text() for path in Path(flow.__file__).parent.glob(
        "*.py")]
    assert sum(text.count("exec(") for text in texts) == 1


def test_float_dop853_line_ends_solve_at_crossing_step():
    # the rotation from (1, 0) crosses y = 0 downwards at t = pi.  The
    # stepper ends the solve by moving t_bound to the end of the step that
    # holds the crossing, which its step() reads as finished, with no
    # warning
    def rhs(t, s):
        return [-s[1], s[0]]

    tols = Tolerances()
    kw = dict(rtol=tols.root, atol=tols.root / 100)
    hits = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts, _, _ = _steps(flow.FloatDOP853(
            rhs, 0.0, [1.0, 0.0], 10.0, lines=[(0.0, 1.0, 0.0, -1)],
            tols=tols, hits=hits, **kw))
    free, _, _ = _steps(flow.FloatDOP853(rhs, 0.0, [1.0, 0.0], 10.0, **kw))
    ((index, t_hit, state),) = hits
    assert index == 0 and abs(t_hit - math.pi) < 1e-8
    assert np.allclose(state, [-1.0, 0.0], atol=1e-8)
    # the same steps as the solve without lines, up to the crossing's
    k = int(np.searchsorted(free, t_hit))
    assert np.array_equal(ts, free[:k + 1])


def test_screen_drops_only_lines_without_a_root(seeded_fields, monkeypatch):
    # steps of random fields, with lines at random distances from a point
    # inside a step: half of them along the flow there, which the orbit
    # grazes or crosses twice, half at a random angle.  For each line that
    # the screen drops from a step, g = a.y + b on the step's interpolant
    # has no root that the exact root count finds, in [0, 1] or within
    # tols.root of it
    rng = np.random.default_rng(7)
    tols = default_tols()
    kw = dict(rtol=tols.root, atol=tols.root / 100, tols=tols)
    kept = {}  # the lines that the screen keeps, by the end of their step

    def record(self, t, t_new, y, y_new, F, lines):
        kept[t_new] = list(lines)  # and no crossing

    monkeypatch.setattr(flow.FloatDOP853, "_crossing", record)
    dropped = by_chord = 0
    for rhs in [F.rhs() for Z in seeded_fields[:20] for F in (Z.X, Z.Y)]:
        p0 = rng.uniform(-1.0, 1.0, 2)
        free, inside = flow.FloatDOP853(rhs, 0.0, p0, 2.0, **kw), []
        while free.status == "running":
            free.step()
            t = free.t_old + (free.t - free.t_old) * rng.uniform(0.2, 0.8)
            inside.append(free.dense_output()(t))
        if free.status == "failed":  # the orbit blows up
            continue
        lines = []
        for k in rng.integers(0, len(inside), 8):
            x, y = inside[k]
            vx, vy = rhs(0.0, (x, y))
            angle = math.atan2(vx, -vy) if len(lines) % 2 else \
                rng.uniform(0, 2 * math.pi)
            ax, ay = math.cos(angle), math.sin(angle)
            dist = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-10, -1)
            lines.append((ax, ay, dist - ax * x - ay * y, 0))
        solver = flow.FloatDOP853(rhs, 0.0, p0, 2.0, lines=lines, **kw)
        while solver.status == "running":
            solver.step()
            F = solver.dense_output().F  # the kernel's rows, as (7, 2)
            y0 = solver.y_old
            for i, (ax, ay, b, _) in enumerate(lines):
                if i in kept.get(solver.t, ()):
                    continue
                g0 = ax * y0[0] + ay * y0[1] + b
                gF = F @ (ax, ay)
                c = [g0] + [0.0] * 7
                for j, p, bp in flow._dense_basis(7):
                    c[p] += gF[j] * bp
                assert univariate_roots(c, (0.0, 1.0), tols) == []
                dropped += 1
                by_chord += abs(g0) <= np.sum(np.abs(F) @ (abs(ax), abs(ay)))
    assert dropped > 4000 and by_chord > 800  # 5631 and 1036


def test_crossing_state_is_the_interpolants_to_the_bit():
    # _crossing takes the state at a crossing from the rows in float code;
    # it is the step's interpolant at that time, float for float
    tols = Tolerances()
    rng = np.random.default_rng(9)
    solver = flow.FloatDOP853(RANDOM_01_Y.rhs(divergence=True), 0.0,
                              [-9.40084, -4.04373, 0.0], 2.0,
                              rtol=tols.root, atol=tols.root / 100)
    for st in _steps(solver)[2]:
        for t in [st.t_old, st.t, *(st.t_old + st.h * rng.random(4))]:
            state = flow._interpolate(st.F.T.tolist(), st.y_old.tolist(),
                                      (t - st.t_old) / st.h)
            assert _bits(state) == _bits(st(t))


def test_bend_bounds_are_the_maxima_of_the_dense_basis():
    xs = np.linspace(0.0, 1.0, 200_001)
    b = np.zeros((7, xs.size))
    for j, p, bp in flow._dense_basis(7):
        b[j] += bp * xs ** p
    peaks = np.abs(b[1:]).max(axis=1)
    assert np.all(peaks <= np.array(flow._BEND) * (1 + 1e-15))
    assert np.allclose(peaks, flow._BEND, rtol=1e-9, atol=0.0)


def test_return_map_hands_few_steps_to_the_crossing_search(monkeypatch):
    # one return around the unit cycle takes 52 steps, each watching y = 0,
    # the window's sides and the section; only the steps near one of these
    # lines go to the crossing search in Python
    calls, steps = [], []
    crossing, integrate = flow.FloatDOP853._crossing, flow._integrate

    def counting_crossing(self, *args):
        calls.append(args[1])
        return crossing(self, *args)

    def counting_integrate(*args, **kwargs):
        sol, hit = integrate(*args, **kwargs)
        steps.append(len(sol.t) - 1)
        return sol, hit

    monkeypatch.setattr(flow.FloatDOP853, "_crossing", counting_crossing)
    monkeypatch.setattr(flow, "_integrate", counting_integrate)
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    sec = Section((0.0, 0.0), (0.0, 1.0), (0.1, 2.0))
    s_fix, _ = return_map(Z, sec, 1.0, 100.0, WIN)
    assert abs(s_fix - 1.0) < 1e-8
    assert sum(steps) >= 40 and len(calls) <= 10


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_sliding_arc_steps_over_close_fold_pair(delta):
    # X = (1, delta^2 - x^2) over Y = (0, 1): D slides for |x| > delta and
    # sews between.  The slide from x = -3 moves at x' = 1 / (1 - delta^2
    # + x^2) and leaves at the fold x = -delta; a step that jumps both
    # roots of Q_X kept its sign at the step ends and slid on to the horizon
    Z = piecewise(vf(ONE, {(0, 0): delta * delta, (2, 0): -1.0}), vf({}, ONE))
    traj = advance_hybrid(Z, (-3.0, 0.0), "D", 20.0, WIN)
    first = traj.events[0]
    assert first.kind is EventKind.EXIT_AT_FOLD
    assert abs(first.state[0] + delta) < 1e-12
    t_fold = (1 - delta ** 2) * (3 - delta) + (27 - delta ** 3) / 3
    assert abs(first.time - t_fold) < 1e-8
    pts, fate = flow._trace_d_branch(Z, -3.0, 1.0, 20.0, WIN, default_tols())
    assert fate == "q1_root" and abs(pts[-1, 0] + delta) < 1e-12


def test_tolerance_scale_reaches_solvers(monkeypatch):
    monkeypatch.setenv("FILIPPOV_TOLERANCE_SCALE", "10")
    seen = []
    original = flow.FloatDOP853

    def recording(*args, **kwargs):
        seen[-1].append((kwargs["rtol"], kwargs["atol"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "FloatDOP853", recording)
    sec0 = Section((1.0, 0.0), (1.0, 0.0), (0.5, 1.5))
    sec1 = Section((-1.0, 0.0), (-1.0, 0.0), (0.5, 1.5))
    spiral = piecewise(vf({(0, 1): -1.0, (1, 0): 1.0},
                          {(1, 0): 1.0, (0, 1): 1.0}), ROT)
    uc = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    for call in (
            lambda: integrate_smooth(ROT, (1.0, 0.0), 10.0, WIN, -1),
            lambda: transition_derivative(ROT, (1.0, 0.0), (-1.0, 0.0),
                                          sec0, sec1, math.pi),
            lambda: compactified_return_map(spiral, 0.05),
            lambda: regularized_cycle_search(
                uc, make_transition("smoothstep", 1), 0.05, 0.0,
                (0.4, 1.6))):
        seen.append([])
        call()
    for solves in seen:
        assert solves
        for rtol, atol in solves:
            assert rtol == pytest.approx(1e-9, rel=1e-12)
            assert atol == pytest.approx(1e-11, rel=1e-12)


def test_compactified_return_derivative_matches_mu():
    Z = piecewise(vf({(0, 1): -1.0, (1, 0): 1.0},
                     {(1, 0): 1.0, (0, 1): 1.0}), ROT)
    rho1, d = compactified_return_map(Z, 0.05)
    assert rho1 < 0.05
    assert abs(d - math.exp(-math.pi)) < 1e-3



@pytest.mark.parametrize("Z", [
    # criterion 3's spiral: the map is linear, with slope e^-pi
    piecewise(vf({(0, 1): -1.0, (1, 0): 1.0}, {(1, 0): 1.0, (0, 1): 1.0}),
              ROT),
    # cubic pieces without zeros at infinity: the slope depends on rho0
    piecewise(vf({(1, 0): 1.0, (0, 1): -1.0, (2, 1): -1.0, (0, 3): -1.0},
                 {(1, 0): 1.0, (0, 1): 1.0, (3, 0): 1.0, (1, 2): 1.0}),
              vf({(0, 1): -1.0, (2, 1): -0.5, (0, 3): -0.5},
                 {(1, 0): 1.0, (3, 0): 0.5, (1, 2): 0.5})),
], ids=["spiral", "cubic"])
def test_compactified_return_derivative_matches_richardson(Z):
    rho0, h = 0.05, 1e-3

    def central(step):
        return (compactified_return_map(Z, rho0 + step)[0]
                - compactified_return_map(Z, rho0 - step)[0]) / (2 * step)

    richardson = (4 * central(h / 2) - central(h)) / 3
    _, d = compactified_return_map(Z, rho0)
    assert abs(d - richardson) <= 1e-7 * abs(richardson)


def test_census_center_orbits_not_elementary():
    Z = piecewise(ROT, ROT)
    found = find_closed_polytrajectories(Z, WIN)
    assert found
    for orb in found:
        assert orb.closure is Closure.TYPE1
        assert orb.elementary == "no"
        assert abs(orb.certificate["eta_prime"] - 1.0) < 1e-6


def test_census_finds_unit_limit_cycle_once():
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    found = find_closed_polytrajectories(Z, WIN)
    assert len(found) == 1
    orb = found[0]
    assert orb.closure is Closure.TYPE1
    assert orb.elementary == "yes"
    assert abs(abs(orb.certificate["x"]) - 1.0) < 1e-6
    assert orb.certificate["eta_prime"] == pytest.approx(
        math.exp(-4 * math.pi), rel=1e-6)


def test_census_drift_field_finds_nothing():
    Z = piecewise(vf(ONE, X_MONO), vf(ONE, ONE))
    assert find_closed_polytrajectories(Z, WIN) == []


def test_min_dist_matches_kdtree():
    # the blocked numpy search against scipy's k-d tree, bit for bit, on
    # point sets smaller and larger than one block
    rng = np.random.default_rng(5)
    for na, nb in ((1, 1), (7, 300), (400, 350), (5000, 3)):
        a, b = rng.normal(size=(na, 2)), rng.normal(size=(nb, 2)) + 0.5
        want = float(np.min(cKDTree(b).query(a, k=1)[0]))
        assert flow._min_dist(a, b) == want


def test_probe_no_saddles():
    Z = piecewise(ROT, ROT)
    rep = probe_saddle_connections(Z, [])
    assert rep.branches == []
    assert rep.flagged == []


def test_probe_generic_no_connection():
    # X saddle at (0.2, 1); Y constant with no singularities
    X = vf({(1, 0): 1.0, (0, 0): -0.2}, {(0, 0): 1.0, (0, 1): -1.0})
    Z = piecewise(X, vf(ONE, ONE))
    rep = probe_saddle_connections(Z, [SaddleSpec("X", (0.2, 1.0))])
    assert rep.flagged == []
    finite = rep.distances[np.isfinite(rep.distances)]
    assert finite.size == 0 or np.min(finite) > default_tols().connect


def test_probe_flags_symmetric_heteroclinic():
    # X = (x(2-y), 1-y-x^2): saddle at (0,1), stable manifold the y-axis
    # hitting D at the escaping-arc Filippov saddle x=0 of Y = (0,-1)
    X = vf({(1, 0): 2.0, (1, 1): -1.0},
           {(0, 0): 1.0, (0, 1): -1.0, (2, 0): -1.0})
    Z = piecewise(X, vf({}, M_ONE))
    saddles = [SaddleSpec("X", (0.0, 1.0)), SaddleSpec("FZ", (0.0, 0.0))]
    rep = probe_saddle_connections(Z, saddles, window=(-3, 3, -3, 3))
    assert rep.flagged
    hit = False
    for i, j in rep.flagged:
        kinds = {rep.branches[i].saddle_index, rep.branches[j].saddle_index}
        if kinds == {0, 1}:
            hit = True
    assert hit


def _circle_field(k: float, center: tuple[float, float]) -> PolyVectorField:
    # rotation about center with r' = k r (1 - r^2): for k > 0 the circle
    # r = 1 is an attracting cycle of period 2 pi and multiplier
    # exp(-4 pi k); for k = 0 every circle about center is a periodic orbit
    x = polys.poly({(1, 0): 1.0}) - polys.poly({(0, 0): center[0]})
    y = polys.poly({(0, 1): 1.0}) - polys.poly({(0, 0): center[1]})
    g = (polys.poly({(0, 0): 1.0}) - x * x - y * y).scale(k)
    return PolyVectorField(-y + x * g, x + y * g, 3)


@pytest.mark.parametrize("multiplier", [0.9, 0.95])
def test_branch_onto_a_weak_cycle_settles_only_within_its_tail_bound(
        multiplier):
    # with q near 1 the drift per turn falls slowly: the branch must turn
    # until the geometric tail d2 q / (1 - q) is within tols.close, which
    # takes over a hundred turns, far beyond the probe's horizon
    tols, center = default_tols(), (0.0, -3.0)
    Y = _circle_field(-math.log(multiplier) / (4 * math.pi), center)
    window = (-10.0, 10.0, -10.0, 10.0)

    def radius(p):
        return math.hypot(p[0] - center[0], p[1] - center[1])

    short = integrate_smooth(Y, (1.2, -3.0), 100.0 / 3.0, window, 1,
                             tols=tols, rays=[center])
    assert short.status == "horizon"
    tr = integrate_smooth(Y, (1.2, -3.0), 3000.0, window, 1, tols=tols,
                          rays=[center])
    assert tr.status == "settled" and tr.ts[-1] > 100 * 2 * math.pi
    end = tr.states[-1]
    assert abs(end[1] - center[1]) <= 1e-12 and end[0] > center[0]
    # the drift still to come, on the trace that does not stop
    full = integrate_smooth(Y, (1.2, -3.0), 3000.0, window, 1, tols=tols)
    later = [radius(p) for p in full.states[full.ts > tr.ts[-1]]]
    assert 0.0 < radius(end) - 1.0 <= 1.5 * tols.close
    assert max(abs(r - radius(end)) for r in later) <= 1.5 * tols.close


def test_branch_near_a_linear_center_settles_on_its_own_orbit():
    # every orbit about a linear center is closed, so the crossings of the
    # ray differ only by the solver's error: settling there only drops
    # further turns of the orbit already traced
    tols, center = default_tols(), (0.0, 2.0)
    X = _circle_field(0.0, center)
    for p0 in ((0.0, 3.0), (0.3, 2.0)):
        r0 = math.hypot(p0[0] - center[0], p0[1] - center[1])
        tr = integrate_smooth(X, p0, 100.0, WIN, -1, tols=tols,
                              rays=[center])
        assert tr.status == "settled"
        assert tr.ts[-1] >= 2 * 2 * math.pi - 1e-9  # three crossings
        radii = np.hypot(tr.states[:, 0] - center[0],
                         tr.states[:, 1] - center[1])
        assert np.max(np.abs(radii - r0)) <= tols.close


def test_ray_along_a_trace_neither_stops_nor_raises():
    # the line y = 1 is invariant under X = (x^2 - 4x + 3, 1 - y): a trace
    # on it runs along the ray from the node (1, 1) to the horizon
    X = vf({(2, 0): 1.0, (1, 0): -4.0, (0, 0): 3.0}, {(0, 0): 1.0,
                                                      (0, 1): -1.0})
    tr = integrate_smooth(X, (3.0 - 1e-6, 1.0), 20.0, WIN, -1,
                          rays=[(1.0, 1.0)])
    assert tr.status == "horizon"
    assert np.all(tr.states[:, 1] == 1.0)


def test_event_line_passes_each_crossing_direction_to_accept():
    # the rotation from (1, 0) crosses y = 0.5 upwards at t = pi/6 and
    # downwards at 5 pi/6: one line in both directions hands accept the
    # sign of each crossing
    seen = []

    def accept(t, state, way):
        seen.append((t, way))
        return False

    _, hit = flow._integrate(ROT.rhs(), [1.0, 0.0], 2 * math.pi,
                             default_tols(), [(0.0, 1.0, -0.5, 0, accept)])
    assert hit is None
    assert [way for _, way in seen] == [1, -1]
    assert np.allclose([t for t, _ in seen], [math.pi / 6, 5 * math.pi / 6],
                       atol=1e-8)


def test_ray_settles_on_the_crossings_of_one_direction():
    # upward crossings at 1, 2 + 1e-8, 2 + 2e-8 settle; the downward one at
    # 2 between them is not part of that drift
    ray = flow._Ray(0.0, default_tols().close)
    crossings = [(1.0, 1), (2.0, -1), (2.0 + 1e-8, 1), (5.0, -1),
                 (2.0 + 2e-8, 1)]
    assert [ray(0.0, (x, 0.0), way) for x, way in crossings] == \
        [False] * 4 + [True]



def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _slide_reference(Z, x):
    # the sliding field as the chain of polynomial calls evaluates it
    q1, q2 = Z.X.Q(x, 0.0), Z.Y.Q(x, 0.0)
    return (q2 * Z.X.P(x, 0.0) - q1 * Z.Y.P(x, 0.0)) / (q2 - q1)


def test_generated_rhs_matches_call_chain_to_the_bit(seeded_fields):
    # every kernel returns the floats of the evaluators it replaces: the
    # field's __call__ and divergence, the reversed field built from
    # negated coefficients, the sliding field, and the regularized blend
    # with its exact Jacobian; also for a numpy state, as scipy passes one
    rng = np.random.default_rng(3)
    phis = [make_transition("smoothstep", n) for n in (1, 2, 3, 4)]
    phis.append(make_transition("bump"))
    eps = 0.3
    for k, Z in enumerate(seeded_fields):
        R = RegularizedField(Z, phis[k % 5], eps)
        R_div = RegularizedField(Z, phis[(k + 1) % 5], eps)
        xs = rng.uniform(-3.0, 3.0, size=9)
        # off D, inside the band, on its edges and outside it
        ys = [*rng.uniform(-3.0, 3.0, size=3),
              *rng.uniform(-eps, eps, size=3), eps, -eps, 2 * eps]
        for x, y in zip(xs, ys):
            for state in ((x, y), np.array([x, y])):
                for F in (Z.X, Z.Y):
                    want = F(x, y)
                    back = PolyVectorField(F.P.scale(-1.0), F.Q.scale(-1.0),
                                           F.m)
                    assert _bits(F.rhs()(0.0, state)) == _bits(want)
                    assert _bits(F.rhs(divergence=True)(0.0, state)) == \
                        _bits(want + (F.divergence()(x, y),))
                    assert _bits(F.rhs(reverse=True)(0.0, state)) == \
                        _bits(back(x, y))
                for sign in (1.0, -1.0):
                    assert _bits(Z.slide_rhs(sign)(0.0, state[:1])) == \
                        _bits([sign * _slide_reference(Z, x)])
                assert _bits(R.rhs()(0.0, state)) == _bits(R(x, y))
                assert _bits(R_div.rhs(divergence=True)(0.0, state)) == \
                    _bits(R_div(x, y) + (np.trace(R_div.jacobian(x, y)),))


def _counting_generator(monkeypatch) -> list[str]:
    labels = []
    original = polys._generate

    def counting(source, label, **names):
        labels.append(label)
        return original(source, label, **names)

    monkeypatch.setattr(polys, "_generate", counting)
    return labels


def test_import_and_building_fields_compile_nothing():
    spec = Path(__file__).parents[1] / "bench" / "corpus" / "uc.txt"
    script = f"""
import builtins
generated, real = [], builtins.compile

def spy(source, filename, *args, **kwargs):
    if str(filename) in ("<horner>", "<rhs>") \
            or str(filename).startswith("<dop853"):
        generated.append(filename)
    return real(source, filename, *args, **kwargs)

builtins.compile = spy
from filippov import cli, fieldspec, flow, regularize
from filippov.polys import piecewise, vf

X = vf({{(2, 1): 1.5}}, {{(1, 0): 1.0}})
X.jacobian(), X.divergence()
Z = piecewise(X, vf({{(0, 1): -1.0}}, {{(1, 0): 1.0}}))
regularize.RegularizedField(Z, regularize.make_transition("bump"), 0.1)
fieldspec.parse(open({str(spec)!r}).read()).to_field()
assert flow._dop853_kernel.cache_info().currsize == 0
print(generated)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(flow.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_second_solve_on_a_field_compiles_nothing(monkeypatch):
    labels = _counting_generator(monkeypatch)
    X = vf({(0, 1): -1.0, (2, 0): 0.1}, X_MONO)
    Z = piecewise(vf(X_MONO, M_ONE), vf({(0, 0): 1.0, (2, 0): 0.5},
                                        {(0, 0): 1.0, (1, 0): 0.2}))
    horners = []
    for _ in range(2):
        integrate_smooth(X, (1.0, 0.5), 10.0, WIN, -1, with_divergence=True)
        traj = advance_hybrid(Z, (0.3, 0.0), "D", 10.0, WIN)
        fold_points(Z, (-3.0, 3.0))
        horners.append(labels.count("horner"))
    assert labels.count("rhs") == 2  # X with divergence; Z's slide
    # the run slides, and det and the second Lie derivatives of the folds
    # are built once per field, so the second round compiles no horner
    assert "FZ" in [arc.tag for arc in traj.arcs]
    assert horners[0] > 0 and horners[1] == horners[0]
    # the solves of one regularized search share its two kernels
    labels.clear()
    regularized_cycle_search(piecewise(UNIT_CYCLE, UNIT_CYCLE),
                             make_transition("smoothstep", 1), 0.05, 0.0,
                             (0.4, 1.6))
    assert labels.count("rhs") == 2


def _counting_solves(monkeypatch) -> list[float]:
    starts = []
    original = flow._integrate

    def counting(rhs, y0, *args, **kwargs):
        starts.append(y0[1])
        return original(rhs, y0, *args, **kwargs)

    monkeypatch.setattr(flow, "_integrate", counting)
    return starts


def test_regularized_search_of_the_unit_cycle_makes_few_solves(monkeypatch):
    # the return map is increasing on the section, so one return fixes the
    # sign of eta(s) - s on every grid point between s and eta(s): a few
    # returns cover the 24 grid points, and the bracket ends are not solved
    # again
    starts = _counting_solves(monkeypatch)
    cycles = regularized_cycle_search(piecewise(UNIT_CYCLE, UNIT_CYCLE),
                                      make_transition("smoothstep", 1), 0.05,
                                      0.0, (0.4, 1.6))
    assert len(cycles) == 1 and abs(cycles[0].section_value - 1.0) <= 1e-9
    assert len(starts) <= 8


def test_regularized_search_spreads_no_sign_from_a_failed_return(
        monkeypatch):
    # rdot = r (r^2 - 1): every orbit inside the repelling unit circle
    # returns below its start, and every orbit outside blows up before it
    # returns.  Neither kind fixes the sign at another grid point, so each
    # of the 24 is solved, and no bracket is formed
    X = vf({(0, 1): -1.0, (1, 0): -1.0, (3, 0): 1.0, (1, 2): 1.0},
           {(1, 0): 1.0, (0, 1): -1.0, (2, 1): 1.0, (0, 3): 1.0})
    starts = _counting_solves(monkeypatch)
    assert regularized_cycle_search(piecewise(X, X),
                                    make_transition("smoothstep", 1), 0.05,
                                    0.0, (0.4, 1.6)) == []
    assert sorted(starts) == np.linspace(0.4, 1.6, 24).tolist()


def test_reversed_branches_share_one_kernel(monkeypatch):
    labels = _counting_generator(monkeypatch)
    X = vf({(1, 0): 1.0, (0, 0): -0.2}, {(0, 0): 1.0, (0, 1): -1.0})
    rep = probe_saddle_connections(piecewise(X, vf(ONE, ONE)),
                                   [SaddleSpec("X", (0.2, 1.0))])
    assert [b.stability for b in rep.branches].count("stable") == 2
    assert labels.count("rhs") == 2
    assert set(X._kernels) == {(False, False), (True, False)}


def test_pickled_fields_drop_their_kernels():
    Z = piecewise(UNIT_CYCLE, vf(ONE, ONE))
    R = RegularizedField(Z, make_transition("smoothstep", 2), 0.1)
    for obj, make in ((Z.X, lambda F: F.rhs(True, True)),
                      (Z, lambda F: F.slide_rhs(-1.0)),
                      (R, lambda F: F.rhs(True))):
        rhs = make(obj)
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj and "_kernels" not in vars(clone)
        assert make(clone)(0.0, (0.25, 0.05)) == rhs(0.0, (0.25, 0.05))


def test_slide_ending_at_zero_of_sliding_field_is_fz_singularity():
    # Q_Y(x, 0) = x and det(x, 0) = x (x^2 - 1) share the root x = 0, where
    # the slide from x = 0.2 stops: a zero of the sliding field, not a fold
    X = vf({(2, 0): 1.0, (0, 0): -1.0},
           {(1, 1): -1.0, (1, 0): 1.0, (2, 0): 0.3, (0, 0): -0.3})
    Z = piecewise(X, vf({(0, 1): -1.0}, X_MONO))
    traj = advance_hybrid(Z, (0.2, 0.0), "D", 50.0, WIN)
    assert [e.kind for e in traj.events] == [EventKind.REACH_FZ_SINGULARITY]
    assert abs(traj.end_state()[0]) < 1e-12
