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
import numpy.polynomial.polynomial as npoly
import pytest
from scipy.integrate import DOP853, OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

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
from filippov.polys import (
    PolyVectorField,
    constant,
    piecewise,
    poly,
    univariate_roots,
    vf,
)
from filippov.regularize import (
    RegularizedField,
    make_transition,
    regularized_cycle_search,
)
from filippov.stability import default_window
from filippov.tolerances import Tolerances, default_tols
from filippov.work import WORK, since

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
    assert math.hypot(tr.states[-1, 0], tr.states[-1, 1]) < 1e-9


def test_horizontal_field_never_hits_d():
    X = vf(ONE, {})
    tr = integrate_smooth(X, (0.0, 1.0), 3.0, WIN, d_direction=-1)
    assert tr.status in ("window", "horizon")
    assert np.all(np.abs(tr.states[:, 1] - 1.0) < 1e-12)


def test_rotation_returns_to_d_at_pi():
    tr = integrate_smooth(ROT, (1.0, 0.0), 10.0, WIN, d_direction=-1)
    assert tr.status == "d_hit"
    assert abs(tr.ts[-1] - math.pi) < 1e-8
    assert abs(tr.states[-1, 0] + 1.0) < 1e-8


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


def test_arcs_that_reach_d_end_on_it(seeded_fields):
    # an X or Y arc that another arc follows ends at the point of D that
    # the run goes on from, which its event at D holds too
    followed = 0
    for Z in seeded_fields:
        for p0 in ((0.3, 0.8), (-0.5, -0.6)):
            traj = advance_hybrid(Z, p0, "N" if p0[1] > 0 else "S", 10.0,
                                  WIN)
            for arc in traj.arcs[:-1]:
                if arc.tag != "FZ":
                    followed += 1
                    assert arc.states[-1, 1] == 0.0
                    assert any(e.time == arc.ts[-1]
                               and e.state == tuple(arc.states[-1])
                               for e in traj.events)
    assert followed >= 30


def test_escaping_hit_is_nonunique():
    # X pushes away from D above, Y away below: (0, 1) / (0, -1)
    Z = piecewise(vf(ONE, ONE), vf(ONE, M_ONE))
    traj = advance_hybrid(Z, (0.0, 0.0), "D", 10.0, WIN)
    assert traj.events[-1].kind is EventKind.NON_UNIQUE_FORWARD


def test_start_at_a_tangency_ends_with_tangency():
    # X = (1, x) is tangent to D at the origin and Y = (1, 1) is not: a run
    # that starts there has no arriving field to graze with
    Z = piecewise(vf(ONE, X_MONO), vf(ONE, ONE))
    traj = advance_hybrid(Z, (0.0, 0.0), "D", 10.0, WIN)
    assert traj.arcs == []
    assert [(e.kind, e.state) for e in traj.events] == [
        (EventKind.TANGENCY, (0.0, 0.0))]


def test_slide_into_a_cusp_ends_with_tangency():
    # X = (1, x^3) over Y = (1, 1): D slides for x < 0 at speed 1 into the
    # triple root of Q_X at 0, where X(Xf) = 3 x^2 vanishes, so X has no
    # fold there to exit at
    Z = piecewise(vf(ONE, {(3, 0): 1.0}), vf(ONE, ONE))
    traj = advance_hybrid(Z, (-1.0, 0.0), "D", 10.0, WIN)
    assert [a.tag for a in traj.arcs] == ["FZ"]
    assert [e.kind for e in traj.events] == [EventKind.TANGENCY]
    end = traj.events[-1]
    assert abs(end.state[0]) < 1e-9 and end.state[1] == 0.0
    assert abs(end.time - 1.0) < 1e-8


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


def test_transition_derivative_along_a_section_is_not_transversal():
    # X = (1, 0) runs along the horizontal sec0 through p0, so its speed
    # across sec0 is 0, though the orbit reaches x = 1 at (1, 0.5)
    X = vf(ONE, {})
    sec0 = Section((0.0, 0.5), (1.0, 0.0), (-1.0, 1.0))
    sec1 = Section((1.0, 0.0), (0.0, 1.0), (-1.0, 1.0))
    with pytest.raises(NotTransversal):
        transition_derivative(X, (0.0, 0.5), (1.0, 0.5), sec0, sec1, 2.0)


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
        return sec1.param_of(tr.states[-1])

    p0 = sec0.point(0.0)
    tr = integrate_smooth(X, p0, 20.0, WIN, d_direction=0, section=sec1)
    p1 = tr.states[-1]
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
    assert traj.arcs[-1].ts[-1] < 2 * math.pi + 1


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
    before = dict(WORK)
    with pytest.raises(NoReturn):
        return_map(Z, sec, -2.0, 100.0, WIN, with_derivative=False)
    # a return map that raises is counted too
    assert since(before)["return_maps"] == 1


def test_census_work_counter():
    # deterministic work gate: every return map stops at its first return
    # and eta' needs no finite-difference runs
    before = dict(WORK)
    found = find_closed_polytrajectories(piecewise(UNIT_CYCLE, UNIT_CYCLE),
                                         (-5.0, 5.0, -5.0, 5.0))
    assert len(found) == 1
    assert since(before)["rhs_evaluations"] <= 8_000


def test_census_runs_each_found_cycle_once(monkeypatch):
    # beyond the returns of its secant iterations (return_map without the
    # derivative), the census makes one hybrid run per cycle it finds: the
    # closure and eta' come from the same run
    returns, before = [0], dict(WORK)
    first_return = flow.return_map

    def counting_return(*args, **kwargs):
        returns[0] += kwargs.get("with_derivative") is False
        return first_return(*args, **kwargs)

    monkeypatch.setattr(flow, "return_map", counting_return)
    found = find_closed_polytrajectories(piecewise(UNIT_CYCLE, UNIT_CYCLE),
                                         WIN)
    assert len(found) == 1
    assert since(before)["hybrid_runs"] - returns[0] == len(found)
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
    # _dop853_kernel generates its stages from these attributes of the dop853
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


# a line that the screen never drops: every step goes to the crossing
# search, and runs the 3 extra stages of its dense output
ALWAYS = (0.0, 0.0, 0.0, 0)


def _record_steps(monkeypatch) -> list:
    """Make flow._crossing record each step that it gets, as
    (t_old, t, y_old, y, F, kept) with F the rows of the step's interpolant
    by component, and find no crossing; returns the list of steps."""
    steps = []

    def record(lines, tols, t0, *step):
        steps.append(step)

    monkeypatch.setattr(flow, "_crossing", record)
    return steps


def _interpolants(steps) -> list:
    """scipy's DOP853 dense output of each recorded step, on its rows."""
    return [Dop853DenseOutput(t, t_new, np.array(y), np.array(F).T)
            for t, t_new, y, _, F, _ in steps]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rms_is_numpys_norm_to_the_bit(n):
    # _initial_step's norms: numpy's norm(v) / sqrt(v.size) bit for bit,
    # as a numpy scalar, on vectors whose entries run from subnormal to
    # overflowing squares
    rng = np.random.default_rng(n)
    assert n ** 0.5 == math.sqrt(n)
    for _ in range(5000):
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-320, 300, n)
        with np.errstate(over="ignore"):
            got, want = flow._rms(v), np.linalg.norm(v) / math.sqrt(v.size)
        assert isinstance(got, np.float64)
        assert float(got).hex() == float(want).hex()


def _scipy(rhs):
    """rhs(t, *state) as scipy's solvers call it, with the state as one
    array."""
    return lambda t, s: rhs(t, *s)


@pytest.mark.parametrize("rhs, y0", [
    (RANDOM_01_Y.rhs(), [-9.40084, -4.04373]),
    (RANDOM_01_Y.rhs(divergence=True), [-9.40084, -4.04373, 0.0]),
    (SLIDING.slide_rhs(), [0.3]),
], ids=["random_01-Y", "random_01-Y-divergence", "sliding-1d"])
def test_float_dop853_matches_scipy_dop853(rhs, y0, monkeypatch):
    tols = Tolerances()
    kw = dict(rtol=tols.root, atol=tols.root / 100)
    ref = solve_ivp(_scipy(rhs), (0.0, 2.0), y0, method="DOP853",
                    dense_output=True, **kw)
    steps, nfev = _record_steps(monkeypatch), [0]

    def counted(t, *s):
        nfev[0] += 1
        return rhs(t, *s)

    # each step with a line makes the 3 evaluations a step of scipy's
    # dense output makes, and the library counts them as scipy does
    before = dict(WORK)
    ts, ys, hit = flow._integrate(counted, y0, 2.0, tols, [ALWAYS])
    assert hit is None and len(steps) == len(ts) - 1
    assert len(ts) == len(ref.t)
    assert nfev[0] == since(before)["rhs_evaluations"] == ref.nfev
    interpolants = _interpolants(steps)
    # the embedded error estimate of the conservative first step cancels
    # down to rounding noise, so the summation order moves every later step
    # size in its last digits: each step is replayed from the same state
    # with scipy's stepper
    for k, st in enumerate(interpolants):
        one = DOP853(_scipy(rhs), st.t_old, st.y_old, st.t,
                     first_step=st.h, rtol=kw["rtol"], atol=kw["atol"])
        one.step()
        assert one.t == pytest.approx(st.t, rel=1e-15)
        assert np.allclose(one.y, ys[k + 1], rtol=1e-12, atol=1e-12)
        mid = st.t_old + st.h / 2
        assert np.allclose(one.dense_output()(mid), st(mid), rtol=1e-12,
                           atol=1e-12)
    mids = (ref.t[1:] + ref.t[:-1]) / 2
    ours = OdeSolution(ts, interpolants)
    assert np.allclose(ours(mids), ref.sol(mids), rtol=1e-12, atol=1e-12)


def _numpy_initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """scipy's select_initial_step for DOP853 (error estimator order 7),
    in numpy as scipy writes it, with h0 clamped to the interval as
    recent scipy releases do."""
    def norm(v):
        return np.linalg.norm(v) / v.size ** 0.5

    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = norm(y0 / scale), norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _zero_division_at_start(t, x, y):
    # divides by zero at x = 1: a ZeroDivisionError on floats, inf on
    # numpy scalars
    return 1.0 / (x - 1.0), -y


def _zero_division_after_start(t, x, y):
    # finite at t = 0, and x / 0 at the initial step's point
    return 1.0, (0.0 if t == 0.0 else x / (x - x))


@pytest.mark.parametrize("rhs, y0, t_end", [
    (RANDOM_01_Y.rhs(), [-9.40084, -4.04373], 2.0),
    (RANDOM_01_Y.rhs(divergence=True), [-9.40084, -4.04373, 0.0], 2.0),
    (RANDOM_01_Y.rhs(reverse=True), [-9.40084, -4.04373], -2.0),
    (SLIDING.slide_rhs(), [0.3], 2.0),
    (ROT.rhs(), [0.0, 0.0], 2.0),
    (ROT.rhs(), [1e-300, 0.0], 1e-12),
    (_zero_division_at_start, [1.0, 0.5], 1.0),
    (_zero_division_after_start, [1.0, 0.5], 1.0),
], ids=["random_01-Y", "random_01-Y-divergence", "random_01-Y-backward",
        "sliding-1d", "rest-point", "short-interval", "inf-at-start",
        "inf-after-start"])
def test_initial_step_is_scipys_to_the_bit(rhs, y0, t_end, monkeypatch):
    # the first step from floats, with numpy's norms, and numpy's inf or
    # nan where the field divides by zero, is scipy's first step to the bit
    tols = Tolerances()
    rtol, atol = tols.root, tols.root / 100
    steps, args = [], []
    initial_step = flow._initial_step

    def recording(*a):
        steps.append(initial_step(*a))
        return steps[-1]

    def typed(t, *s):
        args.append(s)
        return rhs(t, *s)

    def fun(t, s):
        return np.asarray(rhs(t, *s), dtype=float)

    monkeypatch.setattr(flow, "_initial_step", recording)
    y, before = np.array(y0), dict(WORK)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _numpy_initial_step(fun, 0.0, y, t_end, fun(0.0, y),
                                   np.sign(t_end), rtol, atol)
        try:
            flow._integrate(typed, y0, t_end, tols)
        except StepFailure:
            pass
    assert len(steps) == 1
    assert float(steps[0]).hex() == float(want).hex()
    # every evaluation takes floats; where float arithmetic raises in f(t0)
    # or in the initial step's evaluation, that one is made again on numpy
    # scalars
    again = {_zero_division_at_start: [1], _zero_division_after_start: [2]}
    assert [k for k, s in enumerate(args)
            if any(type(v) is not float for v in s)] == again.get(rhs, [])
    # the library counts each evaluation made, and all 12 of a trial step
    # that raises part-way: inf-after-start's first trial step raises at
    # its first stage, so the count is 11 above the calls made
    counted = since(before)["rhs_evaluations"]
    assert counted == len(args) + (11 if rhs is _zero_division_after_start
                                   else 0)


def test_single_solver_call_site():
    # one solver loop, made in one place, and its events come from the
    # stepper's lines alone
    texts = [path.read_text() for path in Path(flow.__file__).parent.glob(
        "*.py")]
    assert sum(text.count("_dop853_kernel(")
               - text.count("def _dop853_kernel(") for text in texts) == 1
    assert inspect.getsource(flow._integrate).count("_dop853_kernel(") == 1
    for word in ("solve_ivp(", "events=", "t_events", "y_events"):
        assert not any(word in text for text in texts), word


def test_single_code_generator():
    # polys._generate compiles every generated evaluator of the package
    texts = [path.read_text() for path in Path(flow.__file__).parent.glob(
        "*.py")]
    assert sum(text.count("exec(") for text in texts) == 1


def test_float_dop853_line_ends_solve_at_crossing_step(monkeypatch):
    # the rotation from (1, 0) crosses y = 0 downwards at t = pi.  The
    # solve ends with the step that holds the crossing, with no warning,
    # and its trace ends at the crossing
    def rhs(t, x, y):
        return [-y, x]

    tols = Tolerances()
    searched, crossing = [], flow._crossing

    def record(*args):
        searched.append(args[4])  # the end of the step searched
        return crossing(*args)

    monkeypatch.setattr(flow, "_crossing", record)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts, ys, hit = flow._integrate(rhs, [1.0, 0.0], 10.0, tols,
                                      [(0.0, 1.0, 0.0, -1)])
    free, _, _ = flow._integrate(rhs, [1.0, 0.0], 10.0, tols)
    index, t_hit, state = hit
    assert index == 0 and abs(t_hit - math.pi) < 1e-8
    assert np.allclose(state, [-1.0, 0.0], atol=1e-8)
    assert ts[-1] == t_hit and np.array_equal(ys[-1], state)
    # the same steps as the solve without lines, up to the crossing's
    k = int(np.searchsorted(free, t_hit))
    assert np.array_equal(ts[:-1], free[:k]) and searched[-1] == free[k]


def test_screen_drops_only_lines_without_a_root(seeded_fields, monkeypatch):
    # steps of random fields, with lines at random distances from a point
    # inside a step: half of them along the flow there, which the orbit
    # grazes or crosses twice, half at a random angle.  For each line that
    # the screen drops from a step, g = a.y + b on the step's interpolant
    # has no root that the exact root count finds, in [0, 1] or within
    # tols.root of it
    rng = np.random.default_rng(7)
    tols = default_tols()
    steps = _record_steps(monkeypatch)
    dropped = by_chord = 0
    for rhs in [F.rhs() for Z in seeded_fields[:20] for F in (Z.X, Z.Y)]:
        p0 = rng.uniform(-1.0, 1.0, 2)
        steps.clear()
        try:
            flow._integrate(rhs, p0, 2.0, tols, [ALWAYS])
        except StepFailure:  # the orbit blows up
            continue
        inside = [flow._interpolate(F, y, rng.uniform(0.2, 0.8))
                  for _, _, y, _, F, _ in steps]
        lines = []
        for k in rng.integers(0, len(inside), 8):
            x, y = inside[k]
            vx, vy = rhs(0.0, x, y)
            angle = math.atan2(vx, -vy) if len(lines) % 2 else \
                rng.uniform(0, 2 * math.pi)
            ax, ay = math.cos(angle), math.sin(angle)
            dist = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-10, -1)
            lines.append((ax, ay, dist - ax * x - ay * y, 0))
        # the same steps, each with the lines that the screen keeps
        steps.clear()
        flow._integrate(rhs, p0, 2.0, tols, [*lines, ALWAYS])
        for _, _, y0, _, F, kept in steps:
            F = np.array(F).T  # the kernel's rows, as (7, 2)
            for i, (ax, ay, b, _) in enumerate(lines):
                if i in kept:
                    continue
                g0 = ax * y0[0] + ay * y0[1] + b
                gF = F @ (ax, ay)
                c = [g0] + [0.0] * 7
                for j, p, bp in flow._dense_basis(7):
                    c[p] += gF[j] * bp
                assert univariate_roots(c, (0.0, 1.0), tols) == []
                dropped += 1
                by_chord += abs(g0) <= np.sum(np.abs(F) @ (abs(ax), abs(ay)))
    assert dropped > 4000 and by_chord > 800  # 4538 and 925


def test_crossing_state_is_the_interpolants_to_the_bit(monkeypatch):
    # _crossing takes the state at a crossing from the rows in float code;
    # it is the step's interpolant, scipy's dense output on those rows, at
    # that time, float for float
    tols = Tolerances()
    rng = np.random.default_rng(9)
    steps = _record_steps(monkeypatch)
    flow._integrate(RANDOM_01_Y.rhs(divergence=True),
                    [-9.40084, -4.04373, 0.0], 2.0, tols, [ALWAYS])
    assert steps
    for st in _interpolants(steps):
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


def test_dense_basis_matches_the_numpy_products():
    # the list products of x and 1 - x give numpy's polymul table to the bit
    for k in range(1, 8):
        terms, p = [], np.array([1.0])
        for j in range(k):
            p = npoly.polymul(p, (0.0, 1.0) if j % 2 == 0 else (1.0, -1.0))
            terms += [(j, i, float(v).hex()) for i, v in enumerate(p) if v]
        assert [(j, i, v.hex()) for j, i, v in flow._dense_basis(k)] == terms


def test_return_map_hands_few_steps_to_the_crossing_search(monkeypatch):
    # one return around the unit cycle takes 52 steps, each watching y = 0,
    # the window's sides and the section; only the steps near one of these
    # lines go to the crossing search in Python
    steps, before = [], dict(WORK)
    integrate = flow._integrate

    def recording(*args, **kwargs):
        ts, ys, hit = integrate(*args, **kwargs)
        steps.append(len(ts) - 1)
        return ts, ys, hit

    monkeypatch.setattr(flow, "_integrate", recording)
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    sec = Section((0.0, 0.0), (0.0, 1.0), (0.1, 2.0))
    s_fix, _ = return_map(Z, sec, 1.0, 100.0, WIN)
    assert abs(s_fix - 1.0) < 1e-8
    assert sum(steps) >= 40 and since(before)["crossing_searches"] <= 10


def test_run_that_needs_more_arcs_than_the_cap_ends_with_time_budget():
    # X = Y = (-y - 0.01x, x - 0.01y) spirals slowly into the origin and
    # crosses D every half turn: the run from (1, 0.5) stops after
    # _MAX_ARCS arcs, near t = 200.6, where it would go on to its horizon
    X = vf({(0, 1): -1.0, (1, 0): -0.01}, {(1, 0): 1.0, (0, 1): -0.01})
    traj = advance_hybrid(piecewise(X, X), (1.0, 0.5), "N", 1000.0,
                          (-3.0, 3.0, -3.0, 3.0))
    assert len(traj.arcs) == flow._MAX_ARCS == 64
    assert traj.events[-1].kind is EventKind.TIME_BUDGET
    assert traj.events[-1].time == pytest.approx(200.598, abs=1e-3)
    assert traj.closed is Closure.NO


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
    pts, fate, crossings = flow._trace_d_branch(Z, -3.0, 1.0, 20.0, WIN,
                                                default_tols())
    assert fate == "q1_root" and abs(pts[-1, 0] + delta) < 1e-12
    assert crossings == {"D": [pts[-1, 0]]}


def test_second_motion_along_d_isolates_no_roots():
    # X = (1, x - 1) over Y = (1, 1): D slides for x < 1 to the fold x = 1.
    # The first slide isolates the roots of Q_X(x, 0), Q_Y(x, 0) and det on
    # the window; a second slide and an FZ branch on the same field and
    # window take them from the cache on each polynomial
    before = dict(WORK)
    Z = piecewise(vf(ONE, {(1, 0): 1.0, (0, 0): -1.0}), vf(ONE, ONE))
    tols = default_tols()
    for x0 in (-3.0, 0.5):
        _, _, outcome, x_end = flow._slide(Z, x0, 20.0, WIN, tols)
        assert outcome == "q1_root" and abs(x_end - 1.0) < 1e-12
        assert since(before)["root_isolations"] == 3
    _, fate, _ = flow._trace_d_branch(Z, -2.0, 1.0, 20.0, WIN, tols)
    assert fate == "q1_root" and since(before)["root_isolations"] == 3


def test_tolerance_scale_reaches_solvers(monkeypatch):
    monkeypatch.setenv("FILIPPOV_TOLERANCE_SCALE", "10")
    # the rtol and atol that reach the generated loop of each solve
    seen = []
    kernel = flow._dop853_kernel

    def recording(n):
        run = kernel(n)

        def recorded(*args):
            seen[-1].append(args[7:9])
            return run(*args)
        return recorded

    monkeypatch.setattr(flow, "_dop853_kernel", recording)
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
    # each seed x > 0 lies on the orbit of the seed -x found before it, so
    # it makes no return map (8 when every seed's secant ran)
    before = dict(WORK)
    found = find_closed_polytrajectories(piecewise(ROT, ROT), WIN)
    assert since(before)["return_maps"] <= 4
    assert [o.certificate["x"] for o in found] == [-2.0, -1.5, -1.0, -0.5]
    for orb in found:
        assert orb.closure is Closure.TYPE1
        assert orb.elementary == "no"
        assert abs(orb.certificate["eta_prime"] - 1.0) < 1e-6


def test_census_finds_unit_limit_cycle_once():
    # the first seed's secant finds the cycle; every later seed lies on it
    # or returns onto it and stops there (26 return maps when each seed's
    # secant ran to convergence)
    before = dict(WORK)
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    found = find_closed_polytrajectories(Z, WIN)
    assert since(before)["return_maps"] <= 9
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


def test_census_finds_a_type3_cycle_from_a_fold():
    # generator seed 9, random_00: the orbit leaving X's fold slides along
    # D back to it, so the census's fold run closes as type 3
    X = vf({(0, 0): -0.50675227441983184, (0, 1): 1.4662473999453653,
            (1, 0): 0.011128320208833475},
           {(0, 0): -0.46534062058940728, (0, 1): 0.21708187271314427,
            (1, 0): -1.8364169380607538})
    Y = vf({(0, 0): 0.81392156917498815, (0, 1): 0.90026147432883619,
            (1, 0): -1.0479511901338689},
           {(0, 0): 1.0094570743736435, (1, 0): 1.0968378689420444})
    Z = piecewise(X, Y)
    found = find_closed_polytrajectories(Z, default_window(Z))
    assert len(found) == 1
    orb = found[0]
    assert orb.closure is Closure.TYPE3 and orb.elementary == "yes"
    assert orb.certificate["fold_x"] == pytest.approx(-0.2533959532527534,
                                                      abs=1e-12)
    assert [a.tag for a in orb.trajectory.arcs] == ["X", "FZ"]
    assert [e.kind for e in orb.trajectory.events] == [
        EventKind.ENTER_SLIDING, EventKind.EXIT_AT_FOLD, EventKind.CLOSED]


def test_census_keeps_nested_cycles_through_the_early_stop():
    # X = (-y + x h, x + y h), h = -(r^2 - 1)(r^2 - 3.0625) / 2, and Y = 2X:
    # an unstable cycle r = 1 inside a stable one r = 1.75.  Seed -1.5
    # lies between the two; its returns must not be taken for either
    x, y = poly(X_MONO), poly(Y_MONO)
    r2 = x * x + y * y
    h = ((r2 - constant(1.0)) * (r2 - constant(3.0625))).scale(-0.5)
    X = PolyVectorField(x * h - y, x + y * h, 5)
    Y = PolyVectorField(X.P.scale(2.0), X.Q.scale(2.0), 5)
    before = dict(WORK)
    found = find_closed_polytrajectories(piecewise(X, Y),
                                         (-3.0, 3.0, -3.0, 3.0))
    # 22 when each seed's secant converged
    assert since(before)["return_maps"] <= 15
    assert [o.certificate["x"] for o in found] == [
        pytest.approx(-1.75, abs=1e-9), pytest.approx(-1.0, abs=1e-9)]
    assert all(o.closure is Closure.TYPE1 and o.elementary == "yes"
               for o in found)


@pytest.mark.parametrize("X, Y, x, eta_prime", [
    # generator seed 3, random_12
    (vf({(0, 0): 1.2267212332809874},
        {(0, 0): 2.6250428336301308, (0, 1): -1.563511437568426,
         (1, 0): -1.6882307575567617}),
     vf({(0, 0): -1.3567109587343285, (0, 1): 0.79711190068676485,
         (1, 0): -0.31155531977448625},
        {(0, 0): 0.097367712259217143, (0, 1): 1.0283950177218899,
         (1, 0): -1.2776437564082155}),
     float.fromhex("-0x1.3af086abf22aap+2"), 0.0026864),
    # generator seed 8, random_05
    (vf({(0, 1): 1.2530922535339073, (0, 2): 1.3188994585091831,
         (0, 3): 1.1230652363821156, (1, 1): 0.61876646192990847},
        {(0, 0): 0.35670209831597832, (0, 1): -1.651820716397888,
         (0, 2): 1.4748480221395455, (1, 1): 0.42834598891647735,
         (2, 0): -0.72032201914164951, (2, 1): 1.6791702831970063}),
     vf({(0, 0): -0.53500115886501298, (1, 0): -0.72282227211208383,
         (1, 1): -0.5700343857046315, (1, 2): 0.080216255787582291,
         (2, 0): 0.88553382782732282, (2, 1): -1.3610487533484639,
         (3, 0): -0.44283055815811956},
        {(0, 0): 1.3801698918162182, (0, 1): -1.1095864748315494,
         (0, 2): -1.2932642299843176, (1, 0): -1.7964905185348594,
         (1, 1): 0.94468388490928179, (2, 0): -0.69295277311196335}),
     float.fromhex("0x1.7c3795aa7642ep-2"), 0.52981),
], ids=["seed3-random_12", "seed8-random_05"])
def test_census_pins_the_generator_cycles_of_its_secant(X, Y, x, eta_prime):
    # the two baseline cycles that the secant finds, to the bit
    Z = piecewise(X, Y)
    (orb,) = find_closed_polytrajectories(Z, default_window(Z))
    assert orb.closure is Closure.TYPE1 and orb.elementary == "yes"
    assert orb.certificate["x"] == x
    assert orb.certificate["eta_prime"] == pytest.approx(eta_prime,
                                                         rel=1e-4)


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


@pytest.mark.parametrize("shift", [0.0, 0.01])
def test_probe_flags_a_connection_through_a_sewing_point(shift):
    # X = (-x, y - 1) and Y = (x - shift, -1 - y) sew downward along D:
    # the unstable branch of X's saddle (0, 1) runs down x = 0 to D, and
    # the stable branch of Y's saddle (shift, -1) comes up x = shift from
    # it, so they meet on D only when shift = 0
    Z = piecewise(vf({(1, 0): -1.0}, {(0, 1): 1.0, (0, 0): -1.0}),
                  vf({(1, 0): 1.0, (0, 0): -shift}, {(0, 1): -1.0, **M_ONE}))
    rep = probe_saddle_connections(
        Z, [SaddleSpec("X", (0.0, 1.0)), SaddleSpec("Y", (shift, -1.0))],
        window=(-3, 3, -3, 3))
    ends = {b.label: b.crossings["D"] for b in rep.branches
            if b.fate == "d_hit"}
    assert ends.keys() == {"X0:unstable:-1", "Y1:stable:+1"}
    assert abs(ends["X0:unstable:-1"][0]) < 1e-9
    assert abs(ends["Y1:stable:+1"][0] - shift) < 1e-9
    assert [(rep.branches[i].label, rep.branches[j].label)
            for i, j in rep.flagged] == (
        [("X0:unstable:-1", "Y1:stable:+1")] if shift == 0.0 else [])


def _branch(saddle_index, stability, *points, crossings=None):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return flow.SeparatrixBranch(saddle_index, stability,
                                 f"{saddle_index}:{stability}", pts,
                                 "horizon", crossings or {})


def test_pairs_of_one_stability_are_never_searched():
    # four branches with one crossing of one section, over one point:
    # only the stable-unstable pairs are flagged
    stabs = ("stable", "unstable", "stable", "unstable")
    branches = [_branch(k % 2, s, (0.0, 0.0), (1.0, 1.0),
                        crossings={"D": [0.5]})
                for k, s in enumerate(stabs)]
    assert flow._connections(branches, default_tols().connect) == [
        (0, 1), (0, 3), (1, 2), (2, 3)]


def test_crossings_flag_only_on_a_shared_section():
    # crossings less than tols.connect apart flag a pair only under one
    # key: one ray in one direction of forward time, or D
    c = default_tols().connect
    ray = (0.0, 0.0)
    for cross, want in (({(ray, 1): [c / 2]}, [(0, 1)]),
                        ({(ray, 1): [np.nextafter(c, 0.0)]}, [(0, 1)]),
                        ({(ray, 1): [c]}, []),
                        ({(ray, -1): [0.0]}, []),
                        ({((1.0, 0.0), 1): [0.0]}, []),
                        ({"D": [0.0]}, [])):
        branches = [_branch(0, "stable", (0.0, 1.0), (0.0, 2.0),
                            crossings={(ray, 1): [3.0, 0.0]}),
                    _branch(0, "unstable", (0.0, 1.1), (5.0, 5.0),
                            crossings=cross)]
        assert flow._connections(branches, c) == want, cross


def test_a_branch_reaching_another_saddles_seed_is_flagged():
    # the unstable branch of saddle 1 passes within tols.connect of the
    # stable branch's seed (its first point); a branch of the same saddle
    # does not count, as its seed lies next to the other's
    c = default_tols().connect
    stable = _branch(0, "stable", (0.0, 0.0), (2.0, 2.0))
    for saddle, gap, want in ((1, c / 2, [(0, 1)]), (1, c, []),
                              (0, c / 2, [])):
        unstable = _branch(saddle, "unstable", (5.0, 5.0), (gap, 0.0),
                           (0.0, 5.0))
        assert flow._connections([stable, unstable], c) == want
        assert flow._connections([unstable, stable], c) == want


def test_skipped_branches_pair_with_nothing(monkeypatch):
    # the FZ saddle's branches flag the heteroclinic field; when their
    # traces fail, they keep no points and no crossings, and pair with
    # nothing
    def failing(*args):
        raise StepFailure("stub")

    monkeypatch.setattr(flow, "_trace_d_branch", failing)
    X = vf({(1, 0): 2.0, (1, 1): -1.0},
           {(0, 0): 1.0, (0, 1): -1.0, (2, 0): -1.0})
    saddles = [SaddleSpec("X", (0.0, 1.0)), SaddleSpec("FZ", (0.0, 0.0))]
    rep = probe_saddle_connections(piecewise(X, vf({}, M_ONE)), saddles,
                                   window=(-3, 3, -3, 3))
    assert rep.skipped == [(b.label, "StepFailure")
                           for b in rep.branches[4:]]
    assert [b.saddle_index for b in rep.branches[4:]] == [1] * 4
    assert all(len(b.points) == 0 and b.crossings == {}
               for b in rep.branches[4:])
    assert rep.flagged == []


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

    *_, hit = flow._integrate(ROT.rhs(), [1.0, 0.0], 2 * math.pi,
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
    # with its exact Jacobian; also for a numpy state's components, as the
    # first evaluations of a solve pass them
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
                    assert _bits(F.rhs()(0.0, *state)) == _bits(want)
                    assert _bits(F.rhs(divergence=True)(0.0, *state, 0.0)) \
                        == _bits(want + (F.divergence()(x, y),))
                    assert _bits(F.rhs(reverse=True)(0.0, *state)) == \
                        _bits(back(x, y))
                for sign in (1.0, -1.0):
                    assert _bits(Z.slide_rhs(sign)(0.0, state[0])) == \
                        _bits([sign * _slide_reference(Z, x)])
                assert _bits(R.rhs()(0.0, *state)) == _bits(R(x, y))
                assert _bits(R_div.rhs(divergence=True)(0.0, *state, 0.0)) \
                    == _bits(R_div(x, y) + (np.trace(R_div.jacobian(x, y)),))


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


def test_second_solve_on_a_field_compiles_nothing():
    before = dict(WORK)
    X = vf({(0, 1): -1.0, (2, 0): 0.1}, X_MONO)
    Z = piecewise(vf(X_MONO, M_ONE), vf({(0, 0): 1.0, (2, 0): 0.5},
                                        {(0, 0): 1.0, (1, 0): 0.2}))
    horners = []
    for _ in range(2):
        integrate_smooth(X, (1.0, 0.5), 10.0, WIN, -1, with_divergence=True)
        traj = advance_hybrid(Z, (0.3, 0.0), "D", 10.0, WIN)
        fold_points(Z, (-3.0, 3.0))
        horners.append(since(before)["horner"])
    assert since(before)["rhs"] == 2  # X with divergence; Z's slide
    # the run slides, and det and the second Lie derivatives of the folds
    # are built once per field, so the second round compiles no horner
    assert "FZ" in [arc.tag for arc in traj.arcs]
    assert horners[0] > 0 and horners[1] == horners[0]
    # the solves of one regularized search share its two kernels, which
    # are cached on the piecewise field for phi and epsilon: a second search
    # generates none, and another epsilon two more
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    phi = make_transition("smoothstep", 1)
    for eps, want in ((0.05, 2), (0.05, 0), (0.04, 2)):
        before = dict(WORK)
        regularized_cycle_search(Z, phi, eps, 0.0, (0.4, 1.6))
        assert since(before)["rhs"] == want
    assert RegularizedField(Z, make_transition("smoothstep", 1), 0.05).rhs() \
        is RegularizedField(Z, phi, 0.05).rhs()
    assert RegularizedField(Z, make_transition("bump"), 0.05).rhs() \
        is not RegularizedField(Z, phi, 0.05).rhs()


def test_rhs_builds_the_divergence_only_when_asked():
    X = vf({(2, 1): 1.5, (0, 1): -1.0}, X_MONO)
    Y = vf(ONE, X_MONO)
    X.rhs(), X.rhs(reverse=True)
    RegularizedField(piecewise(X, Y), make_transition("bump"), 0.1).rhs()
    assert not {"_divergence", "_jacobian"} & (vars(X).keys() | vars(Y).keys())
    assert X.rhs(divergence=True)(0.0, 2.0, 3.0, 0.0)[2] == \
        X.divergence()(2.0, 3.0) == 18.0


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


def test_reversed_branches_share_one_kernel():
    before = dict(WORK)
    X = vf({(1, 0): 1.0, (0, 0): -0.2}, {(0, 0): 1.0, (0, 1): -1.0})
    rep = probe_saddle_connections(piecewise(X, vf(ONE, ONE)),
                                   [SaddleSpec("X", (0.2, 1.0))])
    assert [b.stability for b in rep.branches].count("stable") == 2
    assert since(before)["rhs"] == 2
    assert set(X._kernels) == {(False, False), (True, False)}


def test_pickled_fields_drop_their_kernels():
    Z = piecewise(UNIT_CYCLE, vf(ONE, ONE))
    R = RegularizedField(Z, make_transition("smoothstep", 2), 0.1)
    for obj, make, state in (
            (Z.X, lambda F: F.rhs(True, True), (0.25, 0.05, 0.0)),
            (Z, lambda F: F.slide_rhs(-1.0), (0.25,)),
            (R, lambda F: F.rhs(True), (0.25, 0.05, 0.0))):
        rhs = make(obj)
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj and "_kernels" not in vars(clone)
        assert make(clone)(0.0, *state) == rhs(0.0, *state)
    # a regularized field's kernels sit on its piecewise field
    assert "_kernels" not in vars(pickle.loads(pickle.dumps(R)).Z)


def test_slide_ending_at_zero_of_sliding_field_is_fz_singularity():
    # Q_Y(x, 0) = x and det(x, 0) = x (x^2 - 1) share the root x = 0, where
    # the slide from x = 0.2 stops: a zero of the sliding field, not a fold
    X = vf({(2, 0): 1.0, (0, 0): -1.0},
           {(1, 1): -1.0, (1, 0): 1.0, (2, 0): 0.3, (0, 0): -0.3})
    Z = piecewise(X, vf({(0, 1): -1.0}, X_MONO))
    traj = advance_hybrid(Z, (0.2, 0.0), "D", 50.0, WIN)
    assert [e.kind for e in traj.events] == [EventKind.REACH_FZ_SINGULARITY]
    assert abs(traj.end_state()[0]) < 1e-12
