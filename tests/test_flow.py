import inspect
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from filippov import flow
from filippov.errors import NotTransversal, StepFailure
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
from filippov.polys import piecewise, vf
from filippov.regularize import make_transition, regularized_cycle_search
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
                          section=sec, extra_quadrature=X.divergence())
    assert tr.status == "horizon"
    assert abs(tr.states[-1, 1] - math.e) < 1e-8
    assert abs(tr.states[-1, 2] - 1.0) < 1e-9


def test_trajectory_along_section_line_not_transversal():
    # the radial field moves (0, 1) along the line x = 0 of the section
    X = vf(X_MONO, Y_MONO)
    sec = Section((0.0, 0.0), (0.0, 1.0), (5.0, 6.0))
    with pytest.raises(NotTransversal):
        integrate_smooth(X, (0.0, 1.0), 1.0, WIN, section=sec)


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
                              section=sec1, section_direction=0)
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


def test_census_work_counter(monkeypatch):
    # deterministic work gate: every return map stops at its first return
    # and eta' needs no finite-difference runs
    nfev = [0]
    original = flow.solve_ivp

    def counting(*args, **kwargs):
        sol = original(*args, **kwargs)
        nfev[0] += sol.nfev
        return sol

    monkeypatch.setattr(flow, "solve_ivp", counting)
    found = find_closed_polytrajectories(piecewise(UNIT_CYCLE, UNIT_CYCLE),
                                         (-5.0, 5.0, -5.0, 5.0))
    assert len(found) == 1
    assert nfev[0] <= 40_000


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


def test_single_solver_call_site():
    src = Path(flow.__file__).parent
    calls = sum(path.read_text().count("solve_ivp(")
                for path in src.glob("*.py"))
    assert calls == 1


def test_tolerance_scale_reaches_solvers(monkeypatch):
    monkeypatch.setenv("FILIPPOV_TOLERANCE_SCALE", "10")
    seen = []
    original = flow.solve_ivp

    def recording(*args, **kwargs):
        seen[-1].append((kwargs["rtol"], kwargs["atol"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "solve_ivp", recording)
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
