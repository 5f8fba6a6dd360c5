import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from filippov import cli
from filippov.errors import NoReturn
from filippov.flow import (
    EventKind,
    Section,
    advance_hybrid,
    find_closed_polytrajectories,
    integrate_smooth,
    return_map,
    sink_trap,
)
from filippov.polys import PolyVectorField, newton_zero, piecewise, poly, vf
from filippov.tolerances import default_tols
from filippov.work import WORK, since

WIN = (-5.0, 5.0, -5.0, 5.0)
TOLS = default_tols()


def _around(p, A, terms) -> PolyVectorField:
    """A (z - p) plus sum c_ij (z - p)^(i, j) for (i, j): (cP, cQ) in terms,
    expanded into monomials of z."""
    u = poly({(1, 0): 1.0, (0, 0): -p[0]})
    v = poly({(0, 1): 1.0, (0, 0): -p[1]})
    P = u.scale(A[0][0]) + v.scale(A[0][1])
    Q = u.scale(A[1][0]) + v.scale(A[1][1])
    for (i, j), (cp, cq) in terms.items():
        mono = poly({(0, 0): 1.0})
        for _ in range(i):
            mono = mono * u
        for _ in range(j):
            mono = mono * v
        P, Q = P + mono.scale(cp), Q + mono.scale(cq)
    return PolyVectorField(P, Q, max(P.degree, Q.degree))


def _sinks():
    """Seeded stable nodes and foci with quadratic and cubic terms, one
    focus with real part -1e-3, as (field, zero)."""
    rng = np.random.default_rng(2012)
    out = []
    for k in range(9):
        S = rng.uniform(-1.0, 1.0, (2, 2)) + 2.0 * np.eye(2)
        if k % 3 == 0:    # node
            J = np.diag(-rng.uniform(0.2, 3.0, 2))
        else:             # focus, the last one weak
            alpha = 1e-3 if k == 8 else rng.uniform(0.1, 2.0)
            beta = rng.uniform(0.5, 3.0)
            J = np.array([[-alpha, -beta], [beta, -alpha]])
        A = S @ J @ np.linalg.inv(S)
        terms = {(i, j): tuple(rng.uniform(-0.5, 0.5, 2))
                 for i in range(4) for j in range(4 - i) if 2 <= i + j}
        p = (rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0))
        X = _around(p, A, terms)
        zero = newton_zero(X, X.jacobian_at, *p, TOLS)
        assert zero is not None
        out.append((X, zero))
    return out


def _exact(p, x, y):
    return sum(Fraction(v) * x ** i * y ** j for (i, j), v in p.coeffs.items())


def _lyapunov_matrix(trap) -> np.ndarray:
    m11, m12, m22 = trap.lyapunov
    return np.array([[float(m11), float(m12)], [float(m12), float(m22)]])


def _vdot_on_level_set(X, p, trap, n=200):
    """(theta, V') at n points of {V = level}, V' = 2 u^T M X(p + u) in
    exact arithmetic."""
    m11, m12, m22 = trap.lyapunov
    M, c = _lyapunov_matrix(trap), float(trap.level)
    px, py = Fraction(p[0]), Fraction(p[1])
    for k in range(n):
        theta = 2 * math.pi * k / n
        d = np.array([math.cos(theta), math.sin(theta)])
        s = math.sqrt(c / float(d @ M @ d))
        x, y = Fraction(p[0] + s * d[0]), Fraction(p[1] + s * d[1])
        ux, uy = x - px, y - py
        yield theta, 2 * ((m11 * ux + m12 * uy) * _exact(X.P, x, y)
                          + (m12 * ux + m22 * uy) * _exact(X.Q, x, y))


def test_sink_trap_decreases_on_its_level_set_and_traps():
    for X, p in _sinks():
        trap = sink_trap(X, p, WIN, TOLS)
        assert trap is not None
        lam_min = float(np.linalg.eigvalsh(_lyapunov_matrix(trap))[0])
        outer = math.sqrt(float(trap.level) / lam_min)
        assert outer <= trap.radius * (1 + 1e-12)
        x0, x1, y0, y1 = trap.box
        assert x0 < p[0] < x1 and y0 < p[1] < y1
        for theta, vdot in _vdot_on_level_set(X, p, trap):
            assert vdot < 0, (p, theta)
        # every corner of the box stays in the disc {|u| <= sqrt(c/mu)}
        for corner in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
            tr = integrate_smooth(X, corner, 100.0, WIN)
            assert tr.status == "horizon"
            dist = np.hypot(tr.states[:, 0] - p[0], tr.states[:, 1] - p[1])
            assert dist.max() <= outer


def test_weak_focus_gets_a_small_trap():
    X, p = _sinks()[-1]
    eig = np.linalg.eigvals(X.jacobian_at(*p))
    assert abs(abs(eig[0].real) - 1e-3) < 1e-9
    trap = sink_trap(X, p, WIN, TOLS)
    assert 0.0 < trap.radius < 0.1


def test_no_trap_where_the_residual_breaks_the_bound_at_the_inner_radius():
    # a focus with M = diag(1/2, 2), so {V = c} spans r from rho / 2 to
    # rho, at a point where X is (0, 3/8), off its zero: with rho = 2, the
    # room off D, g(r) = 4 C_0 / r is 3/4 at rho but 3/2 at rho / 2, and
    # V' = 2 u^T M X(p + u) is 1/2 > 0 at u = (0, rho / 2)
    p = (0.0, 2.0)
    X = _around(p, [[-1.0, -4.0], [1.0, -0.25]], {(0, 0): (0.0, 0.375)})
    trap = sink_trap(X, p, WIN, TOLS)
    if trap is not None:
        for theta, vdot in _vdot_on_level_set(X, p, trap):
            assert vdot < 0, theta


def test_trap_radius_stays_below_where_g_reaches_one():
    # M = I / 2 and X(p + u) = (3/16 - u_x + u_x^2, -u_y): g(r) = 3 / (16 r)
    # + r is exactly 1 at r = 3/4, the first radius that the window leaves
    # (its side x0 sits 3/4 off p, plus 4 ulps of 3 + tols.event and one
    # of 3/4), so the search ends just below 3/4, not at it
    p = (0.0, 1.0)
    x0 = -(math.nextafter(0.75, 1.0) + 4 * math.ulp(3.0 + TOLS.event))
    X = _around(p, [[-1.0, 0.0], [0.0, -1.0]],
                {(0, 0): (0.1875, 0.0), (2, 0): (1.0, 0.0)})
    trap = sink_trap(X, p, (x0, 2.0, -1.0, 3.0), TOLS)
    assert 0.75 - 1e-6 < trap.radius < 0.75


def test_no_trap_where_the_ratio_or_the_room_would_round_up():
    # A = diag(-49, -625): M = diag(1/98, 1/1250), 2 |M| = 1/49, and the
    # level set of outer radius r has inner radius 7 r / 25 on the x-axis,
    # 7/25 being a float that rounds up.  X(p) = (c0, 0), c0 the double at
    # or just above 49 * 0.993125, so V' = u_x (c0 - 49 u_x) / 49 - u_y^2
    # is >= 0 at u = (7 r / 25, 0) for every r <= 3.546875 = 0.993125 *
    # 25 / 7, the largest radius that the window leaves with its 4-ulp
    # margin: no such disc is a trap.  A ratio rounded up proves one at
    # r = 3.546875; the room without its margin proves a trap a few ulps
    # wider than the window leaves
    c0, p = 48.663125, (0.0, 5.0)
    assert Fraction(c0) >= 49 * Fraction(3.546875) * Fraction(7, 25)
    X = vf({(1, 0): -49.0, (0, 0): c0}, {(0, 1): -625.0, (0, 0): 3125.0})
    window = (-3.5468750000000075, 10.0, -10.0, 10.0)
    assert sink_trap(X, p, window, TOLS) is None


def test_a_cut_to_the_whole_radius_is_refused():
    # the stable node (0, 2) of X = (0.1 x^2 - x, 2 - y): a cut as deep as
    # the trap's radius leaves no level set, and half of it leaves a box
    # inside the uncut one
    X = vf({(2, 0): 0.1, (1, 0): -1.0}, {(0, 0): 2.0, (0, 1): -1.0})
    trap = sink_trap(X, (0.0, 2.0), WIN, TOLS)
    assert trap is not None
    assert sink_trap(X, (0.0, 2.0), WIN, TOLS, margin=trap.radius) is None
    half = sink_trap(X, (0.0, 2.0), WIN, TOLS, margin=trap.radius / 2)
    assert half is not None and half.radius == trap.radius
    (a0, a1, b0, b1), (c0, c1, d0, d1) = half.box, trap.box
    assert c0 < a0 < a1 < c1 and d0 < b0 < b1 < d1


LINEAR = {"saddle": [[1.0, 0.0], [0.0, -1.0]],
          "center": [[0.0, -1.0], [1.0, 0.0]]}
TERMS = {(2, 0): (0.3, -0.2), (1, 1): (0.1, 0.4)}


@pytest.mark.parametrize("kind", sorted(LINEAR))
def test_no_trap_unless_a_stable_node_or_focus(kind):
    X = _around((0.5, 1.0), LINEAR[kind], TERMS)
    assert sink_trap(X, (0.5, 1.0), WIN, TOLS) is None


def test_a_source_is_trapped_backward_in_time():
    # an unstable focus attracts backward in time: its trap is that of
    # the stable focus -X, proved from the negated Taylor integers, with
    # and without a cut
    X = _around((0.5, 1.0), [[1.0, -2.0], [2.0, 1.0]], TERMS)
    back = PolyVectorField(X.P.scale(-1.0), X.Q.scale(-1.0), X.m)
    for margin in (0.0, TOLS.connect):
        trap = sink_trap(X, (0.5, 1.0), WIN, TOLS, margin)
        want = sink_trap(back, (0.5, 1.0), WIN, TOLS, margin)
        assert (trap.direction, want.direction) == (-1, 1)
        assert trap == replace(want, direction=-1)


@pytest.mark.parametrize("p", [(0.5, 0.5 * TOLS.event), (0.5, -1e-12),
                               (WIN[1], 1.0), (0.5, WIN[2]),
                               (WIN[0] - 1e-9, 1.0)])
def test_no_trap_when_no_disc_fits_off_d_and_inside_the_window(p):
    sink = [[-1.0, -1.0], [1.0, -1.0]]
    X = _around(p, sink, {(2, 0): (0.3, -0.2)})
    assert sink_trap(X, p, WIN, TOLS) is None


def test_trap_disc_shrinks_to_fit_off_d_and_inside_the_window():
    sink = [[-1.0, -1.0], [1.0, -1.0]]
    for p, room in (((0.5, 1e-3), 1e-3 - TOLS.event), ((4.99, 1.0), 0.01),
                    ((-0.5, -2e-4), 2e-4 - TOLS.event)):
        X = _around(p, sink, {})
        trap = sink_trap(X, p, WIN, TOLS)
        assert trap is not None and trap.radius < room
        assert trap.radius > 0.5 * room


# X pulls N into the node (0, 1); Y = (1, 1), so all of D is sewing upward
BASIN = piecewise(vf({(1, 0): -1.0, (0, 2): 0.3, (0, 1): -0.6,
                      (0, 0): 0.3},
                     {(0, 0): 1.0, (0, 1): -1.0}),
                  vf({(0, 0): 1.0}, {(0, 0): 1.0}))
BASIN_TEXT = """\
# X pulls N into the node (0, 1); Y = (1, 1)
degree 2
P1:
1 0 -1
0 2 0.3
0 1 -0.6
0 0 0.3
Q1:
0 0 1
0 1 -1
P2:
0 0 1
Q2:
0 0 1
"""


def test_census_run_into_a_basin_ends_in_its_trap():
    trap = sink_trap(BASIN.X, (0.0, 1.0), WIN, TOLS)
    assert trap is not None
    free = advance_hybrid(BASIN, (0.5, 0.0), "D", 100.0, WIN, TOLS)
    traj = advance_hybrid(BASIN, (0.5, 0.0), "D", 100.0, WIN, TOLS,
                          sinks=[trap.box])
    assert free.events[-1].kind is EventKind.TIME_BUDGET
    end = traj.events[-1]
    assert end.kind is EventKind.ENTER_SINK and end.time < 20.0
    x0, x1, y0, y1 = trap.box
    assert x0 <= end.state[0] <= x1 and y0 <= end.state[1] <= y1
    # the same steps up to the trap
    n = len(traj.arcs[-1].ts)
    assert np.array_equal(traj.arcs[-1].states[:n - 1],
                          free.arcs[-1].states[:n - 1])
    section = Section((0.0, 0.0), (1.0, 0.0), (WIN[0], WIN[1]))
    for sinks in ((), [trap.box]):
        with pytest.raises(NoReturn):
            return_map(BASIN, section, 0.5, 100.0, WIN, TOLS, sinks=sinks)
    before = dict(WORK)
    assert find_closed_polytrajectories(
        BASIN, WIN, rays={"X": [(0.0, 1.0)], "Y": []}) == []
    assert since(before)["trap_exits"]


def test_flow_cli_into_a_sink_runs_to_its_horizon(tmp_path):
    spec = tmp_path / "basin.txt"
    spec.write_text(BASIN_TEXT)
    out = tmp_path / "flow.csv"
    assert cli.main(["flow", str(spec), "--window=-5,5,-5,5",
                     "--seed=0.5,0.5", "--out", str(out)]) == 0
    events = json.loads((tmp_path / "flow.csv.events.json").read_text())
    assert events["events"][-1]["kind"] == "TimeBudget"
    assert events["events"][-1]["time"] == 100.0


def test_a_step_that_keeps_a_line_goes_to_the_crossing_search_first():
    # the drop x' = 0, y' = -1 from (0, 1) crosses D at t = 1: the step
    # that ends in the box below D keeps the line y = 0, so its crossing
    # ends the solve
    X = vf({}, {(0, 0): -1.0})
    tr = integrate_smooth(X, (0.0, 1.0), 10.0, WIN, -1,
                          sinks=[(-0.5, 0.5, -9.0, -1e-3)])
    assert tr.status == "d_hit" and abs(tr.ts[-1] - 1.0) < 1e-9
    # y' = -y from (0, 1) nears D for ever and keeps no line: the first
    # step that ends in the box ends the solve
    X = vf({}, {(0, 1): -1.0})
    box = (-0.5, 0.5, 1e-3, 0.5)
    tr = integrate_smooth(X, (0.0, 1.0), 100.0, WIN, -1, sinks=[box])
    assert tr.status == "sink" and math.log(2.0) <= tr.ts[-1] < 10.0
    assert 1e-3 <= tr.states[-1, 1] <= 0.5
    assert tr.states[-2, 1] > 0.5
