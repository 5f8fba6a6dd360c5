import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from filippov import fieldspec, flow, stability
from filippov.cli import dumps_report
from filippov.compactify import S1Status, eq4_value, s1_elementarity
from filippov.errors import (
    CommonFactor,
    DegreeMismatch,
    NoReturn,
    NotRepairable,
    NotTransversal,
    StepFailure,
)
from filippov.flow import find_closed_polytrajectories
from filippov.polys import PolyVectorField, newton_zero, piecewise, poly, vf
from filippov.stability import (
    SATISFIED,
    UNDETERMINED,
    VIOLATED,
    AxisPowerX,
    GmOptions,
    RadialOdd,
    RotateTranslate,
    apply_perturbation,
    check_gm,
    default_window,
    genericity_repair,
    interior_singularities,
)
from filippov.tolerances import default_tols
from filippov.work import WORK, since

WIN = (-3.0, 3.0, -3.0, 3.0)
ONE = {(0, 0): 1.0}
ROT = vf({(0, 1): -1.0}, {(1, 0): 1.0})


def test_interior_saddle_node_like_field():
    X = vf({(1, 0): 1.0}, {(0, 1): 1.0, (0, 0): -1.0})
    out = interior_singularities(X, "N", WIN)
    assert len(out) == 1
    s = out[0]
    assert math.hypot(s.point[0], s.point[1] - 1.0) < 1e-10
    eigs = sorted(e.real for e in s.eigenvalues)
    assert abs(eigs[0] - 1.0) < 1e-9 and abs(eigs[1] - 1.0) < 1e-9
    assert s.hyperbolic == "yes"


def test_interior_center_not_hyperbolic():
    X = vf({(0, 1): -1.0, (0, 0): 1.0}, {(1, 0): 1.0})
    out = interior_singularities(X, "N", WIN)
    assert len(out) == 1
    s = out[0]
    assert math.hypot(s.point[0], s.point[1] - 1.0) < 1e-9
    assert abs(s.eigenvalues[0].real) < 1e-10
    assert s.hyperbolic == "no"


def test_center_in_n_violates_condition_1():
    # X = (1 - y, x) has a center at (0, 1), over Y = (1, 1)
    X = vf({(0, 1): -1.0, (0, 0): 1.0}, {(1, 0): 1.0})
    rep = check_gm(piecewise(X, vf(ONE, ONE)), GmOptions(window=WIN))
    assert rep.gm1.status == "Violated"
    (w,) = [w for w in rep.gm1.witnesses
            if w["kind"] == "non_hyperbolic_interior"]
    assert w["region"] == "upper"
    assert math.hypot(w["point"][0], w["point"][1] - 1.0) < 1e-9


def test_interior_saddle_node_without_sign_change():
    X = vf({(2, 0): 1.0, (1, 0): -0.6, (0, 0): 0.09}, {(0, 1): 1.0, (0, 0): -1.0})
    out = interior_singularities(X, "N", WIN)
    assert len(out) == 1
    assert math.hypot(out[0].point[0] - 0.3, out[0].point[1] - 1.0) < 1e-5
    assert out[0].hyperbolic == "no"


def test_interior_generic_saddle_nodes():
    # P = c u^2 with u linear and Q linear: P never changes sign, and the
    # common zero u = Q = 0 is a saddle-node
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 50:
        a, b, d, e = rng.uniform(-2, 2, 4)
        u0, q0 = rng.uniform(-2, 2, 2)
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        if abs(a * e - b * d) < 0.2:
            continue
        zero = np.linalg.solve([[a, b], [d, e]], [-u0, -q0])
        if abs(zero[1]) < 0.1 or np.max(np.abs(zero)) > 2.5:
            continue
        u = {(1, 0): a, (0, 1): b, (0, 0): u0}
        P = {}
        for (i1, j1), v1 in u.items():
            for (i2, j2), v2 in u.items():
                k = (i1 + i2, j1 + j2)
                P[k] = P.get(k, 0.0) + c * v1 * v2
        X = vf(P, {(1, 0): d, (0, 1): e, (0, 0): q0})
        out = interior_singularities(X, "N" if zero[1] > 0 else "S", WIN)
        assert len(out) == 1
        assert math.dist(out[0].point, zero) < 1e-9
        assert out[0].hyperbolic == "no"
        checked += 1


def test_interior_common_factor_raises():
    # P = (x - 1)(y - 2), Q = (x - 1)(x + y) vanish on the line x = 1;
    # P = (y - x)(x + 1), Q = (y - x)(y + 2) on the line y = x, and there
    # the resultant vanishes identically
    X = vf({(1, 1): 1.0, (1, 0): -2.0, (0, 1): -1.0, (0, 0): 2.0},
           {(2, 0): 1.0, (1, 1): 1.0, (1, 0): -1.0, (0, 1): -1.0})
    Y = vf({(1, 1): 1.0, (0, 1): 1.0, (2, 0): -1.0, (1, 0): -1.0},
           {(0, 2): 1.0, (1, 1): -1.0, (0, 1): 2.0, (1, 0): -2.0})
    for field in (X, Y):
        with pytest.raises(CommonFactor):
            interior_singularities(field, "N", WIN)
    # a zero polynomial shares every factor of the other component
    with pytest.raises(CommonFactor):
        interior_singularities(vf({}, {(0, 1): 1.0, (0, 0): -1.0}), "N", WIN)


@pytest.mark.parametrize("a, b, c, d", [
    (0.3, 0.1, 1.0, 2.0), (0.3, 0.1, 3.0, 1.7), (0.7, 0.2, -2.5, 1.7),
    (1.3, 0.45, 0.5, -0.3)])
def test_interior_common_factor_typed_in_decimals_raises(a, b, c, d):
    # P = (y - a x - b)(x + c), Q = (y - a x - b)(y + d), expanded with
    # decimal coefficients: the doubles share the factor only up to
    # rounding, so the exact resultant of the unit-scaled pair is 1e-17 to
    # 3e-16, not 0.  Taken as no common factor, its noise has roots and
    # Newton reports points of the line y = a x + b as singularities
    P = {(1, 1): 1.0, (0, 1): c, (2, 0): -a, (1, 0): -round(a * c + b, 10),
         (0, 0): -round(b * c, 10)}
    Q = {(0, 2): 1.0, (0, 1): round(d - b, 10), (1, 1): -a,
         (1, 0): -round(a * d, 10), (0, 0): -round(b * d, 10)}
    for region in "NS":
        with pytest.raises(CommonFactor):
            interior_singularities(vf(P, Q), region, (-10, 10, -10, 10))


def test_report_common_factor_undetermined():
    # X = (y - 2) (x + 1 - y^2, x - y^2): the line y = 2 is singular and
    # never meets D; with Y = (1 - y^3, 1 + x^3) nothing else weakens or
    # violates condition 1
    X = vf({(1, 1): 1.0, (0, 3): -1.0, (0, 2): 2.0, (1, 0): -2.0,
            (0, 1): 1.0, (0, 0): -2.0},
           {(1, 1): 1.0, (0, 3): -1.0, (0, 2): 2.0, (1, 0): -2.0})
    Z = piecewise(X, vf({(0, 0): 1.0, (0, 3): -1.0}, {(0, 0): 1.0, (3, 0): 1.0}))
    rep = check_gm(Z, GmOptions(window=WIN))
    kinds = [w["kind"] for w in rep.gm1.witnesses]
    assert rep.gm1.status == UNDETERMINED
    assert kinds == ["interior_common_factor"]
    assert rep.gm1.witnesses[0]["region"] == "upper"


def test_report_newton_failure_undetermined(monkeypatch):
    # with every Newton run failing, the seed (0.5, 0.5) of the saddle
    # X = (x + y - 1, x - y), at which P and Q vanish, is reported as it
    # stands, unverified, with a witness, and is not probed as a saddle
    monkeypatch.setattr(stability, "newton_zero", lambda *args: None)
    X = vf({(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}, {(1, 0): 1.0, (0, 1): -1.0})
    out = interior_singularities(X, "N", WIN)
    assert [(s.point, s.hyperbolic) for s in out] == [((0.5, 0.5), "unverified")]
    assert not out[0].is_saddle
    rep = check_gm(piecewise(X, vf(ONE, ONE, m=1)), GmOptions(window=WIN))
    fails = [w for w in rep.gm1.witnesses
             if w["kind"] == "interior_newton_failed"]
    assert rep.gm1.status == UNDETERMINED
    assert fails == [{"kind": "interior_newton_failed", "region": "upper",
                      "point": [0.5, 0.5]}]
    # Res_y(y^2 - x, y - 1) = 1 - x: the seed (1, -1) from P(1, .) is not a
    # zero of Q, so its failed run reports nothing
    X = vf({(0, 2): 1.0, (1, 0): -1.0}, {(0, 1): 1.0, (0, 0): -1.0})
    assert interior_singularities(X, "S", WIN) == []


def _grid_reference(X, region, window, tols, grid=80):
    """Test-only reference: the interior census that the resultant
    replaced.  Cells of a (grid + 1)^2 sample grid whose corners bracket 0
    in both P and Q seed Newton at their centres; zeros in the window's x
    range and strictly inside the region are merged within 10 tols.root."""
    x0, x1, y0, y1 = window
    if region == "N":
        y0 = max(y0, 0.0)
    else:
        y1 = min(y1, 0.0)
    xs = np.linspace(x0, x1, grid + 1)
    ys = np.linspace(y0, y1, grid + 1)

    def varies(p):
        W = np.array([[p(x, y) for y in ys] for x in xs])
        corners = (W[:-1, :-1], W[1:, :-1], W[:-1, 1:], W[1:, 1:])
        return ((np.minimum.reduce(corners) <= 0.0)
                & (np.maximum.reduce(corners) >= 0.0))

    cells = varies(X.P) & varies(X.Q)
    found = []
    for i, j in zip(*np.nonzero(cells)):
        sol = newton_zero(X, X.jacobian_at, 0.5 * (xs[i] + xs[i + 1]),
                          0.5 * (ys[j] + ys[j + 1]), tols)
        if sol is None or not (x0 - 1e-9 <= sol[0] <= x1 + 1e-9):
            continue
        if (sol[1] <= tols.sign) if region == "N" else (sol[1] >= -tols.sign):
            continue
        if any(math.dist(sol, f) <= 10 * tols.root for f in found):
            continue
        found.append(sol)
    return sorted(found)


CORPUS = sorted((Path(__file__).parents[1] / "bench" / "corpus").glob("*.txt"))


def _random_side(rng, m):
    def table():
        return {(i, j): rng.uniform(-2, 2) for i in range(m + 1)
                for j in range(m + 1 - i)}
    return vf(table(), table(), m=m)


def _census_cases():
    for path in CORPUS:
        spec = fieldspec.parse(path.read_text())
        Z = spec.to_field()
        window = spec.window or default_window(Z)
        yield path.stem, Z.X, "N", window
        yield path.stem, Z.Y, "S", window
    rng = np.random.default_rng(23)
    for k in range(24):
        X = _random_side(rng, 1 + 2 * (k % 2))
        yield f"random{k}", X, "NS"[k % 3 % 2], (-3.0, 3.0, -3.0, 3.0)


def test_interior_census_matches_grid_reference():
    tols = default_tols()
    points = 0
    for name, X, region, window in _census_cases():
        got = [s.point for s in interior_singularities(X, region, window)]
        want = _grid_reference(X, region, window, tols)
        assert len(got) == len(want), name
        for g in got:
            assert min(math.dist(g, w) for w in want) <= 1e-9, name
        points += len(got)
    assert points >= 20


def test_interior_census_scale_invariant():
    # Res_y of 1e-3 (y^3 - x, y - x^3) is 1e-12 (x^9 - x), at the zero
    # threshold of the root isolation unless P and Q are scaled first
    X = vf({(0, 3): 1e-3, (1, 0): -1e-3}, {(0, 1): 1e-3, (3, 0): -1e-3})
    out = interior_singularities(X, "N", WIN)
    assert len(out) == 1 and math.dist(out[0].point, (1.0, 1.0)) < 1e-12
    # P = 1e6 (x^3 - 0.3), Q = -1e6 (y^3 - 0.5): rounding keeps the
    # unscaled residual near this saddle above tols.newton
    X = vf({(3, 0): 1e6, (0, 0): -3e5}, {(0, 3): -1e6, (0, 0): 5e5})
    out = interior_singularities(X, "N", WIN)
    assert [s.hyperbolic for s in out] == ["yes"] and out[0].is_saddle
    assert math.dist(out[0].point, (0.3 ** (1 / 3), 0.5 ** (1 / 3))) < 1e-12
    for name, X, region, window in _census_cases():
        want = [s.point for s in interior_singularities(X, region, window)]
        for c in (1e-3, 1e6):
            Xc = PolyVectorField(X.P.scale(c), X.Q.scale(c), X.m)
            got = [s.point for s in interior_singularities(Xc, region, window)]
            assert len(got) == len(want), (name, c)
            for g, w in zip(got, want):
                assert math.dist(g, w) <= 1e-9, (name, c)


def test_interior_constant_field_empty():
    assert interior_singularities(vf(ONE, ONE), "N", WIN) == []


def test_interior_affine_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c, d = rng.uniform(-2, 2, 4)
        e, f = rng.uniform(-1, 1, 2)
        m = np.array([[a, b], [c, d]])
        if abs(np.linalg.det(m)) < 0.1:
            continue
        zero = np.linalg.solve(m, [-e, -f])
        X = vf({(1, 0): a, (0, 1): b, (0, 0): e},
               {(1, 0): c, (0, 1): d, (0, 0): f})
        for region in ("N", "S"):
            out = interior_singularities(X, region, (-8, 8, -8, 8))
            inside = (zero[1] > 1e-6) if region == "N" else (zero[1] < -1e-6)
            inside = inside and abs(zero[0]) < 8 and abs(zero[1]) < 8
            if inside:
                assert len(out) == 1
                assert math.hypot(out[0].point[0] - zero[0],
                                  out[0].point[1] - zero[1]) < 1e-8
            else:
                assert out == []


# Y of random_15 of benchmark generator seed 11, whose default window is
# the square of half-side 4.783658266005226: Newton from a seed inside it
# converges to the node (3.2669, -5.4501) below it
RANDOM_15_Y = vf({(0, 0): 0.25521875525258286, (0, 2): 1.3455054340106627,
                  (0, 3): -1.2936312231499061, (1, 2): -1.9110796385633901,
                  (2, 0): 0.17660665985000712, (2, 1): 1.8656642145615883,
                  (3, 0): 1.2172759599311656},
                 {(0, 0): -0.46148129961639128, (0, 2): -1.6733095862375431,
                  (1, 1): 0.53651206652934613, (1, 2): 0.98316615272318941,
                  (2, 0): -1.0181990351616426, (2, 1): 1.0614121230762339,
                  (3, 0): 1.0588372188529398}, 3)


def test_interior_census_reports_no_zero_below_the_window():
    h = 4.783658266005226
    out = interior_singularities(RANDOM_15_Y, "S", (-h, h, -h, h))
    assert [s.is_saddle for s in out] == [True]
    assert all(-h <= s.point[1] < 0 for s in out)
    # the node is a zero of Y, reported once the window takes it in
    out = interior_singularities(RANDOM_15_Y, "S", (-h, h, -6.0, h))
    assert any(math.hypot(s.point[0] - 3.26692, s.point[1] + 5.45008)
               < 1e-4 and not s.is_saddle for s in out)


def test_report_violated_origin_tangency():
    Z = piecewise(vf({(0, 1): -1.0, (1, 0): 1.0},
                     {(1, 0): 1.0, (0, 1): 1.0}), ROT)
    rep = check_gm(Z)
    assert rep.gm1.status == VIOLATED
    xs = [w["x"] for w in rep.gm1.witnesses
          if w["kind"] == "non_elementary_d_point"]
    assert any(abs(x) < 1e-9 for x in xs)
    assert rep.overall == VIOLATED
    assert rep.s1 is not None and abs(rep.s1.mu - math.pi) < 1e-8
    assert abs(rep.s1.derivative - math.exp(-math.pi)) < 1e-10


def test_report_constant_field_undetermined_infinity():
    Z = piecewise(vf(ONE, ONE), vf(ONE, ONE))
    rep = check_gm(Z)
    assert rep.infinity_status == UNDETERMINED
    assert rep.gm1.status == UNDETERMINED
    assert not any(w["kind"] == "non_elementary_d_point"
                   for w in rep.gm1.witnesses)
    assert rep.interior_x == [] and rep.interior_y == []
    assert len(rep.d_arcs) == 1 and rep.d_arcs[0].tag.value == "Sewing"
    assert rep.overall == UNDETERMINED


def test_report_field_tangent_to_all_of_d():
    # X = (1, y) is tangent to D everywhere (Q1(x, 0) = 0): the D census
    # is empty and says why, and fold_points' IdenticallyZeroOnD does not
    # escape check_gm
    Z = piecewise(vf(ONE, {(0, 1): 1.0}), vf(ONE, {(0, 0): 1.0, (1, 0): 1.0}))
    rep = check_gm(Z)
    assert {"kind": "tangency_component_zero_on_d"} in rep.gm1.witnesses
    assert rep.gm1.status != SATISFIED
    assert rep.d_arcs == [] and rep.d_singularities == [] \
        and rep.fold_points == []


UNIT_CYCLE = vf({(1, 0): 1.0, (0, 1): -1.0, (3, 0): -1.0, (1, 2): -1.0},
                {(1, 0): 1.0, (0, 1): 1.0, (2, 1): -1.0, (0, 3): -1.0})


def test_report_cycle_census_satisfied():
    Z = piecewise(UNIT_CYCLE, UNIT_CYCLE)
    rep = check_gm(Z, GmOptions(window=(-5, 5, -5, 5)))
    assert rep.gm2.status == SATISFIED
    assert len(rep.cycles) == 1
    assert rep.cycles[0].elementary == "yes"
    assert rep.gm3.status == UNDETERMINED
    opt = check_gm(Z, GmOptions(window=(-5, 5, -5, 5), optimistic=True))
    assert opt.gm3.status == SATISFIED


@pytest.mark.parametrize("error", [NoReturn, NotTransversal, StepFailure])
@pytest.mark.parametrize("field", [
    piecewise(UNIT_CYCLE, UNIT_CYCLE),
    # X = (1, x) over Y = (1, 1): a visible fold of X at the origin
    piecewise(vf(ONE, {(1, 0): 1.0}), vf(ONE, ONE)),
], ids=["cycle", "fold"])
def test_census_run_failure_skips_the_run(monkeypatch, field, error):
    # every hybrid run of the census that is not a return of the secant
    # (those pass a section or a stop) fails: the run after a fixed point
    # on the unit cycle, the fold run on the drift field.  Each failure
    # kind skips that run, and check_gm still gives its report
    original, failed = flow.advance_hybrid, []

    def failing(*args, **kwargs):
        if "section" in kwargs or "stop" in kwargs:
            return original(*args, **kwargs)
        failed.append(args[1])
        raise error("stubbed failure")

    monkeypatch.setattr(flow, "advance_hybrid", failing)
    rep = check_gm(field, GmOptions(window=(-5, 5, -5, 5)))
    assert failed and rep.cycles == []
    assert rep.gm2.status == UNDETERMINED


def test_report_json_stable_across_runs():
    Z = piecewise(vf({(0, 1): -1.0, (1, 0): 1.0},
                     {(1, 0): 1.0, (0, 1): 1.0}), ROT)
    a = json.dumps(check_gm(Z).to_json_dict(), sort_keys=True)
    b = json.dumps(check_gm(Z).to_json_dict(), sort_keys=True)
    assert a == b


def test_identity_perturbation():
    Z = piecewise(vf({(1, 1): 2.0}, {(0, 1): -1.0}), ROT)
    Z2 = apply_perturbation(Z, RotateTranslate(0.0, 0.0, 0.0, 0.0))
    assert Z2.X.P.coeffs == Z.X.P.coeffs
    assert Z2.Y.Q.coeffs == Z.Y.Q.coeffs


def test_quarter_rotation_swaps_components():
    Z = piecewise(vf({(1, 0): 3.0}, {(0, 1): 5.0}), ROT)
    Z2 = apply_perturbation(Z, RotateTranslate(math.pi / 2, 0.0, 0.0, 0.0))
    assert abs(Z2.X.P.coeffs.get((0, 1), 0.0) + 5.0) < 1e-12
    assert abs(Z2.X.Q.coeffs.get((1, 0), 0.0) - 3.0) < 1e-12
    # Y side untouched by sigma2 = 0
    assert Z2.Y.P.coeffs == Z.Y.P.coeffs


def test_rotate_translate_round_trip():
    rng = np.random.default_rng(5)
    P1 = {(i, j): rng.uniform(-1, 1) for i in range(3) for j in range(3 - i)}
    Q1 = {(i, j): rng.uniform(-1, 1) for i in range(3) for j in range(3 - i)}
    Z = piecewise(vf(P1, Q1), vf(Q1, P1))
    sigma, v1, v2 = 0.7, 0.3, -1.1
    Z1 = apply_perturbation(Z, RotateTranslate(sigma, sigma, v1, v2))
    Z2 = apply_perturbation(Z1, RotateTranslate(-sigma, -sigma, 0.0, 0.0))
    Z3 = apply_perturbation(Z2, RotateTranslate(0.0, 0.0, -v1, -v2))
    for p, q in ((Z3.X.P, Z.X.P), (Z3.X.Q, Z.X.Q),
                 (Z3.Y.P, Z.Y.P), (Z3.Y.Q, Z.Y.Q)):
        keys = set(p.coeffs) | set(q.coeffs)
        assert all(abs(p.coeffs.get(k, 0.0) - q.coeffs.get(k, 0.0)) <= 1e-12
                   for k in keys)


def test_top_trig_coefficients_rotate_as_pair():
    from filippov.compactify import trig_coefficients

    rng = np.random.default_rng(3)
    P1 = {(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)}
    Q1 = {(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)}
    Z = piecewise(vf(P1, Q1), vf(Q1, P1))
    sigma = 0.42
    Z2 = apply_perturbation(Z, RotateTranslate(sigma, sigma, 0.2, -0.4))
    As, Rs = trig_coefficients(Z.X)
    As2, Rs2 = trig_coefficients(Z2.X)
    m = Z.m
    c, s = math.cos(sigma), math.sin(sigma)
    for theta in rng.uniform(0, 2 * math.pi, 100):
        want_a = c * As[m](theta) + s * Rs[m](theta)
        want_r = c * Rs[m](theta) - s * As[m](theta)
        assert abs(As2[m](theta) - want_a) < 1e-10
        assert abs(Rs2[m](theta) - want_r) < 1e-10


def test_radial_odd_on_rotation():
    Z = piecewise(ROT, ROT)
    Z2 = apply_perturbation(Z, RadialOdd(0.5, 0))
    assert Z2.X.P.coeffs == {(0, 1): -1.0, (1, 0): 0.5}
    assert Z2.X.Q.coeffs == {(1, 0): 1.0, (0, 1): 0.5}
    with pytest.raises(DegreeMismatch):
        apply_perturbation(Z, RadialOdd(0.5, 1))


def test_repair_mu_zero_with_radial_perturbation():
    Z = piecewise(ROT, ROT)
    rep = check_gm(Z)
    assert any(w["kind"] == "mu_zero" for w in rep.gm2.witnesses)
    pert, Z2, rep2 = genericity_repair(Z, rep)
    assert isinstance(pert, RadialOdd) and pert.epsilon == 1e-3
    s1 = s1_elementarity(Z2)
    assert s1.status is S1Status.ELEMENTARY
    assert abs(s1.mu - 1e-3 * math.pi) < 1e-10
    assert not any(w["kind"] == "mu_zero" for w in rep2.gm2.witnesses)


def test_repair_eq4_zero_with_axis_bump():
    X = vf({(0, 1): -1.0, (1, 0): 1.0}, {(1, 0): 1.0, (0, 1): 1.0})
    Z = piecewise(X, X)
    assert abs(eq4_value(Z)) < 1e-12
    rep = check_gm(Z)
    assert any(w["kind"] == "eq4_zero" for w in rep.gm1.witnesses)
    pert, Z2, rep2 = genericity_repair(Z, rep)
    assert isinstance(pert, AxisPowerX) and pert.epsilon == 1e-3
    assert abs(eq4_value(Z2)) > 1e-9
    assert not any(w["kind"] == "eq4_zero" for w in rep2.gm1.witnesses)


def test_repair_refuses_other_violations():
    Z = piecewise(vf(ONE, ONE), vf(ONE, ONE))
    rep = check_gm(Z)
    with pytest.raises(NotRepairable):
        genericity_repair(Z, rep)


def test_d_arc_boundary_at_exact_root_of_q():
    # Q_X(x, 0) = x and the fold there is non-elementary: the D census puts
    # the arc boundary, the fold and the witness at x = 0 to the last bit
    Z = piecewise(vf({(1, 0): 0.6, (0, 1): -0.09}, {(1, 0): 1.0}), ROT)
    rep = check_gm(Z).to_json_dict()
    left, right = rep["d_census"]["arcs"]
    assert abs(left["interval"][1]) <= 1e-15
    assert abs(right["interval"][0]) <= 1e-15
    assert [abs(f["x"]) <= 1e-15 for f in rep["d_census"]["folds"]] == [True]
    witnesses = rep["conditions"]["interior_and_d"]["witnesses"]
    d_point = [w for w in witnesses if w["kind"] == "non_elementary_d_point"]
    assert len(d_point) == 1 and abs(d_point[0]["x"]) <= 1e-15



# fields whose slides run into a boundary equilibrium: a tangency root
# ahead is also a root of det, where the sliding field vanishes.  A slide
# that ended there as a fold exit once made check_gm raise ("sliding arc
# ends at non-fold tangency")
BOUNDARY_EQUILIBRIUM = {
    # Y = (-y, x) vanishes at the origin: Q_Y(x, 0) = x, det(x, 0) =
    # x (x^2 - 1); window (-3, 3, -3, 3)
    "through_d": (piecewise(
        vf({(2, 0): 1.0, (0, 0): -1.0},
           {(1, 1): -1.0, (1, 0): 1.0, (2, 0): 0.3, (0, 0): -0.3}),
        vf({(0, 1): -1.0}, {(1, 0): 1.0})), WIN),
    # random_05 of benchmark generator seed 7: P_X(x, 0) = 0, so X
    # vanishes at each root of Q_X(x, 0), such as x = -1.443067018733883
    "random_05_seed_7": (piecewise(
        vf({(0, 2): -0.3944527285291941, (1, 1): -1.4918465308085427,
            (1, 2): 1.6194083829329573, (2, 1): 1.3060419141015482},
           {(0, 0): -0.8253763770602331, (0, 1): -1.4760645919621984,
            (0, 2): 1.8835607089510575, (0, 3): 0.10632418839622204,
            (1, 1): 1.4869717119576165, (2, 0): -0.9926607545381847,
            (2, 1): -1.0378424297666617, (3, 0): -0.9625408189191593}, 3),
        vf({(0, 0): -1.4757052939860666, (0, 2): -0.16735605411306542,
            (0, 3): 1.6171870981681593, (1, 0): 1.6708843373706572,
            (1, 1): 0.1272998497437352, (1, 2): -1.9251805283783199,
            (2, 0): -1.267568450911205, (2, 1): 1.1966818019688867,
            (3, 0): -0.10602827015217464},
           {(0, 0): 0.4501115373778415, (0, 1): -0.6960713958045437,
            (0, 2): 0.2217674995209875, (1, 0): 0.241184534335809,
            (1, 1): -0.8923317181408739, (2, 0): 0.24691754662590482}, 3)),
        None),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_EQUILIBRIUM))
def test_slide_into_boundary_equilibrium_gets_a_report(name):
    Z, window = BOUNDARY_EQUILIBRIUM[name]
    rep = check_gm(Z, GmOptions(window=window))
    assert rep.overall == VIOLATED
    assert (rep.gm1.status, rep.gm2.status, rep.gm3.status) == (
        VIOLATED, UNDETERMINED, UNDETERMINED)


def test_cycle_census_skips_a_seed_whose_return_map_fails():
    # a focus on D: g = -(r^2 - 9)(r^2 - 16)/50, X = (-y + xg, x + yg),
    # Y = (-2y + xg, 2x + yg).  One seed's secant drifts to s = 0, where the
    # return map hits TangencyBoth, which once raised out of the census and
    # check_gm; the run now ends there with Tangency and does not return
    x, y = poly({(1, 0): 1.0}), poly({(0, 1): 1.0})
    r2 = x * x + y * y
    g = ((r2 - poly({(0, 0): 9.0})) * (r2 - poly({(0, 0): 16.0}))).scale(-0.02)
    Z = piecewise(PolyVectorField(-y + x * g, x + y * g, 5),
                  PolyVectorField(y.scale(-2.0) + x * g, x.scale(2.0) + y * g,
                                  5))
    window = (-6.0, 6.0, -6.0, 6.0)
    assert find_closed_polytrajectories(Z, window) == []
    rep = check_gm(Z, GmOptions(window=window))
    assert rep.overall == VIOLATED
    assert (rep.gm1.status, rep.gm2.status, rep.gm3.status) == (
        VIOLATED, UNDETERMINED, UNDETERMINED)


# X = (x^2 - 4x + 3, 1 - y) has a saddle at (3, 1) and a node at (1, 1);
# the line y = 1 is invariant, so two separatrix branches run along the
# node's watched ray
RAY_EDGE = piecewise(vf({(2, 0): 1.0, (1, 0): -4.0, (0, 0): 3.0},
                        {(0, 0): 1.0, (0, 1): -1.0}), vf(ONE, ONE))
RAY_EDGE_WIN = (-5.0, 5.0, -5.0, 5.0)


def test_branches_along_a_watched_ray_keep_the_report():
    rep = check_gm(RAY_EDGE, GmOptions(window=RAY_EDGE_WIN))
    assert [s.point for s in rep.interior_x] == [(1.0, 1.0), (3.0, 1.0)]
    assert rep.gm3.status == UNDETERMINED
    assert rep.gm3.witnesses == [{"kind": "connection_probe_clean",
                                  "branches": 4}]
    assert rep.overall == UNDETERMINED


@pytest.mark.parametrize("error", [StepFailure, NotTransversal])
@pytest.mark.parametrize("optimistic", [False, True])
def test_probe_skips_a_branch_whose_trace_raises(monkeypatch, error,
                                                 optimistic):
    trace, calls = flow._trace_branch, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error("stub")
        return trace(*args)

    monkeypatch.setattr(flow, "_trace_branch", failing)
    rep = check_gm(RAY_EDGE, GmOptions(window=RAY_EDGE_WIN, optimistic=optimistic))
    assert len(calls) == 4
    assert rep.gm3.status == UNDETERMINED
    skipped = {"kind": "connection_probe_skipped",
               "branches": [["X0:unstable:-1", error.__name__]]}
    clean = [] if optimistic else [{"kind": "connection_probe_clean",
                                    "branches": 4}]
    assert rep.gm3.witnesses == clean + [skipped]
    json.loads(dumps_report(rep.to_json_dict()))


# random_01 of benchmark generator seed 1: Y has an attracting cycle of
# period 0.407 and multiplier 0.105 around its focus (-7.064, -4.044)
RANDOM_01 = piecewise(
    vf({(0, 0): 1.7565966511140423, (0, 1): -1.1336024114775465,
        (0, 2): -1.8838368497005282, (0, 3): -0.24844962539771176,
        (1, 0): -1.0676621989697095, (1, 1): -1.1248758506492456,
        (1, 2): -0.84087354163805772, (2, 0): 1.3503119026502914,
        (2, 1): 0.56917745172978229, (3, 0): 1.9701736487042605},
       {(0, 0): 1.8284651258409075, (0, 1): -0.66921925855948361,
        (1, 1): 1.3201427730973081, (1, 2): -0.78652595626832955,
        (2, 0): 1.5299160033274308, (3, 0): 0.35600903193020672}, 3),
    vf({(0, 0): -1.0290401058277294, (0, 2): -1.3079703936837963,
        (0, 3): 0.81216304826252594, (1, 0): -0.50118791799343887,
        (1, 1): 0.033705952999927291, (2, 0): -0.42697962014309576,
        (2, 1): -1.8817001441323717, (3, 0): 0.81352835441534399},
       {(0, 0): -1.9771634821984283, (0, 1): -0.42560125448834407,
        (0, 2): 0.0089542337339323375, (1, 1): 1.4411591156821983,
        (1, 2): 0.055086652750548026, (2, 1): -0.16347307235732655,
        (3, 0): 0.19198523786499555}, 3))


def test_branches_circling_a_cycle_settle(monkeypatch):
    reports = []
    probe = flow.probe_saddle_connections

    def keep(*args):
        reports.append(probe(*args))
        return reports[-1]

    monkeypatch.setattr(flow, "probe_saddle_connections", keep)
    rep = check_gm(RANDOM_01)
    assert rep.gm3.witnesses == [{"kind": "connection_probe_clean",
                                  "branches": 16}]
    fates = {b.label: b.fate for b in reports[0].branches}
    assert {k for k, v in fates.items() if v == "settled"} == {
        "Y1:unstable:-1", "Y2:unstable:-1"}
    assert set(fates.values()) <= {"settled", "d_hit", "window", "horizon",
                                   "q1_root", "q2_root"}


def _all_pairs_flagged(rep, centers, connect):
    # the reference: the least distance between the points of every
    # stable-unstable branch pair, less, for two branches of one saddle,
    # their points within 0.05 of it
    flagged = []
    for i, bi in enumerate(rep.branches):
        for j, bj in enumerate(rep.branches[i + 1:], i + 1):
            if {bi.stability, bj.stability} != {"stable", "unstable"}:
                continue
            pi, pj = bi.points, bj.points
            if bi.saddle_index == bj.saddle_index:
                c = np.asarray(centers[bi.saddle_index])
                pi = pi[np.linalg.norm(pi - c, axis=1) > 0.05]
                pj = pj[np.linalg.norm(pj - c, axis=1) > 0.05]
            if len(pi) and len(pj) and \
                    np.min(cKDTree(pj).query(pi, k=1)[0]) < connect:
                flagged.append((i, j))
    return flagged


def test_probe_flags_what_an_all_pairs_search_flags(seeded_fields,
                                                    monkeypatch):
    runs = []
    probe = flow.probe_saddle_connections

    def keep(Z, saddles, *args, **kwargs):
        runs.append(([s.point for s in saddles],
                     probe(Z, saddles, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(flow, "probe_saddle_connections", keep)
    # the symmetric heteroclinic field of test_flow.py
    X = vf({(1, 0): 2.0, (1, 1): -1.0},
           {(0, 0): 1.0, (0, 1): -1.0, (2, 0): -1.0})
    flow.probe_saddle_connections(
        piecewise(X, vf({}, {(0, 0): -1.0})),
        [flow.SaddleSpec("X", (0.0, 1.0)), flow.SaddleSpec("FZ", (0.0, 0.0))],
        window=(-3, 3, -3, 3))
    for Z in [RANDOM_01] + seeded_fields[::5]:
        check_gm(Z)
    assert runs[0][1].flagged and len(runs) > 2
    connect = default_tols().connect
    for centers, rep in runs:
        assert rep.flagged == _all_pairs_flagged(rep, centers, connect)


# X = (v, 1 - x^2 - v / 2), v = y - 2: a saddle at (-1, 2) and a stable
# focus at (1, 2), with E = v^2 / 2 - x + x^3 / 3 falling as E' = -v^2 / 2,
# so the unstable branch of the saddle that heads right spirals into the
# focus; Y = (1, -1)
DAMPED = piecewise(vf({(0, 0): -2.0, (0, 1): 1.0},
                      {(0, 0): 2.0, (2, 0): -1.0, (0, 1): -0.5}),
                   vf(ONE, {(0, 0): -1.0}))
DAMPED_WIN = (-3.0, 3.0, -3.0, 5.0)


def test_a_branch_that_enters_a_focus_trap_ends_there(monkeypatch):
    tols = default_tols()
    rays = {"X": [(1.0, 2.0)], "Y": []}
    trap = flow.sink_trap(DAMPED.X, (1.0, 2.0), DAMPED_WIN, tols,
                          tols.connect)
    assert trap.point == (1.0, 2.0) and trap.direction == 1
    saddle = [flow.SaddleSpec("X", (-1.0, 2.0))]
    before = dict(WORK)
    rep = flow.probe_saddle_connections(DAMPED, saddle, DAMPED_WIN, tols,
                                        rays)
    assert since(before)["branch_traps"] == 1
    with monkeypatch.context() as m:  # the same probe, with no trap proved
        m.setattr(flow, "sink_trap", lambda *args: None)
        bare = flow.probe_saddle_connections(DAMPED, saddle, DAMPED_WIN,
                                             tols, rays)
    assert [b.fate for b in rep.branches] == [
        "sink", "d_hit", "window", "d_hit"]
    assert [b.fate for b in bare.branches] == [
        "horizon", "d_hit", "window", "d_hit"]
    assert rep.flagged == bare.flagged == []
    # the trapped branch is the untrapped one, cut at the step that ends
    # in the box
    cut, full = rep.branches[0].points, bare.branches[0].points
    assert len(cut) < len(full) and np.array_equal(cut, full[:len(cut)])
    x0, x1, y0, y1 = trap.box
    assert x0 <= cut[-1, 0] <= x1 and y0 <= cut[-1, 1] <= y1
    # a trap whose disc comes within 2 tols.delta_sep of a saddle of its
    # field ends no branch: the seeds of that saddle could lie in it
    near = flow.SaddleSpec("X", (1.0 + trap.radius + tols.delta_sep, 2.0))
    rep = flow.probe_saddle_connections(DAMPED, saddle + [near], DAMPED_WIN,
                                        tols, rays)
    assert "sink" not in [b.fate for b in rep.branches]


def test_probe_flags_the_same_pairs_without_its_traps(seeded_fields,
                                                     monkeypatch):
    # the probe of every report, run again with no trap proved, flags the
    # same pairs and skips the same branches, and each branch that ended
    # in a trap is a start of the branch traced without it
    runs = []
    probe = flow.probe_saddle_connections

    def keep(*args):
        runs.append((args, probe(*args)))
        return runs[-1][1]

    monkeypatch.setattr(flow, "probe_saddle_connections", keep)
    bench = Path(__file__).parents[1] / "bench"
    specs = [fieldspec.parse(path.read_text())
             for path in sorted((bench / "corpus").glob("*.txt"))]
    cases = [(spec.to_field(), spec.window) for spec in specs]
    cases += [(Z, None) for Z in seeded_fields] + [(DAMPED, DAMPED_WIN)]
    for Z, window in cases:
        check_gm(Z, GmOptions(window=window))
    trapped = 0
    for args, rep in runs:
        with monkeypatch.context() as m:
            m.setattr(flow, "sink_trap", lambda *args: None)
            before = dict(WORK)
            bare = probe(*args)
            assert since(before)["branch_traps"] == 0
        assert rep.flagged == bare.flagged
        assert rep.skipped == bare.skipped
        for b, c in zip(rep.branches, bare.branches, strict=True):
            assert b.label == c.label
            if b.fate == "sink":
                trapped += 1
                assert np.array_equal(b.points, c.points[:len(b.points)])
            else:
                assert b.fate == c.fate
                assert np.array_equal(b.points, c.points)
    assert trapped >= 10


def _loop_field(cx, cy, s, mu, shift=0.0):
    # H = v^2/2 - u^2/2 + u^3/3 in u = (x - cx)/s, v = (y - cy)/s: H = 0
    # is a homoclinic loop of the saddle (cx, cy) around the focus
    # (cx + s, cy), and X = (H_v + mu H H_u, -H_u + mu H H_v) + (shift, 0)
    # keeps it when shift = 0, as then H' = mu H |grad H|^2; Y = (1, -1)
    u = poly({(1, 0): 1 / s, (0, 0): -cx / s})
    v = poly({(0, 1): 1 / s, (0, 0): -cy / s})
    H = (v * v - u * u).scale(0.5) + (u * u * u).scale(1 / 3)
    Hu, Hv = u * u - u, v
    P = Hv + (H * Hu).scale(mu) + poly({(0, 0): shift})
    Q = (H * Hv).scale(mu) - Hu
    return piecewise(PolyVectorField(P, Q, 5), vf(ONE, {(0, 0): -1.0}))


@pytest.mark.parametrize("optimistic", [False, True])
def test_homoclinic_loop_is_a_possible_connection(optimistic):
    # the loop of the saddle (0, 2) surrounds the focus (1, 2) with
    # eigenvalues -1/12 +- i; both branches on it cross the focus's ray
    # at x = 1.5, downward in forward time
    rep = check_gm(_loop_field(0.0, 2.0, 1.0, 0.5),
                   GmOptions(window=WIN, optimistic=optimistic))
    assert rep.gm3.status == VIOLATED
    assert rep.gm3.witnesses == [{"kind": "possible_connection",
                                  "branches": ["X0:unstable:+1",
                                               "X0:stable:-1"]}]


def _planted_loops():
    # 20 loops of scale 0.5 to 2 and |mu| 0.1 to 0.8 in N, each in its
    # bounding box (u in [0, 1.5], |v| <= 1/sqrt(3)) widened by 1.5
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.1, 0.8) * rng.choice((-1.0, 1.0))
        cx, cy = rng.uniform(-1.0, 1.0), 0.6 * s + rng.uniform(0.3, 1.0)
        yield (cx, cy, s, mu), (cx - 1.5, cx + 1.5 * s + 1.5,
                                cy - 0.6 * s - 1.5, cy + 0.6 * s + 1.5)


def test_planted_homoclinic_loops_are_flagged():
    # each loop flags a stable and an unstable branch of its saddle; with
    # 0.01 added to P the loop breaks, and none is flagged
    for loop, window in _planted_loops():
        rep = check_gm(_loop_field(*loop), GmOptions(window=window))
        assert rep.gm3.status == VIOLATED, loop
        for w in rep.gm3.witnesses:
            assert w["kind"] == "possible_connection"
            assert sorted(b.split(":")[:2] for b in w["branches"]) == [
                ["X0", "stable"], ["X0", "unstable"]], loop
        rep = check_gm(_loop_field(*loop, shift=0.01),
                       GmOptions(window=window))
        assert [w["kind"] for w in rep.gm3.witnesses] == [
            "connection_probe_clean"], loop


def test_every_seeded_field_gets_a_report(seeded_fields):
    for Z in seeded_fields[::5]:
        rep = check_gm(Z)
        assert rep.overall in (SATISFIED, VIOLATED, UNDETERMINED)
        json.loads(dumps_report(rep.to_json_dict()))


def _cycle_bits(cycles) -> list:
    return [(c.closure, c.elementary,
             {k: float(v).hex() for k, v in c.certificate.items()})
            for c in cycles]


def test_census_finds_the_same_cycles_with_and_without_traps(
        seeded_fields, monkeypatch):
    # the census ends a run in the trap of a stable node or focus of the
    # rays that check_gm hands it; a run that enters one would have gone
    # on to its horizon, so the cycles, their x and eta' come out the same
    # to the bit as a census without rays
    runs = []
    census = flow.find_closed_polytrajectories

    def both(Z, window, tols, rays):
        before = dict(WORK)
        found = census(Z, window, tols, rays)
        exits = since(before)["trap_exits"]
        runs.append((found, census(Z, window, tols), exits))
        return found

    monkeypatch.setattr(flow, "find_closed_polytrajectories", both)
    corpus = Path(__file__).parents[1] / "bench" / "corpus"
    for name in ("uc", "uc2", "rot"):
        spec = fieldspec.parse((corpus / f"{name}.txt").read_text())
        check_gm(spec.to_field(), GmOptions(window=spec.window))
    for Z in [RANDOM_01] + seeded_fields[::4]:
        check_gm(Z)
    assert len(runs) == 14 and sum(exits for *_, exits in runs) >= 3
    assert sum(len(found) for found, *_ in runs) >= 3
    for found, without, _ in runs:
        assert _cycle_bits(found) == _cycle_bits(without)


# known wrong verdicts: each test asserts the right answer and fails until
# the census or the probe that it names is mended

def _const(v: float):
    return poly({(0, 0): v})


def _two_circle_field():
    # v = y - 0.5, r^2 = x^2 + v^2, g = -(r^2 - 9)(r^2 - 16)/50: the circles
    # r = 3 and r = 4 are hyperbolic crossing cycles of X = (-v + x g,
    # x + v g) over Y = (-2v + x g, 2x + v g); they meet D at +-2.958040
    # and +-3.968627
    x, y = poly({(1, 0): 1.0}), poly({(0, 1): 1.0})
    v = y - _const(0.5)
    r2 = x * x + v * v
    g = ((r2 - _const(9.0)) * (r2 - _const(16.0))).scale(-0.02)
    return piecewise(PolyVectorField(-v + x * g, x + v * g, 5),
                     PolyVectorField(v.scale(-2.0) + x * g,
                                     x.scale(2.0) + v * g, 5))


def _semi_stable_field():
    # u = x, v = y + 3, r^2 = u^2 + v^2: the circle r = 1 is a semi-stable
    # cycle of Y = (-v - u (1 - r^2)^2, u - v (1 - r^2)^2), below
    # X = (1, 1)
    u, v = poly({(1, 0): 1.0}), poly({(0, 1): 1.0}) + _const(3.0)
    q = _const(1.0) - (u * u + v * v)
    return piecewise(PolyVectorField(_const(1.0), _const(1.0), 5),
                     PolyVectorField(-v - u * (q * q), u - v * (q * q), 5))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the cycle census seeds only on fixed sewing "
                   "abscissas and misses both circles")
def test_two_circle_field_reports_both_crossing_cycles():
    # the cycles are hyperbolic, so condition 2 may stand; today it stands
    # under --optimistic on a census that finds no cycle
    rep = check_gm(_two_circle_field(),
                   GmOptions(window=(-6.0, 6.0, -6.0, 6.0), optimistic=True))
    xs = sorted(abs(c.certificate["x"]) for c in rep.cycles)
    assert len(xs) == 2
    assert np.allclose(xs, [2.958040, 3.968627], rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("c, scale", [
    pytest.param(c, s, marks=pytest.mark.xfail(
        strict=True, raises=CommonFactor, reason="unit scaling makes the "
        "resultant -1.2e-14 x at c = 2 and -1.6e-20 x at c = 3, below the "
        "zero floor, which a decimal shared factor's rounding residue "
        "needs (ROADMAP item 2)"))
    if c > 1.0 else (c, s)
    for c in (1.0, 2.0, 3.0, 5.0) for s in (1e-3, 1.0, 1e3)])
def test_semi_stable_focus_is_found_at_every_scale(c, scale):
    # Y of the semi-stable field with v = y + c, times scale: one stable
    # focus (0, -c) with eigenvalues -scale +- scale i
    u, v = poly({(1, 0): 1.0}), poly({(0, 1): 1.0}) + _const(c)
    q = _const(1.0) - (u * u + v * v)
    Y = PolyVectorField((-v - u * (q * q)).scale(scale),
                        (u - v * (q * q)).scale(scale), 5)
    got = interior_singularities(Y, "S", (-6.0, 6.0, -6.0, 6.0))
    assert len(got) == 1 and got[0].hyperbolic == "yes"
    assert np.allclose(got[0].point, (0.0, -c), rtol=0.0, atol=1e-9)
    assert np.allclose(sorted(got[0].eigenvalues, key=lambda e: e.imag),
                       [-scale - scale * 1j, -scale + scale * 1j],
                       rtol=1e-9, atol=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the cycle census never looks off D, and the "
                   "focus of Y is lost to a false common factor")
def test_semi_stable_cycle_is_not_satisfied():
    rep = check_gm(_semi_stable_field(),
                   GmOptions(window=(-6.0, 6.0, -6.0, 6.0), optimistic=True))
    assert rep.gm2.status != SATISFIED


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the connection probe stops each branch at D")
def test_connection_through_d_is_not_satisfied():
    # the unstable branch of X's saddle (-1, 1) runs down x = -1, follows
    # Y's half-circle and climbs x = 1 into the saddle (1, 1)
    Z, window = BOUNDARY_EQUILIBRIUM["through_d"]
    rep = check_gm(Z, GmOptions(window=window, optimistic=True))
    assert rep.gm3.status != SATISFIED


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the cycle census never looks off D")
def test_random_01_reports_the_cycle_of_y():
    # the cycle is hyperbolic, so the verdict may stand; today it stands
    # under --optimistic on a census that finds no cycle
    rep = check_gm(RANDOM_01, GmOptions(optimistic=True))
    etas = [c.certificate["eta_prime"] for c in rep.cycles]
    assert len(etas) == 1 and abs(etas[0] - 0.1049229581) <= 1e-6
