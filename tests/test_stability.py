import json
import math

import numpy as np
import pytest

from filippov.compactify import S1Status, eq4_value, s1_elementarity
from filippov.errors import DegreeMismatch, NotRepairable
from filippov.polys import piecewise, vf
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
    genericity_repair,
    interior_singularities,
)

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


@pytest.mark.xfail(strict=True, reason="the grid brackets sign changes only; "
                   "P = (x - 0.3)^2 never changes sign")
def test_interior_saddle_node_without_sign_change():
    X = vf({(2, 0): 1.0, (1, 0): -0.6, (0, 0): 0.09}, {(0, 1): 1.0, (0, 0): -1.0})
    out = interior_singularities(X, "N", WIN)
    assert len(out) == 1
    assert math.hypot(out[0].point[0] - 0.3, out[0].point[1] - 1.0) < 1e-5
    assert out[0].hyperbolic == "no"


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
