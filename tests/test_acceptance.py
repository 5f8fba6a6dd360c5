"""Acceptance gate: one test per criterion, each printing a pass/fail
line on the live terminal in addition to the usual pytest verdict."""

import json
import math

import numpy as np
import pytest

from filippov import cli, fieldspec
from filippov.compactify import (
    S1Status,
    compactified_field,
    eq4_value,
    pullback_check,
    s1_elementarity,
    trig_coefficients,
)
from filippov.dline import PointTag, classify_point, det_xy, filippov_field, filippov_lambda
from filippov.errors import FilippovError
from filippov.flow import (
    Section,
    compactified_return_map,
    integrate_smooth,
    transition_derivative,
)
from filippov.polys import homogeneous_part, piecewise, poly, vf
from filippov.regularize import (
    emergent_singularities,
    epsilon_sweep,
    make_transition,
    regularized_cycle_search,
    RegularizedField,
    SingularityType,
)
from filippov.stability import (
    RadialOdd,
    RotateTranslate,
    apply_perturbation,
    check_gm,
    genericity_repair,
)
from filippov.tolerances import default_tols

WIN = (-5.0, 5.0, -5.0, 5.0)

SPIRAL = piecewise(vf({(0, 1): -1.0, (1, 0): 1.0},
                      {(1, 0): 1.0, (0, 1): 1.0}),
                   vf({(0, 1): -1.0}, {(1, 0): 1.0}))
ROT = vf({(0, 1): -1.0}, {(1, 0): 1.0})
UNIT_CYCLE = vf({(1, 0): 1.0, (0, 1): -1.0, (3, 0): -1.0, (1, 2): -1.0},
                {(1, 0): 1.0, (0, 1): 1.0, (2, 1): -1.0, (0, 3): -1.0})


def _verdict(capfd, num: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"criterion {num} ({name}): FAIL")
        raise
    with capfd.disabled():
        print(f"criterion {num} ({name}): PASS")


def _random_field(rng, m):
    def table():
        return {(i, j): float(rng.uniform(-2, 2))
                for i in range(m + 1) for j in range(m + 1 - i)
                if rng.random() < 0.7}
    t = [table() for _ in range(4)]
    t[1][(0, 0)] = t[1].get((0, 0), 0.0) + float(rng.uniform(-2, 2)) or 0.5
    t[3][(0, 0)] = t[3].get((0, 0), 0.0) + float(rng.uniform(-2, 2)) or 0.5
    return piecewise(vf(t[0], t[1], m), vf(t[2], t[3], m))


def test_criterion_1_filippov_tangency(capfd):
    def body():
        rng = np.random.default_rng(2026)
        tols = default_tols()
        checked = 0
        for _ in range(1000):
            m = int(rng.integers(1, 5))
            Z = _random_field(rng, m)
            for x in rng.uniform(-2.0, 2.0, 4):
                x = float(x)
                try:
                    cls = classify_point(Z, x, tols)
                except FilippovError:
                    continue
                if cls.tag not in (PointTag.SLIDING, PointTag.ESCAPING):
                    continue
                fz = filippov_field(Z, x, tols)
                assert fz[1] == 0.0
                lam = filippov_lambda(Z, x, tols)
                assert 0.0 < lam < 1.0
                xf, yf = cls.xf, cls.yf
                p1 = Z.X.P(x, 0.0)
                p2 = Z.Y.P(x, 0.0)
                num = yf * p1 - xf * p2
                det = det_xy(Z)(x, 0.0)
                scale = max(abs(num), abs(det), 1.0)
                assert abs(num - det) <= 1e-12 * scale
                checked += 1
        assert checked > 200
    _verdict(capfd, 1, "Filippov tangency suite", body)


def test_criterion_2_compactification_identities(capfd):
    def body():
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            Z = _random_field(rng, m)
            As, Rs = trig_coefficients(Z.X)
            for theta in rng.uniform(0.0, 2 * math.pi, 5):
                c, s = math.cos(theta), math.sin(theta)
                for k in range(m + 1):
                    pk = homogeneous_part(Z.X.P, k)(c, s)
                    qk = homogeneous_part(Z.X.Q, k)(c, s)
                    lhs = As[k](theta) ** 2 + Rs[k](theta) ** 2
                    rhs = pk ** 2 + qk ** 2
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        # pullback direction angle on 10^3 samples
        n = 0
        while n < 1000:
            m = int(rng.integers(1, 4))
            Z = _random_field(rng, m)
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            rho = float(rng.uniform(0.1, 1.0))
            try:
                ang = pullback_check(Z, theta, rho)
            except FilippovError:
                continue
            assert ang <= 1e-8
            n += 1
        # rho = 0 is invariant: the radial component vanishes identically
        tf = compactified_field(SPIRAL)
        for theta in np.linspace(0.01, math.pi - 0.01, 64):
            assert tf.eval_upper(float(theta), 0.0)[1] == 0.0
    _verdict(capfd, 2, "compactification identity suite", body)


def test_criterion_3_equator_chain(capfd):
    def body():
        rep = s1_elementarity(SPIRAL)
        assert rep.status is S1Status.ELEMENTARY
        assert abs(rep.mu - math.pi) <= 1e-8
        assert abs(rep.derivative - math.exp(-math.pi)) <= 1e-10
        rho1, deriv = compactified_return_map(SPIRAL, 0.05)
        want = math.exp(-math.pi)
        assert abs(deriv - want) / want <= 1e-3
        # attractor consistency: the return map contracts near the equator
        for rho0 in (0.05, 0.1):
            r1, _ = compactified_return_map(SPIRAL, rho0)
            assert r1 < rho0
    _verdict(capfd, 3, "equator integral worked chain", body)


def test_criterion_4_endpoint_product(capfd):
    def body():
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            Z = _random_field(rng, m)
            swapped = piecewise(Z.Y, Z.X)
            a, b = eq4_value(Z), eq4_value(swapped)
            assert abs(a + b) <= 1e-12 * max(1.0, abs(a))
            same = piecewise(Z.X, Z.X)
            assert eq4_value(same) == 0.0
        assert abs(eq4_value(SPIRAL) - 1.0) <= 1e-12
        z2 = piecewise(vf({(1, 0): 1.0}, {(0, 1): 1.0}), ROT)
        assert abs(eq4_value(z2) - 1.0) <= 1e-12
    _verdict(capfd, 4, "equator endpoint product suite", body)


def test_criterion_5_regularization(capfd):
    def body():
        phi = make_transition("smoothstep", 1)
        eps_list = [0.2, 0.1, 0.05, 0.025]
        # (a) D-regular and fold examples: no emergent singularities
        d_regular = piecewise(vf({(0, 0): 1.0}, {(0, 0): -1.0}),
                              vf({(0, 0): 1.0}, {(0, 0): 1.0}))
        fold = piecewise(vf({(0, 0): 1.0}, {(1, 0): 1.0}),
                         vf({}, {(0, 0): 1.0}))
        for Z in (d_regular, fold):
            for row in epsilon_sweep(Z, phi, (-2.0, 2.0), eps_list):
                assert row.singularities == []
        # (b) the Filippov-saddle example: one Saddle per epsilon,
        # converging to x = -1
        saddle = piecewise(vf({(1, 0): 1.0}, {(0, 0): -1.0}),
                           vf({(0, 0): 1.0}, {(0, 0): 1.0}))
        errs = []
        for row in epsilon_sweep(saddle, phi, (-2.0, 0.0), eps_list):
            assert len(row.singularities) == 1
            s = row.singularities[0]
            assert s.type is SingularityType.SADDLE
            errs.append(abs(s.position[0] + 1.0))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        # (c) cycle inheritance: genuinely two-sided field whose pieces
        # are positive multiples of each other, then the continuous case
        two_sided = piecewise(UNIT_CYCLE, vf(UNIT_CYCLE.P.scale(2.0).coeffs,
                                             UNIT_CYCLE.Q.scale(2.0).coeffs))
        cycles = regularized_cycle_search(two_sided, phi, 0.05, 0.0,
                                          (0.4, 1.6))
        assert len(cycles) == 1
        assert cycles[0].hyperbolic
        assert cycles[0].return_derivative < 1.0
        continuous = piecewise(UNIT_CYCLE, UNIT_CYCLE)
        cycles = regularized_cycle_search(continuous, phi, 0.05, 0.0,
                                          (0.4, 1.6))
        assert len(cycles) == 1
        want = math.exp(-4 * math.pi)
        assert abs(cycles[0].return_derivative - want) / want <= 1e-3
    _verdict(capfd, 5, "regularization propositions", body)


def test_criterion_6_transition_derivative(capfd):
    def body():
        e = math.e
        # closed form: radial linear field, divergence 2
        radial = vf({(1, 0): 1.0}, {(0, 1): 1.0})
        sec0 = Section((1.0, 0.0), (0.0, 1.0), (-1.0, 1.0))
        sec1 = Section((e, 0.0), (0.0, 1.0), (-1.0, 1.0))
        d = transition_derivative(radial, (1.0, 0.0), (e, 0.0),
                                  sec0, sec1, 1.0)
        assert abs(d - e) / e <= 1e-4
        # rotation half turn between radial sections
        sec0 = Section((1.0, 0.0), (1.0, 0.0), (0.5, 1.5))
        sec1 = Section((-1.0, 0.0), (-1.0, 0.0), (0.5, 1.5))
        d = transition_derivative(ROT, (1.0, 0.0), (-1.0, 0.0),
                                  sec0, sec1, math.pi)
        assert abs(d - 1.0) <= 1e-4
        # finite-difference cross-check on a drifting shear
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
        d = transition_derivative(X, p0, tr.states[-1], sec0, sec1,
                                  float(tr.ts[-1]))
        h = 1e-5
        fd = (hit_param(h) - hit_param(-h)) / (2 * h)
        assert abs(d - fd) / abs(fd) <= 1e-4
    _verdict(capfd, 6, "transition-map derivative", body)


def test_criterion_7_report_regression(capfd):
    def body():
        # violated: the origin tangency of both pieces is degenerate
        rep = check_gm(SPIRAL)
        assert rep.overall == "Violated"
        assert any(w["kind"] == "non_elementary_d_point"
                   and abs(w["x"]) < 1e-9 for w in rep.gm1.witnesses)
        # undetermined: constant field, degenerate analysis at infinity
        const = piecewise(vf({(0, 0): 1.0}, {(0, 0): 1.0}),
                          vf({(0, 0): 1.0}, {(0, 0): 1.0}))
        rep2 = check_gm(const)
        assert rep2.infinity_status == "Undetermined"
        assert rep2.gm1.status == "Undetermined"
        assert not any(w["kind"] == "non_elementary_d_point"
                       for w in rep2.gm1.witnesses)
        assert rep2.interior_x == [] and rep2.interior_y == []
        # satisfied census: the cycle census certifies the unit circle
        cyc = piecewise(UNIT_CYCLE, UNIT_CYCLE)
        rep3 = check_gm(cyc)
        assert rep3.gm2.status == "Satisfied"
        assert len(rep3.cycles) == 1 and rep3.cycles[0].elementary == "yes"
        # byte stability
        for Z in (SPIRAL, const):
            a = json.dumps(check_gm(Z).to_json_dict(), sort_keys=True)
            b = json.dumps(check_gm(Z).to_json_dict(), sort_keys=True)
            assert a == b
    _verdict(capfd, 7, "stability report regression", body)


def test_criterion_8_genericity_repair(capfd):
    def body():
        Z = piecewise(ROT, ROT)
        rep = check_gm(Z)
        pert, Z2, _ = genericity_repair(Z, rep)
        assert isinstance(pert, RadialOdd)
        assert pert.epsilon == 1e-3 and pert.k == 0
        s1 = s1_elementarity(Z2)
        assert s1.status is S1Status.ELEMENTARY
        assert abs(s1.mu - 1e-3 * math.pi) <= 1e-10
        # rotation round trip restores all coefficients
        rng = np.random.default_rng(9)
        P = {(i, j): float(rng.uniform(-1, 1))
             for i in range(3) for j in range(3 - i)}
        Q = {(i, j): float(rng.uniform(-1, 1))
             for i in range(3) for j in range(3 - i)}
        W = piecewise(vf(P, Q), vf(Q, P))
        sigma, v1, v2 = 1.1, -0.4, 0.25
        W1 = apply_perturbation(W, RotateTranslate(sigma, sigma, v1, v2))
        W2 = apply_perturbation(W1, RotateTranslate(-sigma, -sigma, 0, 0))
        W3 = apply_perturbation(W2, RotateTranslate(0, 0, -v1, -v2))
        for a, b in ((W3.X.P, W.X.P), (W3.X.Q, W.X.Q),
                     (W3.Y.P, W.Y.P), (W3.Y.Q, W.Y.Q)):
            keys = set(a.coeffs) | set(b.coeffs)
            assert all(abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0))
                       <= 1e-12 for k in keys)
    _verdict(capfd, 8, "genericity repair", body)


SPIRAL_TEXT = """\
degree 1
P1:
0 1 -1
1 0 1
Q1:
0 1 1
1 0 1
P2:
0 1 -1
Q2:
1 0 1
"""

CONST_TEXT = """\
degree 0
P1:
0 0 1
Q1:
0 0 1
P2:
0 0 1
Q2:
0 0 1
"""

# X = (x-y, x+y+1), Y = (-y+1, x+2): every certificate passes, so with
# optimistic semi-decisions the report is Satisfied end to end
CLEAN_TEXT = """\
degree 1
P1:
0 1 -1
1 0 1
Q1:
0 0 1
0 1 1
1 0 1
P2:
0 0 1
0 1 -1
Q2:
0 0 2
1 0 1
"""


def test_criterion_9_cli_contract(capfd, tmp_path):
    def body():
        # round trips through both encodings
        for text in (SPIRAL_TEXT, CONST_TEXT, CLEAN_TEXT):
            spec = fieldspec.parse(text)
            assert fieldspec.parse(fieldspec.serialize_text(spec)) == spec
            assert fieldspec.parse(fieldspec.serialize_json(spec)) == spec
        # exit codes track the overall report status
        cases = [(SPIRAL_TEXT, [], 1, "Violated"),
                 (CONST_TEXT, [], 2, "Undetermined"),
                 (CLEAN_TEXT, ["--optimistic"], 0, "Satisfied")]
        for k, (text, extra, want_code, want_status) in enumerate(cases):
            path = tmp_path / f"spec{k}.txt"
            path.write_text(text)
            out = tmp_path / f"report{k}.json"
            code = cli.main(["analyze", str(path), "--out", str(out)] + extra)
            assert code == want_code, (want_status, code)
            report = json.loads(out.read_text())
            assert report["overall"] == want_status
            # determinism: identical invocation, identical bytes
            out2 = tmp_path / f"report{k}b.json"
            cli.main(["analyze", str(path), "--out", str(out2)] + extra)
            assert out.read_bytes() == out2.read_bytes()
        # malformed input
        bad = tmp_path / "bad.txt"
        bad.write_text(SPIRAL_TEXT.replace("degree 1", "degree 0"))
        assert cli.main(["analyze", str(bad)]) == 3
    _verdict(capfd, 9, "CLI contract", body)
