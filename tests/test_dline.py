import pickle

import numpy as np
import pytest

from filippov import dline
from filippov.dline import (
    DArc,
    PointTag,
    SingKind,
    classify_point,
    det_xy,
    filippov_field,
    filippov_lambda,
    fold_points,
    fz_singularities,
    second_lie_derivative,
    segment_d,
)
from filippov.errors import NotOnSlidingOrEscaping
from filippov.polys import piecewise, poly, vf
from filippov.stability import check_gm
from filippov.work import WORK, since


def Z_of(P1, Q1, P2, Q2):
    return piecewise(vf(P1, Q1), vf(P2, Q2))


ONE = {(0, 0): 1.0}
X_MONO = {(1, 0): 1.0}
Y_MONO = {(0, 1): 1.0}


def test_second_lie_derivative():
    # X = (1, x): X(Xf) = 1
    assert second_lie_derivative(vf(ONE, X_MONO)).coeffs == {(0, 0): 1.0}
    # X = (0, c)
    assert second_lie_derivative(vf({}, {(0, 0): 2.5})).coeffs == {}
    # X = (1, x^2): 2x, cusp at 0
    assert second_lie_derivative(vf(ONE, {(2, 0): 1.0})).coeffs == {(1, 0): 2.0}


def test_classify_basic():
    assert classify_point(Z_of(ONE, ONE, ONE, ONE), 0.3).tag is PointTag.SEWING
    z = Z_of(ONE, {(0, 0): -1.0}, ONE, ONE)
    assert classify_point(z, -1.7).tag is PointTag.SLIDING
    z2 = Z_of(ONE, ONE, ONE, {(0, 0): -1.0})
    assert classify_point(z2, 5.0).tag is PointTag.ESCAPING


def test_segment_sliding_sewing():
    # X=(1,x), Y=(1,1) on [-2,2]: sliding on (-2,0), sewing on (0,2)
    z = Z_of(ONE, X_MONO, ONE, ONE)
    arcs = segment_d(z, (-2, 2))
    assert [a.tag for a in arcs] == [PointTag.SLIDING, PointTag.SEWING]
    assert arcs[0].interval[1] == pytest.approx(0.0, abs=1e-9)


def test_segment_single_sewing():
    z = Z_of(ONE, ONE, ONE, ONE)
    arcs = segment_d(z, (-3, 3))
    assert len(arcs) == 1
    assert arcs[0].tag is PointTag.SEWING
    assert arcs[0].interval == (-3, 3)


def test_segment_three_arcs():
    # X=(1, x^2-1), Y=(1,1): sewing, sliding, sewing
    z = Z_of(ONE, {(2, 0): 1.0, (0, 0): -1.0}, ONE, ONE)
    arcs = segment_d(z, (-2, 2))
    assert [a.tag for a in arcs] == [
        PointTag.SEWING,
        PointTag.SLIDING,
        PointTag.SEWING,
    ]
    assert arcs[1].interval[0] == pytest.approx(-1.0, abs=1e-9)
    assert arcs[1].interval[1] == pytest.approx(1.0, abs=1e-9)


def test_filippov_field_values():
    z = Z_of(ONE, {(0, 0): -1.0}, ONE, ONE)
    assert filippov_field(z, 0.7) == (1.0, 0.0)
    assert filippov_lambda(z, 0.7) == pytest.approx(0.5)
    z2 = Z_of({(0, 0): 2.0}, {(0, 0): -1.0}, {}, ONE)
    assert filippov_field(z2, -3.0) == (1.0, 0.0)


def test_filippov_field_rejects_sewing():
    z = Z_of(ONE, ONE, ONE, ONE)
    with pytest.raises(NotOnSlidingOrEscaping):
        filippov_field(z, 0.0)


def test_fz_saddle():
    # X=(x,-1), Y=(1,1): det = x+1, saddle at -1 on sliding
    z = Z_of(X_MONO, {(0, 0): -1.0}, ONE, ONE)
    sings = fz_singularities(z, (-3, 3))
    assert len(sings) == 1
    assert sings[0].kind is SingKind.FZ_SADDLE
    assert sings[0].x == pytest.approx(-1.0, abs=1e-9)


def test_fz_node():
    # X=(-x,-1), Y=(1,1): det = 1-x... -x*1 - (-1)*1 = 1-x, root 1, d/dx=-1<0 on SL
    z = Z_of({(1, 0): -1.0}, {(0, 0): -1.0}, ONE, ONE)
    sings = fz_singularities(z, (-3, 3))
    assert len(sings) == 1
    assert sings[0].kind is SingKind.FZ_NODE
    assert sings[0].x == pytest.approx(1.0, abs=1e-9)


def test_fz_no_singularity():
    z = Z_of(ONE, {(0, 0): -1.0}, ONE, ONE)  # det = 2 everywhere
    assert fz_singularities(z, (-5, 5)) == []


def test_fz_det_zero_on_d_gives_one_witness_per_arc():
    # X = (1, 1), Y = (-1, -1): escaping everywhere and det = 0, so every
    # point of the arc is F_Z-singular; its midpoint is the witness
    z = Z_of(ONE, ONE, {(0, 0): -1.0}, {(0, 0): -1.0})
    assert [a.tag for a in segment_d(z, (-2, 2))] == [PointTag.ESCAPING]
    sings = fz_singularities(z, (-2, 2))
    assert [(s.x, s.kind) for s in sings] == [(0.0, SingKind.NON_ELEMENTARY)]
    assert sings[0].certificates == {"det": 0.0, "ddet": 0.0}


def test_fz_double_det_root_is_non_elementary():
    # X = (x^2, -1), Y = (0, 1): sliding everywhere, det = x^2
    z = Z_of({(2, 0): 1.0}, {(0, 0): -1.0}, {}, ONE)
    sings = fz_singularities(z, (-2, 2))
    assert len(sings) == 1
    assert sings[0].kind is SingKind.NON_ELEMENTARY
    assert sings[0].x == pytest.approx(0.0, abs=1e-9)


def test_fold_x():
    z = Z_of(ONE, X_MONO, {}, ONE)  # X=(1,x), Y=(0,1)
    folds = fold_points(z, (-1, 1))
    assert len(folds) == 1
    assert folds[0].kind is SingKind.FOLD_X
    assert folds[0].x == pytest.approx(0.0, abs=1e-9)


def test_cusp_not_fold():
    z = Z_of(ONE, {(2, 0): 1.0}, {}, ONE)  # X=(1,x^2): cusp at 0
    folds = fold_points(z, (-1, 1))
    assert len(folds) == 1
    assert folds[0].kind is SingKind.NON_ELEMENTARY


def test_no_folds():
    z = Z_of(ONE, ONE, ONE, ONE)
    assert fold_points(z, (-2, 2)) == []


def _random_field(rng, m):
    def coeffs():
        return {
            (i, j): float(rng.uniform(-2, 2))
            for i in range(m + 1)
            for j in range(m + 1 - i)
        }

    return piecewise(vf(coeffs(), coeffs(), m=m), vf(coeffs(), coeffs(), m=m))


def test_filippov_tangency_property():
    # random sliding/escaping samples: second component exactly 0, lambda in (0,1)
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        z = _random_field(rng, int(rng.integers(1, 5)))
        x = float(rng.uniform(-3, 3))
        tag = classify_point(z, x).tag
        if tag not in (PointTag.SLIDING, PointTag.ESCAPING):
            continue
        fz = filippov_field(z, x)
        lam = filippov_lambda(z, x)
        assert fz[1] == 0.0
        assert 0.0 < lam < 1.0
        # cone-consistency: (Yf*X - Xf*Y)/(Yf-Xf) first component
        xf, yf = z.X.Q(x, 0.0), z.Y.Q(x, 0.0)
        alt = (yf * z.X.P(x, 0.0) - xf * z.Y.P(x, 0.0)) / (yf - xf)
        assert fz[0] == pytest.approx(alt, rel=1e-12, abs=1e-12)
        checked += 1


def test_det_numerator_identity():
    # Yf*P1 - Xf*P2 = det[X,Y] on D
    rng = np.random.default_rng(99)
    for _ in range(200):
        z = _random_field(rng, int(rng.integers(1, 5)))
        x = float(rng.uniform(-3, 3))
        xf, yf = z.X.Q(x, 0.0), z.Y.Q(x, 0.0)
        lhs = yf * z.X.P(x, 0.0) - xf * z.Y.P(x, 0.0)
        rhs = det_xy(z)(x, 0.0)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_arc_partition_and_stability():
    rng = np.random.default_rng(5)
    window = (-3.0, 3.0)
    for _ in range(30):
        z = _random_field(rng, int(rng.integers(1, 4)))
        arcs = segment_d(z, window)
        assert arcs[0].interval[0] == window[0]
        assert arcs[-1].interval[1] == window[1]
        for a, b in zip(arcs, arcs[1:]):
            assert a.interval[1] == pytest.approx(b.interval[0], abs=1e-8)
        for arc in arcs:
            lo, hi = arc.interval
            pad = (hi - lo) * 1e-3
            for x in np.linspace(lo + pad, hi - pad, 25):
                assert classify_point(z, float(x)).tag is arc.tag


# Q_X(x, 0) = x^2 - 1 and Q_Y(x, 0) = x (x - 0.5): folds of X at -1 and 1,
# of Y at 0 and 0.5
FOLDS = Z_of({(0, 0): 1.0, (1, 1): 0.5}, {(2, 0): 1.0, (0, 0): -1.0,
                                          (0, 1): 0.3},
             {(0, 0): -1.0}, {(2, 0): 1.0, (1, 0): -0.5, (1, 1): 2.0})


def test_second_fold_points_asks_for_no_roots():
    before = dict(WORK)
    first = fold_points(FOLDS, (-3.0, 3.0))
    # Q_X(x, 0) and Q_Y(x, 0)
    assert since(before)["root_isolations"] == 2
    assert [s.x for s in first] == pytest.approx([-1.0, 0.0, 0.5, 1.0],
                                                 abs=1e-12)
    assert fold_points(FOLDS, (-3.0, 3.0)) == first
    segment_d(FOLDS, (-3.0, 3.0))
    assert since(before)["root_isolations"] == 2
    # another window asks again
    assert [s.x for s in fold_points(FOLDS, (-0.8, 3.0))] == \
        pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
    assert since(before)["root_isolations"] == 4


def test_second_fold_points_tests_no_point(monkeypatch):
    # FOLDS' coefficients on a field of its own, whose caches are empty
    Z = Z_of({(0, 0): 1.0, (1, 1): 0.5}, {(2, 0): 1.0, (0, 0): -1.0,
                                          (0, 1): 0.3},
             {(0, 0): -1.0}, {(2, 0): 1.0, (1, 0): -0.5, (1, 1): 2.0})
    window = (-3.0, 3.0)
    folds = fold_points(Z, window)
    assert len(folds) == 4
    calls = []

    def counted(*args, original=dline.fold_test):
        calls.append(args[2])
        return original(*args)
    monkeypatch.setattr(dline, "fold_test", counted)
    assert fold_points(Z, window) == folds
    assert calls == []
    # another window computes afresh
    assert len(fold_points(Z, (-0.8, 3.0))) == 3
    assert len(calls) == 3


def test_field_pickled_after_check_gm_carries_no_cached_roots():
    Z = Z_of({(0, 0): 1.0, (1, 1): 0.5}, {(2, 0): 1.0, (0, 0): -1.0},
             {(0, 0): -1.0}, {(2, 0): 1.0, (1, 0): -0.5})
    check_gm(Z)
    assert "_roots" in vars(Z.X.Q) and "_roots" in vars(Z.Y.Q)
    clone = pickle.loads(pickle.dumps(Z))
    assert clone == Z
    assert "_roots" not in vars(clone.X.Q) and "_roots" not in vars(clone.Y.Q)
    assert fold_points(clone, (-3.0, 3.0)) == fold_points(Z, (-3.0, 3.0))
