import math

import numpy as np
import pytest

from filippov.polys import piecewise, vf
from filippov.regularize import (
    EmergentSingularity,
    RegularizedField,
    SingularityType,
    TransitionFunction,
    _classify_eigs,
    _newton,
    emergent_singularities,
    epsilon_sweep,
    make_transition,
    regularized_cycle_search,
)
from filippov.errors import BadParameter
from filippov.tolerances import default_tols


def test_smoothstep1_values():
    phi = make_transition("smoothstep", 1)
    assert phi(-1.0) == 0.0
    assert phi(1.0) == 1.0
    assert abs(phi(0.0) - 0.5) < 1e-14
    # closed form (2 + 3t - t^3)/4 on the transition band
    for t in np.linspace(-1, 1, 41):
        assert abs(phi(t) - (2 + 3 * t - t ** 3) / 4) < 1e-12


def test_clamping_outside_band():
    phi = make_transition("smoothstep", 2)
    assert phi(-3.7) == 0.0
    assert phi(10.0) == 1.0
    assert phi.derivative(2.0) == 0.0


def test_monotone_and_midpoint_all_families():
    for fam, par in [("smoothstep", 1), ("smoothstep", 3),
                     ("smoothstep", 5), ("bump", None)]:
        phi = make_transition(fam, par) if par else make_transition(fam)
        ts = np.linspace(-1, 1, 101)
        vals = np.array([phi(t) for t in ts])
        assert np.all(np.diff(vals) >= -1e-13)
        assert abs(phi(0.0) - 0.5) < 1e-10
        assert abs(vals[0]) < 1e-12 and abs(vals[-1] - 1.0) < 1e-12


def test_bad_family_raises():
    with pytest.raises(BadParameter):
        make_transition("sigmoid")
    with pytest.raises(BadParameter):
        make_transition("smoothstep", 0)


def test_exact_bands_and_midpoint_average():
    Z = piecewise(vf({(0, 0): 1.0}, {(0, 0): -1.0}), vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    phi = make_transition("smoothstep", 1)
    R = RegularizedField(Z, phi, 1.0)
    # outside the band the pieces are returned exactly
    assert R(3.0, 2.0) == (1.0, -1.0)
    assert R(3.0, -2.0) == (1.0, 1.0)
    assert R(3.0, 5.0) == (1.0, -1.0)
    # on y=0 the field is the plain average
    vx, vy = R(0.0, 0.0)
    assert abs(vx - 1.0) < 1e-14 and abs(vy) < 1e-14


def test_convex_combination_bound():
    rng = np.random.default_rng(7)
    Z = piecewise(vf({(1, 0): 1.0, (0, 1): -1.0}, {(1, 1): 1.0, (0, 0): -1.0}), vf({(0, 0): 2.0, (0, 1): 1.0}, {(1, 0): 1.0, (0, 1): 1.0}))
    phi = make_transition("bump")
    R = RegularizedField(Z, phi, 0.3)
    for _ in range(300):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-0.3, 0.3)
        vx, vy = R(x, y)
        ax, ay = Z.X(x, y)
        bx, by = Z.Y(x, y)
        assert min(ax, bx) - 1e-12 <= vx <= max(ax, bx) + 1e-12
        assert min(ay, by) - 1e-12 <= vy <= max(ay, by) + 1e-12


def test_emergent_saddle_from_fz_saddle():
    # X=(x,-1), Y=(1,1): sliding on x<0 with F_Z singularity at x=-1
    Z = piecewise(vf({(1, 0): 1.0}, {(0, 0): -1.0}), vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    phi = make_transition("smoothstep", 1)
    R = RegularizedField(Z, phi, 0.1)
    sings = emergent_singularities(R, (-2.0, 0.0))
    assert len(sings) == 1
    s = sings[0]
    assert s.type is SingularityType.SADDLE
    assert math.hypot(s.position[0] + 1.0, s.position[1]) < 0.1
    # residual really is small
    vx, vy = R(*s.position)
    assert math.hypot(vx, vy) < 1e-9


def test_no_singularity_when_d_is_regular():
    Z = piecewise(vf({(0, 0): 1.0}, {(0, 0): -1.0}), vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    phi = make_transition("smoothstep", 1)
    R = RegularizedField(Z, phi, 0.1)
    assert emergent_singularities(R, (-2.0, 2.0)) == []


def test_fold_produces_no_emergent_singularity():
    Z = piecewise(vf({(0, 0): 1.0}, {(1, 0): 1.0}), vf({}, {(0, 0): 1.0}))
    phi = make_transition("smoothstep", 2)
    R = RegularizedField(Z, phi, 0.05)
    assert emergent_singularities(R, (-1.0, 1.0)) == []


def test_epsilon_sweep_converges_to_fz_singularity():
    Z = piecewise(vf({(1, 0): 1.0}, {(0, 0): -1.0}), vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    phi = make_transition("smoothstep", 1)
    rows = epsilon_sweep(Z, phi, (-2.0, 0.0), [0.2, 0.1, 0.05, 0.025])
    errs = []
    for row in rows:
        assert len(row.singularities) == 1
        errs.append(abs(row.singularities[0].position[0] + 1.0))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.05


def test_epsilon_sweep_rejects_bad_lists():
    Z = piecewise(vf({(1, 0): 1.0}, {(0, 0): -1.0}), vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    phi = make_transition("smoothstep", 1)
    with pytest.raises(ValueError):
        epsilon_sweep(Z, phi, (-2.0, 0.0), [0.1, 0.2])
    with pytest.raises(ValueError):
        epsilon_sweep(Z, phi, (-2.0, 0.0), [0.1, -0.2])


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_epsilon_rejected(eps):
    Z = piecewise(vf({(1, 0): 1.0}, {(0, 0): -1.0}), vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    phi = make_transition("smoothstep", 1)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        RegularizedField(Z, phi, eps)
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        epsilon_sweep(Z, phi, (-2.0, 0.0), [eps])


SADDLE = piecewise(vf({(1, 0): 1.0}, {(0, 0): -1.0}),
                   vf({(0, 0): 1.0}, {(0, 0): 1.0}))
FOLD = piecewise(vf({(0, 0): 1.0}, {(1, 0): 1.0}), vf({}, {(0, 0): 1.0}))
CUBIC = piecewise(
    vf({(1, 0): 1.0, (3, 0): -0.1, (1, 2): 0.05},
       {(0, 0): 1.0, (0, 1): -1.0, (0, 3): 0.1, (2, 1): 0.05}),
    vf({(0, 1): -1.0, (3, 0): 0.2}, {(0, 0): 0.3, (1, 0): 1.0, (0, 3): -0.2}))


def _reference_census(R, x_window, tols):
    """The census as a scalar double loop: one field call per grid point
    and one Python cell check per cell."""
    eps = R.epsilon
    step = eps / 20.0
    xs = np.arange(x_window[0], x_window[1] + step, step)
    ys = np.arange(-eps, eps + step / 2, step)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    U = np.empty_like(XX)
    V = np.empty_like(XX)
    for i in range(XX.shape[0]):
        for j in range(XX.shape[1]):
            U[i, j], V[i, j] = R(XX[i, j], YY[i, j])

    def varies(W, i, j):
        c = W[i:i + 2, j:j + 2]
        return c.min() <= 0.0 <= c.max()

    found = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            if varies(U, i, j) and varies(V, i, j):
                sol = _newton(R, XX[i, j] + step / 2, YY[i, j] + step / 2, tols)
                if sol is None:
                    continue
                x, y = sol
                if not (x_window[0] - step <= x <= x_window[1] + step
                        and abs(y) <= eps + step):
                    continue
                if any(math.hypot(x - a, y - b) <= 10 * tols.root
                       for a, b in found):
                    continue
                found.append((x, y))
    out = []
    h = 1e-6 * max(1.0, eps)
    for x, y in sorted(found):
        j = R.jacobian_fd(x, y, h)
        eigs = np.linalg.eigvals(j)
        out.append(EmergentSingularity(
            (x, y), j, (complex(eigs[0]), complex(eigs[1])),
            _classify_eigs(eigs, tols.sign)))
    return out


@pytest.mark.parametrize("Z, window, eps_list", [
    (SADDLE, (-2.0, 0.0), (0.2, 0.05)),
    (FOLD, (-2.0, 2.0), (0.1, 0.025)),
    (CUBIC, (-3.0, 3.0), (0.2, 0.1)),
], ids=["saddle", "fold", "cubic"])
@pytest.mark.parametrize("family, par", [
    ("smoothstep", 1), ("smoothstep", 2), ("bump", 0)])
def test_census_matches_scalar_reference(Z, window, eps_list, family, par):
    # the grid sums are not fsum, so a cell on a sign boundary may seed
    # differently; a zero then differs by at most the merge radius
    tols = default_tols()
    phi = make_transition(family, par)
    for eps in eps_list:
        R = RegularizedField(Z, phi, eps)
        got = emergent_singularities(R, window, tols)
        want = _reference_census(R, window, tols)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert math.dist(g.position, w.position) <= 10 * tols.root
            assert g.type is w.type
            assert np.allclose(g.eigenvalues, w.eigenvalues, rtol=1e-6, atol=1e-6)


def _count_calls(monkeypatch, cls):
    calls = [0]
    original = cls.__call__

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)
    monkeypatch.setattr(cls, "__call__", counted)
    return calls


def test_census_work_counters(monkeypatch):
    # parent of the numpy census: 67,782 field calls on the saddle and
    # 124,878 phi calls on the fold
    field_calls = _count_calls(monkeypatch, RegularizedField)
    phi_calls = _count_calls(monkeypatch, TransitionFunction)
    phi = make_transition("smoothstep", 1)
    assert len(emergent_singularities(
        RegularizedField(SADDLE, phi, 0.025), (-2.0, 0.0))) == 1
    assert field_calls[0] <= 5000
    phi_calls[0] = 0
    assert emergent_singularities(
        RegularizedField(FOLD, phi, 0.025), (-2.0, 2.0)) == []
    assert phi_calls[0] <= 50


def test_regularized_cycle_inherits_from_crossing_cycle():
    # both pieces equal the same field with an attracting unit cycle:
    # rdot = r(1 - r^2), so the return derivative tends to exp(-4*pi)
    X = vf({(1, 0): 1.0, (0, 1): -1.0, (3, 0): -1.0, (1, 2): -1.0}, {(1, 0): 1.0, (0, 1): 1.0, (2, 1): -1.0, (0, 3): -1.0})
    Z = piecewise(X, X)
    phi = make_transition("smoothstep", 1)
    cycles = regularized_cycle_search(Z, phi, 0.05, 0.0, (0.4, 1.6))
    assert len(cycles) == 1
    c = cycles[0]
    assert abs(c.section_value - 1.0) < 1e-6
    assert c.hyperbolic
    assert abs(c.return_derivative - math.exp(-4 * math.pi)) < 1e-4


def test_regularized_two_sided_cycle_derivative_exact():
    # R = (2 - w) UC has the orbits of UC, so the derivative of its return
    # map at the unit cycle is exp(-4 pi) exactly
    X = vf({(1, 0): 1.0, (0, 1): -1.0, (3, 0): -1.0, (1, 2): -1.0}, {(1, 0): 1.0, (0, 1): 1.0, (2, 1): -1.0, (0, 3): -1.0})
    Z = piecewise(X, vf(X.P.scale(2.0).coeffs, X.Q.scale(2.0).coeffs))
    phi = make_transition("smoothstep", 1)
    cycles = regularized_cycle_search(Z, phi, 0.05, 0.0, (0.4, 1.6))
    assert len(cycles) == 1
    want = math.exp(-4 * math.pi)
    assert abs(cycles[0].return_derivative - want) <= 1e-6 * want
