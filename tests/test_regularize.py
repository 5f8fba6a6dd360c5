import math

import numpy as np
import pytest

from filippov.polys import piecewise, vf
from filippov.regularize import (
    RegularizedField,
    SingularityType,
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
