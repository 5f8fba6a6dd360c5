"""Structural-stability report for piecewise polynomial fields.

Assembles per-condition certificates: interior hyperbolicity on each open
half-plane (the common zeros of each piece, by the resultant in y and
Newton polish), elementarity of every discontinuity-line singularity,
hyperbolicity at infinity, elementarity of closed poly-trajectories
(including the equator), and absence of saddle connections.  Also houses
the coefficient-level perturbation operators used to repair the two
violation kinds with explicit formulas (degenerate equator-endpoint
product and vanishing equator integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import compactify, dline, flow
from .compactify import Hyperbolicity, S1Status
from .errors import (
    CommonFactor,
    DegenerateTopCoefficient,
    DegreeMismatch,
    IdenticallyZeroOnD,
    NoConvergence,
    NotRepairable,
)
from .polys import (
    BivariatePolynomial,
    PiecewiseField,
    PolyVectorField,
    common_zero_seeds,
    default_window,
    newton_zero,
    poly,
)
from .tolerances import Tolerances, default_tols

SATISFIED = "Satisfied"
VIOLATED = "Violated"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class InteriorSingularity:
    point: tuple[float, float]
    eigenvalues: tuple[complex, complex]
    hyperbolic: str  # "yes", "no", "borderline", or "unverified" when
                     # Newton failed from this seed

    @property
    def is_saddle(self) -> bool:
        a, b = self.eigenvalues
        return self.hyperbolic != "unverified" and a.real * b.real < 0


def interior_singularities(X: PolyVectorField, region: str,
                           window: tuple[float, float, float, float],
                           tols: Tolerances | None = None
                           ) -> list[InteriorSingularity]:
    """Common zeros of (P, Q) in the open half-plane (region 'N': y>0,
    'S': y<0) of the window, by elimination of y.

    P and Q are first scaled to unit largest coefficient, so the zero
    tests and the Newton residual below do not depend on the field's
    scale.  The abscissa of a common zero is a real root of the resultant
    Res_y(P, Q), its ordinate a real root of P(x, .) or Q(x, .) there
    (polys.common_zero_seeds).  Each such pair only seeds a damped Newton
    run with the exact Jacobian, and the Newton iterate is what is
    reported, if it lies in the window and the region; a seed at which P
    and Q vanish to tols.close but whose run fails is reported as it
    stands, with hyperbolic 'unverified'.  Raises
    CommonFactor when P and Q share a factor: the resultant vanishes, or
    both P(x, .) and Q(x, .) do at one of its roots.
    """
    tols = tols or default_tols()
    x0, x1, y0, y1 = window
    if region == "N":
        y0 = max(y0, 0.0)
    elif region == "S":
        y1 = min(y1, 0.0)
    else:
        raise ValueError("region must be 'N' or 'S'")
    if y1 <= y0:
        return []
    U = PolyVectorField(
        *(p.scale(1 / max(map(abs, p.coeffs.values()), default=1.0))
          for p in (X.P, X.Q)), X.m)
    slack = tols.sign
    points = []  # (Newton failed, x, y)
    for xr, yr in common_zero_seeds(X.P, X.Q, (x0 - slack, x1 + slack),
                                    (y0 - slack, y1 + slack), tols):
        sol = newton_zero(U, U.jacobian_at, xr, yr, tols)
        if sol is None and max(map(abs, U(xr, yr))) > tols.close:
            continue  # not a common root of P(xr, .) and Q(xr, .)
        x, y = sol or (xr, yr)
        if x0 - slack <= x <= x1 + slack and y0 - slack <= y <= y1 + slack \
                and (y > tols.sign if region == "N" else y < -tols.sign):
            points.append((sol is None, x, y))
    kept: list[tuple[bool, float, float]] = []
    for p in sorted(points):  # Newton's zeros first, then failed seeds
        if all(math.hypot(p[1] - q[1], p[2] - q[2]) > 10 * tols.root
               for q in kept):
            kept.append(p)
    out = []
    for failed, x, y in sorted(kept, key=lambda p: p[1:]):
        eigs = np.linalg.eigvals(X.jacobian_at(x, y))
        re = np.abs(np.real(eigs))
        if failed:
            hyp = "unverified"
        elif np.min(re) > tols.sign:
            hyp = "yes"
        elif np.min(re) > tols.sign / 10:
            hyp = "borderline"
        else:
            hyp = "no"
        out.append(InteriorSingularity((x, y),
                                       (complex(eigs[0]), complex(eigs[1])),
                                       hyp))
    return out


@dataclass
class ConditionEntry:
    status: str = SATISFIED
    witnesses: list[dict] = field(default_factory=list)

    def violate(self, witness: dict) -> None:
        self.status = VIOLATED
        self.witnesses.append(witness)

    def weaken(self, witness: dict | None = None) -> None:
        if self.status != VIOLATED:
            self.status = UNDETERMINED
        if witness is not None:
            self.witnesses.append(witness)


@dataclass
class StabilityReport:
    gm1: ConditionEntry
    gm2: ConditionEntry
    gm3: ConditionEntry
    interior_x: list[InteriorSingularity]
    interior_y: list[InteriorSingularity]
    d_arcs: list
    d_singularities: list
    fold_points: list
    infinity: list
    infinity_status: str
    s1: compactify.S1Report | None
    cycles: list
    connection_flags: list
    window: tuple[float, float, float, float]

    @property
    def overall(self) -> str:
        statuses = [self.gm1.status, self.gm2.status, self.gm3.status]
        if VIOLATED in statuses:
            return VIOLATED
        if UNDETERMINED in statuses:
            return UNDETERMINED
        return SATISFIED

    def to_json_dict(self) -> dict:
        def sing_row(s: InteriorSingularity) -> dict:
            return {
                "point": [s.point[0], s.point[1]],
                "eigenvalues": [[e.real, e.imag] for e in s.eigenvalues],
                "hyperbolic": s.hyperbolic,
            }

        def d_sing_row(s) -> dict:
            return {"x": s.x, "kind": s.kind.value,
                    "certificates": dict(s.certificates)}

        d = {
            "overall": self.overall,
            "conditions": {
                "interior_and_d": {"status": self.gm1.status,
                                   "witnesses": self.gm1.witnesses},
                "closed_trajectories": {"status": self.gm2.status,
                                        "witnesses": self.gm2.witnesses},
                "saddle_connections": {"status": self.gm3.status,
                                       "witnesses": self.gm3.witnesses},
            },
            "interior_singularities": {
                "upper": [sing_row(s) for s in self.interior_x],
                "lower": [sing_row(s) for s in self.interior_y],
            },
            "d_census": {
                "arcs": [{"interval": [a.interval[0], a.interval[1]],
                          "tag": a.tag.value} for a in self.d_arcs],
                "singularities": [d_sing_row(s) for s in self.d_singularities],
                "folds": [d_sing_row(s) for s in self.fold_points],
            },
            "infinity": {
                "status": self.infinity_status,
                "singularities": [
                    {"theta": s.theta, "field": s.field_tag,
                     "hyperbolic": s.hyperbolic.value,
                     "certificates": dict(s.certificates)}
                    for s in self.infinity],
            },
            "equator": None if self.s1 is None else {
                "status": self.s1.status.value,
                "mu": self.s1.mu,
                "sigma": self.s1.sigma,
                "derivative": self.s1.derivative,
            },
            "cycles": [{"closure": c.closure.value,
                        "elementary": c.elementary,
                        "certificate": dict(c.certificate)}
                       for c in self.cycles],
            "connection_flags": [list(f) for f in self.connection_flags],
            "window": list(self.window),
        }
        return d


@dataclass(frozen=True)
class GmOptions:
    window: tuple[float, float, float, float] | None = None
    optimistic: bool = False


def check_gm(Z: PiecewiseField, options: GmOptions | None = None,
             tols: Tolerances | None = None) -> StabilityReport:
    """Assemble the membership report for the structurally stable class:
    condition 1 (interior, D-line and infinity elementarity), condition 2
    (closed poly-trajectories including the equator), condition 3 (no
    saddle connections).  Finite censuses are decided up to numerics;
    trajectory and connection searches are semi-decisions reported
    Undetermined when clean, unless options.optimistic."""
    options = options or GmOptions()
    tols = tols or default_tols()
    window = options.window or default_window(Z)
    span = (window[0], window[1])

    gm1 = ConditionEntry()
    gm2 = ConditionEntry()
    gm3 = ConditionEntry()

    # interior singularities on both open half-planes
    interior: dict[str, list[InteriorSingularity]] = {}
    for label, side, region in (("upper", Z.X, "N"), ("lower", Z.Y, "S")):
        try:
            interior[label] = interior_singularities(side, region, window,
                                                     tols)
        except CommonFactor:
            interior[label] = []
            gm1.weaken({"kind": "interior_common_factor", "region": label})
        for s in interior[label]:
            point = [s.point[0], s.point[1]]
            if s.hyperbolic == "unverified":
                gm1.weaken({"kind": "interior_newton_failed",
                            "region": label, "point": point})
            elif s.hyperbolic != "yes":
                gm1.violate({"kind": "non_hyperbolic_interior",
                             "region": label, "point": point})
    interior_x, interior_y = interior["upper"], interior["lower"]

    # D-line census; where Q1 or Q2 vanishes on all of D it has no arcs
    try:
        arcs = dline.segment_d(Z, span, tols)
        d_sings = dline.fz_singularities(Z, span, tols)
        folds = dline.fold_points(Z, span, tols)
    except IdenticallyZeroOnD:
        arcs, d_sings, folds = [], [], []
        gm1.weaken({"kind": "tangency_component_zero_on_d"})
    for s in list(d_sings) + list(folds):
        if s.kind is dline.SingKind.NON_ELEMENTARY:
            gm1.violate({"kind": "non_elementary_d_point", "x": s.x})

    # infinity census and equator endpoint certificate
    infinity: list[compactify.InfinitySingularity] = []
    if Z.m % 2 == 0:
        infinity_status = UNDETERMINED
        gm1.weaken({"kind": "even_degree_infinity"})
    else:
        try:
            infinity = compactify.infinity_singularities(Z, tols)
            infinity_status = SATISFIED
            for s in infinity:
                if s.hyperbolic is Hyperbolicity.YES:
                    continue
                if s.field_tag == "FilippovPoint":
                    gm1.violate({"kind": "eq4_zero", "theta": s.theta})
                else:
                    infinity_status = VIOLATED
                    gm1.violate({"kind": "non_hyperbolic_at_infinity",
                                 "theta": s.theta, "field": s.field_tag})
        except DegenerateTopCoefficient:
            infinity_status = UNDETERMINED
            gm1.weaken({"kind": "degenerate_top_coefficient"})

    # equator elementarity
    s1 = None
    if Z.m % 2 == 1:
        try:
            s1 = compactify.s1_elementarity(Z, tols)
            if s1.status is S1Status.NON_ELEMENTARY:
                gm2.violate({"kind": "mu_zero", "mu": s1.mu})
        except NoConvergence:
            s1 = None
            gm2.weaken({"kind": "equator_undetermined"})

    # the nodes, foci and centers of X in N and Y in S: both semi-decisions
    # watch their rays and end their runs in the traps proved at them
    rays = {"X": [s.point for s in interior_x if not s.is_saddle],
            "Y": [s.point for s in interior_y if not s.is_saddle]}

    # closed poly-trajectory census (semi-decision)
    try:
        cycles = flow.find_closed_polytrajectories(Z, window, tols, rays)
    except IdenticallyZeroOnD:
        cycles = []
    bad = [c for c in cycles if c.elementary == "no"]
    if bad:
        for c in bad:
            gm2.violate({"kind": "non_elementary_cycle",
                         "certificate": dict(c.certificate)})
    elif cycles:
        pass  # found, all elementary: census stands as Satisfied
    elif gm2.status == SATISFIED and not options.optimistic:
        gm2.weaken({"kind": "cycle_census_empty",
                    "seeds": [float(x) for x in flow.DEFAULT_SEEDS]})

    # saddle-connection probe (semi-decision)
    flags: list[tuple[int, int]] = []
    saddles = [flow.SaddleSpec("X", s.point) for s in interior_x
               if s.is_saddle]
    saddles += [flow.SaddleSpec("Y", s.point) for s in interior_y
                if s.is_saddle]
    saddles += [flow.SaddleSpec("FZ", (s.x, 0.0)) for s in d_sings
                if s.kind is dline.SingKind.FZ_SADDLE]
    if saddles:
        rep = flow.probe_saddle_connections(Z, saddles, window, tols, rays)
        flags = rep.flagged
        if flags:
            for i, j in flags:
                gm3.violate({"kind": "possible_connection",
                             "branches": [rep.branches[i].label,
                                          rep.branches[j].label]})
        elif not options.optimistic:
            gm3.weaken({"kind": "connection_probe_clean",
                        "branches": len(rep.branches)})
        if rep.skipped:  # a branch not traced may hide a connection
            gm3.weaken({"kind": "connection_probe_skipped",
                        "branches": [list(b) for b in rep.skipped]})
    elif not options.optimistic:
        gm3.weaken({"kind": "no_saddles_to_probe"})

    return StabilityReport(gm1, gm2, gm3, interior_x, interior_y,
                           arcs, d_sings, folds, infinity, infinity_status,
                           s1, cycles, flags, window)


@dataclass(frozen=True)
class RotateTranslate:
    sigma1: float
    sigma2: float
    v1: float
    v2: float


@dataclass(frozen=True)
class AxisPowerX:
    epsilon: float
    target: str  # "X" or "Y"
    component: str  # "x" or "y"


@dataclass(frozen=True)
class RadialOdd:
    """epsilon r^(2k) (x, y) added to X."""

    epsilon: float
    k: int


Perturbation = RotateTranslate | AxisPowerX | RadialOdd


def _rotate_side(X: PolyVectorField, sigma: float, v1: float, v2: float
                 ) -> PolyVectorField:
    c, s = math.cos(sigma), math.sin(sigma)
    P = X.P + poly({(0, 0): v1})
    Q = X.Q + poly({(0, 0): v2})
    return PolyVectorField(P.scale(c) + Q.scale(-s),
                           P.scale(s) + Q.scale(c), X.m)


def apply_perturbation(Z: PiecewiseField, pert: Perturbation
                       ) -> PiecewiseField:
    if isinstance(pert, RotateTranslate):
        return PiecewiseField(
            _rotate_side(Z.X, pert.sigma1, pert.v1, pert.v2),
            _rotate_side(Z.Y, pert.sigma2, pert.v1, pert.v2), Z.m)
    if isinstance(pert, AxisPowerX):
        side = Z.X if pert.target == "X" else Z.Y
        bump = poly({(Z.m, 0): pert.epsilon})
        if pert.component == "x":
            side2 = PolyVectorField(side.P + bump, side.Q, side.m)
        else:
            side2 = PolyVectorField(side.P, side.Q + bump, side.m)
        if pert.target == "X":
            return PiecewiseField(side2, Z.Y, Z.m)
        return PiecewiseField(Z.X, side2, Z.m)
    if isinstance(pert, RadialOdd):
        if Z.m != 2 * pert.k + 1:
            raise DegreeMismatch(
                f"radial perturbation needs degree {2 * pert.k + 1}, "
                f"field has degree {Z.m}")
        r2k = poly({(0, 0): 1.0})
        r2 = poly({(2, 0): 1.0, (0, 2): 1.0})
        for _ in range(pert.k):
            r2k = r2k * r2
        X2 = PolyVectorField(
            Z.X.P + (r2k * poly({(1, 0): pert.epsilon})),
            Z.X.Q + (r2k * poly({(0, 1): pert.epsilon})), Z.X.m)
        return PiecewiseField(X2, Z.Y, Z.m)
    raise TypeError(f"unknown perturbation {pert!r}")


_EPS_SCHEDULE = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0]


def genericity_repair(Z: PiecewiseField, report: StabilityReport,
                      tols: Tolerances | None = None
                      ) -> tuple[Perturbation, PiecewiseField,
                                 StabilityReport]:
    """Repair the two violation kinds with explicit coefficient formulas:
    a zero equator-endpoint product gets an x^m bump on one component, a
    vanishing equator integral gets the odd radial perturbation.  The
    epsilon schedule is geometric; the first certificate that clears its
    tolerance wins."""
    tols = tols or default_tols()
    kinds = {w.get("kind") for e in (report.gm1, report.gm2, report.gm3)
             for w in e.witnesses}
    # the radial repair is tried first: it perturbs the whole top part and
    # clears a degenerate endpoint product as a side effect
    if "mu_zero" in kinds:
        if Z.m % 2 == 0:
            raise NotRepairable("radial repair needs odd degree")
        k = (Z.m - 1) // 2
        for eps in _EPS_SCHEDULE:
            pert = RadialOdd(eps, k)
            Z2 = apply_perturbation(Z, pert)
            try:
                s1 = compactify.s1_elementarity(Z2, tols)
            except NoConvergence:
                continue
            if s1.status is S1Status.ELEMENTARY:
                return pert, Z2, check_gm(Z2, GmOptions(
                    window=report.window), tols)
        raise NotRepairable("no radial perturbation cleared mu")
    if "eq4_zero" in kinds:
        for eps in _EPS_SCHEDULE:
            for target, component in (("X", "y"), ("X", "x"),
                                      ("Y", "y"), ("Y", "x")):
                pert = AxisPowerX(eps, target, component)
                Z2 = apply_perturbation(Z, pert)
                if abs(compactify.eq4_value(Z2)) > tols.sign:
                    return pert, Z2, check_gm(Z2, GmOptions(
                        window=report.window), tols)
        raise NotRepairable("no axis bump cleared the endpoint product")
    raise NotRepairable("no repairable violation kind in the report")
