"""Classification of the discontinuity line D = {y=0}.

Sewing/sliding/escaping arcs, the Filippov sliding field, its singular
points with saddle/node typing, and fold points.  All certificates are
strict inequalities guarded by the sign tolerance: borderline values are
reported as tangency/non-elementary instead of being guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import IdenticallyZeroOnD, NotOnSlidingOrEscaping
from .polys import (
    BivariatePolynomial,
    PiecewiseField,
    PolyVectorField,
    _cached,
    partial,
    real_roots_on_line,
)
from .tolerances import Tolerances, default_tols


class PointTag(Enum):
    SEWING = "Sewing"
    SLIDING = "Sliding"
    ESCAPING = "Escaping"
    TANGENCY_X = "TangencyX"
    TANGENCY_Y = "TangencyY"
    TANGENCY_BOTH = "TangencyBoth"


class SingKind(Enum):
    FZ_SADDLE = "FzSaddle"
    FZ_NODE = "FzNode"
    FOLD_X = "FoldX"
    FOLD_Y = "FoldY"
    NON_ELEMENTARY = "NonElementary"


class EndpointKind(Enum):
    Q1_ROOT = "RootOfQ1"
    Q2_ROOT = "RootOfQ2"
    WINDOW = "WindowBoundary"


@dataclass(frozen=True)
class DPointClass:
    tag: PointTag
    xf: float
    yf: float


@dataclass(frozen=True)
class DArc:
    interval: tuple[float, float]
    tag: PointTag
    endpoints: list[tuple[float, EndpointKind]] = field(default_factory=list)


@dataclass(frozen=True)
class DSingularity:
    x: float
    kind: SingKind
    certificates: dict[str, float] = field(default_factory=dict)


def lie_derivative(X: PolyVectorField) -> BivariatePolynomial:
    """Xf for f(x,y)=y: the gradient is (0,1), so Xf = Q."""
    return X.Q


def second_lie_derivative(X: PolyVectorField) -> BivariatePolynomial:
    """X(Xf) = P dQ/dx + Q dQ/dy, built once per field."""
    _, _, qx, qy = X.jacobian()
    return _cached(X, "_derived", "lie2", lambda: X.P * qx + X.Q * qy)


def det_xy(Z: PiecewiseField) -> BivariatePolynomial:
    """det[X,Y] = P1 Q2 - Q1 P2, built once per field."""
    return _cached(Z, "_derived", "det",
                   lambda: Z.X.P * Z.Y.Q - Z.X.Q * Z.Y.P)


def classify_point(Z: PiecewiseField, x: float,
                   tols: Tolerances | None = None) -> DPointClass:
    tols = tols or default_tols()
    xf = Z.X.Q(x, 0.0)
    yf = Z.Y.Q(x, 0.0)
    x_zero = abs(xf) <= tols.sign
    y_zero = abs(yf) <= tols.sign
    if x_zero and y_zero:
        tag = PointTag.TANGENCY_BOTH
    elif x_zero:
        tag = PointTag.TANGENCY_X
    elif y_zero:
        tag = PointTag.TANGENCY_Y
    elif xf * yf > 0:
        tag = PointTag.SEWING
    elif xf > 0:
        tag = PointTag.ESCAPING
    else:
        tag = PointTag.SLIDING
    return DPointClass(tag, xf, yf)


def _roots_or_empty(q: BivariatePolynomial, window, tols) -> list[float]:
    """Roots of q(x,0) in window; [] for a nonzero constant restriction."""
    import numpy as np

    c = q.restrict_y0()
    nonzero = np.abs(c) > tols.coeff_zero
    if not nonzero.any():
        raise IdenticallyZeroOnD("Q(x,0) vanishes identically")
    if not nonzero[1:].any():
        return []
    return [r for r, _ in real_roots_on_line(q, window, tols)]


def segment_d(Z: PiecewiseField, window: tuple[float, float],
              tols: Tolerances | None = None) -> list[DArc]:
    """Maximal constant-class arcs between consecutive roots of Q1*Q2 on D."""
    tols = tols or default_tols()
    q1_roots = _roots_or_empty(Z.X.Q, window, tols)
    q2_roots = _roots_or_empty(Z.Y.Q, window, tols)
    events: list[tuple[float, EndpointKind]] = (
        [(r, EndpointKind.Q1_ROOT) for r in q1_roots]
        + [(r, EndpointKind.Q2_ROOT) for r in q2_roots]
    )
    events.sort(key=lambda e: e[0])
    # merge events that coincide within root tolerance
    merged: list[tuple[float, list[EndpointKind]]] = []
    for x, kind in events:
        if merged and abs(x - merged[-1][0]) <= 10 * tols.root:
            merged[-1][1].append(kind)
        else:
            merged.append((x, [kind]))

    cuts = [window[0]] + [x for x, _ in merged] + [window[1]]
    arcs = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= 10 * tols.root:
            continue
        mid = 0.5 * (lo + hi)
        tag = classify_point(Z, mid, tols).tag
        eps: list[tuple[float, EndpointKind]] = []
        for x, kinds in merged:
            if abs(x - lo) <= 10 * tols.root or abs(x - hi) <= 10 * tols.root:
                eps.extend((x, k) for k in kinds)
        if abs(lo - window[0]) <= 10 * tols.root:
            eps.append((window[0], EndpointKind.WINDOW))
        if abs(hi - window[1]) <= 10 * tols.root:
            eps.append((window[1], EndpointKind.WINDOW))
        arcs.append(DArc((lo, hi), tag, eps))
    return arcs


def filippov_field(Z: PiecewiseField, x: float,
                   tols: Tolerances | None = None) -> tuple[float, float]:
    """The convex combination of X and Y tangent to D at (x, 0).

    lambda = Yf / (Yf - Xf) is the unique weight with zero y-component;
    the second component is set identically to 0.
    """
    tols = tols or default_tols()
    cls = classify_point(Z, x, tols)
    if cls.tag not in (PointTag.SLIDING, PointTag.ESCAPING):
        raise NotOnSlidingOrEscaping(f"point x={x} is {cls.tag.value}")
    lam = cls.yf / (cls.yf - cls.xf)
    first = lam * Z.X.P(x, 0.0) + (1.0 - lam) * Z.Y.P(x, 0.0)
    return (first, 0.0)


def filippov_lambda(Z: PiecewiseField, x: float,
                    tols: Tolerances | None = None) -> float:
    tols = tols or default_tols()
    cls = classify_point(Z, x, tols)
    if cls.tag not in (PointTag.SLIDING, PointTag.ESCAPING):
        raise NotOnSlidingOrEscaping(f"point x={x} is {cls.tag.value}")
    return cls.yf / (cls.yf - cls.xf)


def fz_singularities(Z: PiecewiseField, window: tuple[float, float],
                     tols: Tolerances | None = None) -> list[DSingularity]:
    """Zeros of det[X,Y] on sliding/escaping arcs, typed per the sign of
    the derivative of det along D."""
    tols = tols or default_tols()
    det = det_xy(Z)
    try:
        roots = real_roots_on_line(det, window, tols)
    except IdenticallyZeroOnD:
        # degenerate field: every sliding point is F_Z-singular; report the
        # arc midpoints as non-elementary witnesses
        out = []
        for arc in segment_d(Z, window, tols):
            if arc.tag in (PointTag.SLIDING, PointTag.ESCAPING):
                mid = 0.5 * (arc.interval[0] + arc.interval[1])
                out.append(DSingularity(mid, SingKind.NON_ELEMENTARY,
                                        {"det": 0.0, "ddet": 0.0}))
        return out
    ddet = partial(det, "x")
    out = []
    for r, _ in roots:
        cls = classify_point(Z, r, tols)
        if cls.tag not in (PointTag.SLIDING, PointTag.ESCAPING):
            continue
        dval = ddet(r, 0.0)
        certs = {"det": det(r, 0.0), "ddet": dval,
                 "xf": cls.xf, "yf": cls.yf}
        if abs(dval) <= tols.sign:
            kind = SingKind.NON_ELEMENTARY
        elif cls.tag is PointTag.SLIDING:
            kind = SingKind.FZ_SADDLE if dval > 0 else SingKind.FZ_NODE
        else:  # escaping
            kind = SingKind.FZ_SADDLE if dval < 0 else SingKind.FZ_NODE
        out.append(DSingularity(r, kind, certs))
    return out


def fold_points(Z: PiecewiseField, window: tuple[float, float],
                tols: Tolerances | None = None) -> list[DSingularity]:
    """Tangency points of each field with D, typed fold or non-elementary.

    Double tangencies (both Xf and Yf below tolerance) are reported
    non-elementary and excluded from fold typing.
    """
    tols = tols or default_tols()
    out = []
    x2f = second_lie_derivative(Z.X)
    y2f = second_lie_derivative(Z.Y)
    for side, q, lie2, kind in (
        ("X", Z.X.Q, x2f, SingKind.FOLD_X),
        ("Y", Z.Y.Q, y2f, SingKind.FOLD_Y),
    ):
        try:
            roots = _roots_or_empty(q, window, tols)
        except IdenticallyZeroOnD:
            raise
        other = Z.Y.Q if side == "X" else Z.X.Q
        for r in roots:
            second = lie2(r, 0.0)
            opp = other(r, 0.0)
            certs = {"xf" if side == "X" else "yf": q(r, 0.0),
                     "second_lie": second,
                     "opposite": opp}
            if abs(opp) <= tols.sign or abs(second) <= tols.sign:
                out.append(DSingularity(r, SingKind.NON_ELEMENTARY, certs))
            else:
                out.append(DSingularity(r, kind, certs))
    out.sort(key=lambda s: s.x)
    # deduplicate double tangencies reported from both sides
    dedup: list[DSingularity] = []
    for s in out:
        if (dedup and abs(s.x - dedup[-1].x) <= 10 * tols.root
                and s.kind is SingKind.NON_ELEMENTARY
                and dedup[-1].kind is SingKind.NON_ELEMENTARY):
            continue
        dedup.append(s)
    return dedup
