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


@dataclass(frozen=True)
class DPointClass:
    tag: PointTag
    xf: float
    yf: float


@dataclass(frozen=True)
class DArc:
    interval: tuple[float, float]
    tag: PointTag


@dataclass(frozen=True)
class DSingularity:
    x: float
    kind: SingKind
    certificates: dict[str, float] = field(default_factory=dict)


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


def segment_d(Z: PiecewiseField, window: tuple[float, float],
              tols: Tolerances | None = None) -> list[DArc]:
    """Maximal constant-class arcs between consecutive roots of Q1*Q2 on D.

    The window is cut at each root of Q1(x,0) or Q2(x,0) more than
    10 tols.root past the previous root cut (never merged into a window
    end), and each piece longer than that is tagged by its midpoint.
    Raises IdenticallyZeroOnD when either restriction vanishes identically
    (real_roots_on_line).  Cached on Z for (window, tols).
    """
    tols = tols or default_tols()

    def build() -> tuple[DArc, ...]:
        cuts: list[float] = []
        for r in sorted(r for q in (Z.X.Q, Z.Y.Q)
                        for r, _ in real_roots_on_line(q, window, tols)):
            if not cuts or r - cuts[-1] > 10 * tols.root:
                cuts.append(r)
        cuts = [window[0], *cuts, window[1]]
        return tuple(DArc((lo, hi),
                          classify_point(Z, 0.5 * (lo + hi), tols).tag)
                     for lo, hi in zip(cuts, cuts[1:])
                     if hi - lo > 10 * tols.root)
    return list(_cached(Z, "_derived", ("arcs", tuple(window), tols), build))


def filippov_field(Z: PiecewiseField, x: float,
                   tols: Tolerances | None = None) -> tuple[float, float]:
    """The convex combination of X and Y tangent to D at (x, 0), on a
    sliding or escaping point (filippov_lambda): the sliding field of
    PiecewiseField.slide_rhs, with second component 0.
    """
    filippov_lambda(Z, x, tols)  # raises NotOnSlidingOrEscaping elsewhere
    return (Z.slide_rhs()(0.0, x)[0], 0.0)


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


def fold_test(Z: PiecewiseField, side: str, x: float,
              tols: Tolerances) -> tuple[float, float, bool]:
    """(second, opposite, fold) at a tangency of X (side "X") or Y with D
    at (x, 0): the field's second Lie derivative X(Xf), the other field's
    Lie derivative, and whether the tangency is a fold, both of them off
    zero by more than tols.sign."""
    fld, other = (Z.X, Z.Y) if side == "X" else (Z.Y, Z.X)
    second = second_lie_derivative(fld)(x, 0.0)
    opposite = other.Q(x, 0.0)
    return second, opposite, \
        abs(second) > tols.sign and abs(opposite) > tols.sign


def fold_points(Z: PiecewiseField, window: tuple[float, float],
                tols: Tolerances | None = None) -> list[DSingularity]:
    """Tangency points of each field with D, typed fold or non-elementary.

    Double tangencies (both Xf and Yf below tolerance) are reported
    non-elementary and excluded from fold typing.  Cached on Z for
    (window, tols): the cycle census reads the folds check_gm built.
    """
    tols = tols or default_tols()

    def build() -> tuple[DSingularity, ...]:
        out = []
        for side, q, kind in (("X", Z.X.Q, SingKind.FOLD_X),
                              ("Y", Z.Y.Q, SingKind.FOLD_Y)):
            for r, _ in real_roots_on_line(q, window, tols):
                second, opp, fold = fold_test(Z, side, r, tols)
                certs = {"xf" if side == "X" else "yf": q(r, 0.0),
                         "second_lie": second,
                         "opposite": opp}
                out.append(DSingularity(
                    r, kind if fold else SingKind.NON_ELEMENTARY, certs))
        out.sort(key=lambda s: s.x)
        # deduplicate double tangencies reported from both sides
        dedup: list[DSingularity] = []
        for s in out:
            if (dedup and abs(s.x - dedup[-1].x) <= 10 * tols.root
                    and s.kind is SingKind.NON_ELEMENTARY
                    and dedup[-1].kind is SingKind.NON_ELEMENTARY):
                continue
            dedup.append(s)
        return tuple(dedup)
    return list(_cached(Z, "_derived", ("fold", tuple(window), tols), build))
