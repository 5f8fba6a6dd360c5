"""Static SVG phase portraits.

The drawing is assembled by hand from a fixed element order so identical
inputs give identical bytes: window frame, discontinuity-line arcs styled
by class, singularity glyphs, and a grid of short trajectory streaks per
half-plane, each a cubic Bezier path through the integrator's step ends.
The streaks are illustrations, integrated to the canvas rather than to the
verdict tolerance: their solves run at tols.root * STREAK_SLACK, which
keeps every streak within half a pixel of one integrated at tols.root,
while the D-line arcs and glyphs use tols itself.
Elements carry CSS classes (arc-sewing, arc-sliding, arc-escaping,
glyph-saddle, glyph-node, glyph-fold, glyph-nonelementary, streak) so
consumers can assert on structure rather than pixels.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import dline, flow
from .dline import PointTag, SingKind
from .errors import FilippovError, IdenticallyZeroOnD
from .polys import PiecewiseField
from .tolerances import Tolerances, default_tols

WIDTH, HEIGHT = 720, 540
MARGIN = 40
# streaks start on a STREAK_GRID x STREAK_GRID grid inside the window and
# run for STREAK_TIME, solved at STREAK_SLACK times the root tolerance:
# the largest power of ten at which every streak of the rendering tests
# stays within half a pixel of the streak solved at tols.root
STREAK_GRID, STREAK_TIME, STREAK_SLACK = 7, 0.6, 1e3

ARC_CLASS = {
    PointTag.SEWING: "arc-sewing",
    PointTag.SLIDING: "arc-sliding",
    PointTag.ESCAPING: "arc-escaping",
}
ARC_COLOR = {
    "arc-sewing": "#888888",
    "arc-sliding": "#d62728",
    "arc-escaping": "#1f77b4",
}
GLYPH_CLASS = {
    SingKind.FZ_SADDLE: "glyph-saddle",
    SingKind.FZ_NODE: "glyph-node",
    SingKind.FOLD_X: "glyph-fold",
    SingKind.FOLD_Y: "glyph-fold",
    SingKind.NON_ELEMENTARY: "glyph-nonelementary",
}


_FMT = "%.6g"
_POINT = f"{_FMT},{_FMT}"  # a canvas point, "sx,sy"


def _fmt(v: float) -> str:
    return _FMT % v


class _Canvas:
    def __init__(self, window):
        self.x0, self.x1, self.y0, self.y1 = window
        self.parts: list[str] = []

    def map(self, x: float, y: float) -> tuple[float, float]:
        sx = MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)
        sy = HEIGHT - MARGIN - (y - self.y0) / (self.y1 - self.y0) * \
            (HEIGHT - 2 * MARGIN)
        return sx, sy

    def line(self, a, b, cls, color, width=1.5):
        (x1, y1), (x2, y2) = self.map(*a), self.map(*b)
        self.parts.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"/>')

    def point(self, x: float, y: float) -> str:
        """The canvas point of (x, y) as "sx,sy"."""
        return _POINT % self.map(x, y)

    def curve(self, ts, pts, vels, cls, color, width=1.0):
        """Cubic Bezier path through the points pts of an orbit at times ts
        with velocities vels, lists of floats and of pairs: Hermite data,
        so the control points of a segment of duration h are p0 + h v0 / 3
        and p1 - h v1 / 3."""
        if len(pts) < 2:
            return
        d = ["M" + self.point(*pts[0])]
        for t0, t1, (x0, y0), (x1, y1), (u0, v0), (u1, v1) in zip(
                ts, ts[1:], pts, pts[1:], vels, vels[1:]):
            h = (t1 - t0) / 3.0
            d.append(f"C{self.point(x0 + h * u0, y0 + h * v0)} "
                     f"{self.point(x1 - h * u1, y1 - h * v1)} "
                     f"{self.point(x1, y1)}")
        self.parts.append(
            f'<path class="{cls}" d="{" ".join(d)}" fill="none" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"/>')

    def glyph(self, x, y, cls):
        sx, sy = self.map(x, y)
        if cls == "glyph-saddle":
            self.parts.append(
                f'<g class="{cls}"><line x1="{_fmt(sx - 5)}" '
                f'y1="{_fmt(sy - 5)}" x2="{_fmt(sx + 5)}" y2="{_fmt(sy + 5)}" '
                f'stroke="#000" stroke-width="1.5"/>'
                f'<line x1="{_fmt(sx - 5)}" y1="{_fmt(sy + 5)}" '
                f'x2="{_fmt(sx + 5)}" y2="{_fmt(sy - 5)}" stroke="#000" '
                f'stroke-width="1.5"/></g>')
        elif cls == "glyph-node":
            self.parts.append(
                f'<circle class="{cls}" cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                f'r="4" fill="#000"/>')
        elif cls == "glyph-fold":
            self.parts.append(
                f'<circle class="{cls}" cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                f'r="4" fill="none" stroke="#000" stroke-width="1.5"/>')
        else:
            self.parts.append(
                f'<rect class="{cls}" x="{_fmt(sx - 4)}" y="{_fmt(sy - 4)}" '
                f'width="8" height="8" fill="#9467bd"/>')


def render_portrait(Z: PiecewiseField,
                    window: tuple[float, float, float, float],
                    tols: Tolerances | None = None) -> str:
    """SVG 1.1 portrait of Z on the window; degrades to an empty frame on
    degenerate input instead of failing.  The D-line arcs and glyphs use
    tols; the streaks are solved at tols.root * STREAK_SLACK, so a
    FILIPPOV_TOLERANCE_SCALE still scales them."""
    tols = tols or default_tols()
    x0, x1, y0, y1 = window
    c = _Canvas(window)
    c.parts.append(
        f'<rect class="frame" x="{MARGIN}" y="{MARGIN}" '
        f'width="{WIDTH - 2 * MARGIN}" height="{HEIGHT - 2 * MARGIN}" '
        f'fill="none" stroke="#000" stroke-width="1"/>')
    if x1 > x0 and y1 > y0:
        _draw_streaks(c, Z, window, dataclasses.replace(
            tols, root=tols.root * STREAK_SLACK))
        _draw_d_line(c, Z, window, tols)
    body = "\n".join(c.parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f"{body}\n</svg>\n")


def _draw_d_line(c: _Canvas, Z, window, tols):
    """D's arcs (segment_d), FZ points and folds, or one degenerate arc
    where Q_X or Q_Y vanishes on D, the one case in which these raise."""
    span = (window[0], window[1])
    if not (window[2] <= 0.0 <= window[3]):
        return
    try:
        arcs = dline.segment_d(Z, span, tols)
    except IdenticallyZeroOnD:
        c.line((window[0], 0.0), (window[1], 0.0), "arc-degenerate",
               "#cccccc", 2.0)
        return
    for arc in arcs:
        cls = ARC_CLASS.get(arc.tag)
        if cls is None:
            continue
        c.line((arc.interval[0], 0.0), (arc.interval[1], 0.0), cls,
               ARC_COLOR[cls], 2.5)
    for s in dline.fz_singularities(Z, span, tols) \
            + dline.fold_points(Z, span, tols):
        c.glyph(s.x, 0.0, GLYPH_CLASS[s.kind])


def _draw_streaks(c: _Canvas, Z, window, tols):
    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, STREAK_GRID + 2)[1:-1]
    ys = np.linspace(y0, y1, STREAK_GRID + 2)[1:-1]
    for y in ys:
        if abs(y) < 1e-12:
            continue
        fld = Z.X if y > 0 else Z.Y
        rhs = fld.rhs()
        ddir = -1 if y > 0 else 1
        color = "#2ca02c" if y > 0 else "#ff7f0e"
        for x in xs:
            try:
                tr = flow.integrate_smooth(fld, (float(x), float(y)),
                                           STREAK_TIME, window, ddir,
                                           tols=tols)
            except FilippovError:
                continue
            pts = tr.states[:, :2].tolist()
            c.curve(tr.ts.tolist(), pts, [rhs(0.0, x, y) for x, y in pts],
                    "streak", color, 0.8)
