import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from filippov import cli, fieldspec, flow, portrait, stability
from filippov.errors import FieldSpecError, FilippovError
from filippov.portrait import render_portrait
from filippov.polys import piecewise, vf
from filippov.work import WORK, since

# Z = ((-y+x, x+y), (-y, x)): the worked analysis example
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

# X = (x, -1), Y = (1, 1): sliding arc with a Filippov saddle at x = -1
SADDLE_TEXT = """\
degree 1
window -2 2 -2 2
eps 0.2 0.1 0.05
phi smoothstep1
P1:
1 0 1
Q1:
0 0 -1
P2:
0 0 1
Q2:
0 0 1
"""


def test_text_round_trip():
    spec = fieldspec.parse(SADDLE_TEXT)
    again = fieldspec.parse(fieldspec.serialize_text(spec))
    assert again == spec


def test_json_round_trip():
    spec = fieldspec.parse(SPIRAL_TEXT)
    again = fieldspec.parse(fieldspec.serialize_json(spec))
    assert again == spec


def test_round_trip_survives_awkward_floats():
    tables = {"P1": {(1, 0): 1 / 3, (0, 1): -math.pi},
              "Q1": {(0, 0): 1e-17}, "P2": {(0, 1): 2 ** 0.5},
              "Q2": {(1, 0): -7.000000000000001}}
    spec = fieldspec.FieldSpec(1, tables, horizon=math.e)
    for enc in (fieldspec.serialize_text, fieldspec.serialize_json):
        again = fieldspec.parse(enc(spec))
        assert again == spec


def test_degree_violation_rejected():
    bad = SPIRAL_TEXT.replace("degree 1", "degree 0")
    with pytest.raises(FieldSpecError) as err:
        fieldspec.parse(bad)
    assert "(0, 1)" in str(err.value) or "(1, 0)" in str(err.value)


def test_missing_top_degree_rejected():
    text = "degree 2\nP1:\n0 0 1\nQ1:\n0 0 1\nP2:\n0 0 1\nQ2:\n0 0 1\n"
    with pytest.raises(FieldSpecError):
        fieldspec.parse(text)


def test_to_field_returns_one_field_per_coefficient_rows():
    spec = fieldspec.parse(SPIRAL_TEXT)
    Z = spec.to_field()
    assert fieldspec.parse(SPIRAL_TEXT).to_field() is Z
    assert fieldspec.parse(fieldspec.serialize_json(spec)).to_field() is Z
    other = fieldspec.parse(SPIRAL_TEXT.replace("1 0 1\nQ1", "1 0 1.5\nQ1"))
    assert other.to_field() is not Z
    assert other.to_field().X.P.coeffs == {(0, 1): -1.0, (1, 0): 1.5}
    # a product's sums run in row order, so rows in another order are
    # another key
    swapped = SPIRAL_TEXT.replace("0 1 -1\n1 0 1\nQ1", "1 0 1\n0 1 -1\nQ1")
    assert fieldspec.parse(swapped).to_field() is not Z


def test_field_cache_evicts_past_its_bound():
    def spec(k):
        return fieldspec.FieldSpec(1, {"P1": {(1, 0): 1.0 + k},
                                       "Q1": {(0, 1): 1.0}, "P2": {},
                                       "Q2": {(1, 0): -1.0 - k}})

    assert fieldspec._field.cache_info().maxsize == fieldspec.FIELD_CACHE
    Z = spec(0).to_field()
    for k in range(1, fieldspec.FIELD_CACHE):
        spec(k).to_field()
    assert spec(0).to_field() is Z
    for k in range(fieldspec.FIELD_CACHE, 2 * fieldspec.FIELD_CACHE):
        spec(k).to_field()
    assert spec(0).to_field() is not Z


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_analyze_violated_spiral(tmp_path, capsys):
    spec = _write(tmp_path, "spiral.txt", SPIRAL_TEXT)
    out = str(tmp_path / "report.json")
    code = cli.main(["analyze", spec, "--out", out])
    assert code == 1
    report = json.loads(open(out).read())
    assert report["overall"] == "Violated"
    assert abs(report["equator"]["mu"] - math.pi) < 1e-8
    assert abs(report["equator"]["derivative"] - math.exp(-math.pi)) < 1e-10
    assert any(w["kind"] == "non_elementary_d_point" and abs(w["x"]) < 1e-9
               for w in report["conditions"]["interior_and_d"]["witnesses"])


def test_analyze_constant_field_undetermined(tmp_path):
    spec = _write(tmp_path, "const.txt", CONST_TEXT)
    out = str(tmp_path / "report.json")
    code = cli.main(["analyze", spec, "--out", out])
    assert code == 2
    report = json.loads(open(out).read())
    assert report["overall"] == "Undetermined"
    arcs = report["d_census"]["arcs"]
    assert len(arcs) == 1 and arcs[0]["tag"] == "Sewing"
    assert report["d_census"]["singularities"] == []
    assert report["interior_singularities"] == {"upper": [], "lower": []}


# X = (1, y), Y = (1, 1 + x): Q1(x, 0) vanishes on all of D
TANGENT_TEXT = """\
degree 1
P1:
0 0 1
Q1:
0 1 1
P2:
0 0 1
Q2:
0 0 1
1 0 1
"""


def test_analyze_field_tangent_to_all_of_d_writes_a_report(tmp_path, capsys):
    spec = _write(tmp_path, "tangent.txt", TANGENT_TEXT)
    out = str(tmp_path / "report.json")
    code = cli.main(["analyze", spec, "--out", out])
    report = json.loads(open(out).read())
    assert code == cli._STATUS_EXIT[report["overall"]] != cli.EXIT_RUNTIME
    assert {"kind": "tangency_component_zero_on_d"} in \
        report["conditions"]["interior_and_d"]["witnesses"]
    assert report["d_census"] == {"arcs": [], "folds": [],
                                  "singularities": []}
    assert capsys.readouterr().err == ""


def test_analyze_unit_cycle_reports_its_cycle_in_sorted_keys(tmp_path):
    # the report's key order comes from dumps_report alone: every object of
    # the file, down to each cycle's certificate, has its keys sorted
    spec = Path(__file__).parents[1] / "bench" / "corpus" / "uc.txt"
    out = tmp_path / "report.json"
    cli.main(["analyze", str(spec), "--out", str(out)])
    orders = []

    def keys(pairs):
        orders.append([k for k, _ in pairs])
        return dict(pairs)

    report = json.loads(out.read_text(), object_pairs_hook=keys)
    assert orders and all(order == sorted(order) for order in orders)
    (cycle,) = report["cycles"]
    assert list(cycle) == ["certificate", "closure", "elementary"]
    assert cycle["closure"] == "Type1" and cycle["elementary"] == "yes"
    assert list(cycle["certificate"]) == ["eta_prime", "x"]
    e4pi = math.exp(-4 * math.pi)
    assert abs(cycle["certificate"]["eta_prime"] - e4pi) <= 1e-3 * e4pi
    assert abs(abs(cycle["certificate"]["x"]) - 1.0) <= 1e-6


def _floats_read_back(written, read) -> int:
    # the number of floats in written, each of which read, its json read
    # back, holds to the bit
    if isinstance(written, float):
        assert type(read) is float and read.hex() == float(written).hex()
        return 1
    if isinstance(written, dict):
        assert sorted(map(str, written)) == sorted(read)
        return sum(_floats_read_back(v, read[str(k)])
                   for k, v in written.items())
    if isinstance(written, (list, tuple)):
        assert len(written) == len(read)
        return sum(map(_floats_read_back, written, read))
    assert written == read
    return 0


def test_json_files_write_each_float_as_its_shortest_repr(tmp_path,
                                                          monkeypatch):
    # every float of an analyze report and of a flow events file reads
    # back to the bit of the float it was written from, from the text of
    # its shortest repr (0.1, not 0.10000000000000001)
    written = []
    dumps = cli.dumps_report

    def keep(d):
        written.append(d)
        return dumps(d)

    monkeypatch.setattr(cli, "dumps_report", keep)
    corpus = Path(__file__).parents[1] / "bench" / "corpus"
    out = str(tmp_path / "out")
    calls = [["analyze", str(path), "--out", out]
             for path in sorted(corpus.glob("*.txt"))]
    calls += [["flow", str(corpus / name), "--horizon=20", "--out", out]
              for name in ("rot.txt", "uc.txt", "uc2.txt")]
    floats = 0
    for argv in calls:
        written.clear()
        cli.main(argv)
        path = out + ".events.json" if argv[0] == "flow" else out
        texts = []
        read = json.loads(Path(path).read_text(), parse_float=lambda s: (
            texts.append(s), float(s))[1])
        assert texts == [repr(float(s)) for s in texts]
        floats += _floats_read_back(written[-1], read)
    assert floats > 250


def test_portrait_field_tangent_to_all_of_d(tmp_path):
    spec = _write(tmp_path, "tangent.txt", TANGENT_TEXT)
    out = str(tmp_path / "tangent.svg")
    assert cli.main(["portrait", spec, "--out", out]) == 0
    assert 'class="arc-degenerate"' in open(out).read()


def test_analyze_malformed_spec_exit3(tmp_path, capsys):
    bad = SPIRAL_TEXT.replace("degree 1", "degree 0")
    spec = _write(tmp_path, "bad.txt", bad)
    assert cli.main(["analyze", spec]) == 3
    assert "error" in capsys.readouterr().err


def test_analyze_deterministic_bytes(tmp_path):
    spec = _write(tmp_path, "spiral.txt", SPIRAL_TEXT)
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cli.main(["analyze", spec, "--out", o1])
    cli.main(["analyze", spec, "--out", o2])
    assert open(o1, "rb").read() == open(o2, "rb").read()


def test_flow_rotation_closed_type1(tmp_path):
    rot = ("degree 1\nP1:\n0 1 -1\nQ1:\n1 0 1\n"
           "P2:\n0 1 -1\nQ2:\n1 0 1\n")
    spec = _write(tmp_path, "rot.txt", rot)
    out = str(tmp_path / "traj.csv")
    code = cli.main(["flow", spec, "--seed", "1,0.5", "--horizon", "50",
                     "--window=-3,3,-3,3", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,x,y,field_tag"
    assert len(lines) > 10
    events = json.loads(open(out + ".events.json").read())
    assert events["closed"] == "Type1"
    sew = [e for e in events["events"] if e["kind"] == "CrossingAtSewing"]
    assert len(sew) == 2


def test_flow_sliding_events(tmp_path):
    sliding = ("degree 1\nP1:\n0 0 1\nQ1:\n0 0 -1\n"
               "P2:\n0 0 1\nQ2:\n0 0 1\n0 1 0.0\n")
    # degree-1 declared with an explicit zero row is rejected, use the
    # plain degree-0 form instead
    sliding = ("degree 0\nP1:\n0 0 1\nQ1:\n0 0 -1\n"
               "P2:\n0 0 1\nQ2:\n0 0 1\n")
    spec = _write(tmp_path, "slide.txt", sliding)
    out = str(tmp_path / "traj.csv")
    code = cli.main(["flow", spec, "--seed", "0,1",
                     "--window=-5,5,-5,5", "--out", out])
    assert code == 0
    events = json.loads(open(out + ".events.json").read())
    kinds = [e["kind"] for e in events["events"]]
    assert kinds[0] == "EnterSliding"
    assert kinds[-1] == "WindowExit"


def test_flow_into_a_tangency_writes_its_arcs(tmp_path):
    # X = (1, y) is tangent to all of D; the orbit of Y = (1, 1 + x) from
    # (0.5, -0.5) reaches D at x = (sqrt(13) - 2) / 2, where X cannot
    # carry it on
    tangent = ("degree 1\nP1:\n0 0 1\nQ1:\n0 1 1\n"
               "P2:\n0 0 1\nQ2:\n0 0 1\n1 0 1\n")
    spec = _write(tmp_path, "tangent.txt", tangent)
    out = str(tmp_path / "traj.csv")
    code = cli.main(["flow", spec, "--seed", "0.5,-0.5",
                     "--window=-3,3,-3,3", "--out", out])
    assert code == 0
    _, x, y, tag = open(out).read().splitlines()[-1].split(",")
    assert (x, y, tag) == ("0.8027756377319949", "0", "Y")
    events = json.loads(open(out + ".events.json").read())["events"]
    assert events[-1]["kind"] == "Tangency"
    assert events[-1]["state"] == [0.8027756377319949, 0.0]


def test_flow_seed_outside_window_exit3(tmp_path, capsys):
    spec = _write(tmp_path, "spiral.txt", SPIRAL_TEXT)
    code = cli.main(["flow", spec, "--seed", "10,10",
                     "--window=-2,2,-2,2"])
    assert code == 3


def test_successive_calls_share_no_flags(tmp_path, monkeypatch):
    # one parser serves every call of a process: a flag of one call must
    # not reach the next, which reads the spec's value or the default
    assert cli.build_parser() is cli.build_parser()
    seen = []
    check_gm, advance = stability.check_gm, flow.advance_hybrid

    def record_gm(Z, opts, tols):
        seen.append(opts.optimistic)
        return check_gm(Z, opts, tols)

    def record_seed(Z, seed, *args):
        seen.append(seed)
        return advance(Z, seed, *args)

    monkeypatch.setattr(stability, "check_gm", record_gm)
    monkeypatch.setattr(flow, "advance_hybrid", record_seed)
    spec = _write(tmp_path, "saddle.txt",
                  SADDLE_TEXT.replace("phi smoothstep1\n",
                                      "phi smoothstep1\nseed 0.5 1\n"))
    out = str(tmp_path / "out")
    for argv in (["analyze", spec, "--optimistic"], ["analyze", spec],
                 ["flow", spec, "--seed", "1.5,0.25"], ["flow", spec]):
        assert cli.main(argv + ["--out", out]) in (0, 1, 2), argv
    assert seen == [True, False, (1.5, 0.25), (0.5, 1.0)]


def test_portrait_classes_present(tmp_path):
    spec = _write(tmp_path, "saddle.txt", SADDLE_TEXT)
    out = str(tmp_path / "portrait.svg")
    assert cli.main(["portrait", spec, "--out", out]) == 0
    svg = open(out).read()
    assert svg.startswith("<?xml")
    assert 'class="arc-sliding"' in svg
    assert 'class="glyph-saddle"' in svg
    assert 'class="streak"' in svg


def test_portrait_sewing_arcs(tmp_path):
    spec = _write(tmp_path, "spiral.txt", SPIRAL_TEXT)
    out = str(tmp_path / "spiral.svg")
    assert cli.main(["portrait", spec, "--out", out]) == 0
    svg = open(out).read()
    assert 'class="arc-sewing"' in svg
    assert 'class="arc-sliding"' not in svg


def test_portrait_saddle_glyph_position():
    # the Filippov saddle sits at x=-1; check the glyph lands there
    Z = piecewise(vf({(1, 0): 1.0}, {(0, 0): -1.0}),
                  vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    svg = render_portrait(Z, (-2.0, 2.0, -2.0, 2.0))
    # x=-1 maps to MARGIN + (1/4)*(WIDTH-2*MARGIN) = 40 + 160 = 200
    assert '<g class="glyph-saddle"><line x1="195"' in svg


def test_portrait_streaks_follow_rotation_orbits():
    # each streak is a cubic Bezier path; on the rotation (-y, x) every
    # point of it must stay on its orbit's circle, which the chords
    # between the integrator's step ends (up to 1.0 long here) miss by up
    # to 0.04
    rot = vf({(0, 1): -1.0}, {(1, 0): 1.0})
    svg = render_portrait(piecewise(rot, rot), (-3.0, 3.0, -3.0, 3.0))
    paths = re.findall(r'<path class="streak" d="([^"]*)"', svg)
    assert len(paths) == 42

    def data(sx, sy):  # inverse of the canvas map for this window
        return (-3.0 + (sx - 40.0) * 6.0 / 640.0,
                -3.0 + (500.0 - sy) * 6.0 / 460.0)

    worst = 0.0
    for d in paths:
        nums = [float(v) for v in re.findall(r"[-0-9.e]+", d)]
        pts = np.array([data(*xy) for xy in zip(nums[::2], nums[1::2])])
        r0 = math.hypot(*pts[0])
        for k in range(0, len(pts) - 1, 3):
            p0, c0, c1, p1 = pts[k:k + 4]
            for s in np.linspace(0.0, 1.0, 9):
                b = ((1 - s) ** 3 * p0 + 3 * (1 - s) ** 2 * s * c0
                     + 3 * (1 - s) * s ** 2 * c1 + s ** 3 * p1)
                worst = max(worst, abs(math.hypot(*b) - r0))
    assert worst < 1e-3


def _reference_curve(c, ts, pts, vels, cls, color, width=1.0):
    # the streak path as it was drawn from numpy rows: every point and
    # control point mapped one numpy scalar at a time
    fmt = portrait._fmt
    if len(pts) < 2:
        return
    h = np.diff(ts)[:, None] / 3.0
    ends = [c.map(x, y) for x, y in pts]
    c0 = [c.map(x, y) for x, y in pts[:-1] + h * vels[:-1]]
    c1 = [c.map(x, y) for x, y in pts[1:] - h * vels[1:]]
    d = [f"M{fmt(ends[0][0])},{fmt(ends[0][1])}"] + [
        "C" + " ".join(f"{fmt(sx)},{fmt(sy)}" for sx, sy in seg)
        for seg in zip(c0, c1, ends[1:])]
    c.parts.append(
        f'<path class="{cls}" d="{" ".join(d)}" fill="none" '
        f'stroke="{color}" stroke-width="{fmt(width)}"/>')


def _reference_streaks(c, Z, window, tols):
    # the streaks with each point's velocity from the field's polynomial
    # calls on numpy scalars
    x0, x1, y0, y1 = window
    grid = portrait.STREAK_GRID
    for y in np.linspace(y0, y1, grid + 2)[1:-1]:
        if abs(y) < 1e-12:
            continue
        fld = Z.X if y > 0 else Z.Y
        color = "#2ca02c" if y > 0 else "#ff7f0e"
        for x in np.linspace(x0, x1, grid + 2)[1:-1]:
            try:
                tr = flow.integrate_smooth(fld, (float(x), float(y)),
                                           portrait.STREAK_TIME, window,
                                           -1 if y > 0 else 1, tols=tols)
            except FilippovError:
                continue
            pts = tr.states[:, :2]
            vels = np.array([fld(px, py) for px, py in pts])
            _reference_curve(c, tr.ts, pts, vels, "streak", color, 0.8)


def _windows(Z, spec_window=None):
    # the spec's (or the default) window, a zoom on its middle and a
    # window shifted off its centre
    x0, x1, y0, y1 = spec_window or stability.default_window(Z)
    wx, wy = (x1 - x0) / 2, (y1 - y0) / 2
    cx, cy = x0 + wx, y0 + wy
    return [(x0, x1, y0, y1),
            (cx - wx / 2, cx + wx / 2, cy - wy / 2, cy + wy / 2),
            (x0 + wx / 3, x1 + wx / 5, y0 - wy / 7, y1 + wy / 3)]


def _rendering_cases(seeded_fields):
    for text in _spec_texts():
        spec = fieldspec.parse(text)
        yield spec.to_field(), spec.window
    for Z in seeded_fields[::2]:
        yield Z, None


def test_portrait_bytes_match_the_per_point_drawing(seeded_fields,
                                                    monkeypatch):
    # the streaks drawn from float lists, with the velocities of the
    # field's generated right-hand side, give the bytes of the per-point
    # drawing on numpy scalars
    cases = 0
    for Z, spec_window in _rendering_cases(seeded_fields):
        for window in _windows(Z, spec_window):
            svg = render_portrait(Z, window)
            with monkeypatch.context() as m:
                m.setattr(portrait, "_draw_streaks", _reference_streaks)
                assert render_portrait(Z, window) == svg, window
            cases += 'class="streak"' in svg
    assert cases >= 80


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def _bezier_points(d, per_segment):
    # per_segment points along each cubic segment of the path d,
    # "Mp C c0 c1 p1 C ...", both ends included, as complex numbers
    xy = np.array([float(v) for v in _NUMBER.findall(d)])
    pts = xy[0::2] + 1j * xy[1::2]
    p0, c0, c1, p1 = (pts[k:len(pts) - 3 + k:3, None] for k in range(4))
    s = np.linspace(0.0, 1.0, per_segment)
    return ((1 - s) ** 3 * p0 + 3 * (1 - s) ** 2 * s * c0
            + 3 * (1 - s) * s ** 2 * c1 + s ** 3 * p1).ravel()


def _path_distance(d, e):
    # the largest distance on the canvas from a point sampled on either
    # path to the other, each point to the nearest segment of a dense
    # polyline along the other path
    def one_way(pts, line):
        ap, ab = pts[:, None] - line[None, :-1], np.diff(line)
        t = np.clip((ap * ab.conj()).real
                    / np.maximum(abs(ab) ** 2, 1e-300), 0.0, 1.0)
        return abs(ap - t * ab).min(axis=1).max()

    return max(one_way(_bezier_points(d, 9), _bezier_points(e, 65)),
               one_way(_bezier_points(e, 9), _bezier_points(d, 65)))


def _streak_paths(svg):
    # the streaks' path data, and every other element
    lines = svg.splitlines()
    return ([re.search(r' d="([^"]*)"', s).group(1) for s in lines
             if 'class="streak"' in s],
            [s for s in lines if 'class="streak"' not in s])


def test_streaks_stay_within_half_a_pixel(seeded_fields, monkeypatch):
    # the streaks solved at tols.root * STREAK_SLACK draw what the streaks
    # solved at tols.root draw: as many streaks, each within half a pixel
    # of its counterpart, and every other element byte for byte
    cases = 0
    for Z, spec_window in _rendering_cases(seeded_fields):
        for window in _windows(Z, spec_window):
            streaks, others = _streak_paths(render_portrait(Z, window))
            with monkeypatch.context() as m:
                m.setattr(portrait, "STREAK_SLACK", 1.0)
                tight, tight_others = _streak_paths(render_portrait(Z,
                                                                    window))
            assert others == tight_others, window
            assert len(streaks) == len(tight), window
            for d, e in zip(streaks, tight):
                assert _path_distance(d, e) < 0.5, window
            cases += bool(streaks)
    assert cases >= 80


def test_flow_bytes_match_the_numpy_row_export(tmp_path, seeded_fields,
                                               monkeypatch):
    # the CSV rows formatted from float lists, and the events file, hold
    # the bytes of the rows formatted from numpy rows
    runs = []
    advance = flow.advance_hybrid

    def record(*args, **kwargs):
        runs.append(advance(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(flow, "advance_hybrid", record)
    fmt, out, compared = fieldspec._fmt, str(tmp_path / "traj.csv"), 0
    for Z, spec_window in _rendering_cases(seeded_fields):
        spec = _write(tmp_path, "spec.json", fieldspec.serialize_json(
            fieldspec.FieldSpec(Z.m, dict(zip(fieldspec.TABLE_NAMES, (
                p.coeffs for p in (Z.X.P, Z.X.Q, Z.Y.P, Z.Y.Q)))))))
        x0, x1, y0, y1 = _windows(Z, spec_window)[0]
        window = ",".join("%.17g" % v for v in (x0, x1, y0, y1))
        for u, v in ((0.3, 0.6), (0.7, 0.2), (0.45, 0.5)):
            seed = "%.17g,%.17g" % (x0 + u * (x1 - x0), y0 + v * (y1 - y0))
            runs.clear()
            code = cli.main(["flow", spec, "--window=" + window,
                             "--seed=" + seed, "--horizon=20", "--out", out])
            if code != 0:
                continue
            traj, = runs
            rows = ["t,x,y,field_tag"] + [
                f"{fmt(t)},{fmt(x)},{fmt(y)},{arc.tag}" for arc in traj.arcs
                for t, (x, y) in zip(arc.ts, arc.states[:, :2])]
            events = {"closed": traj.closed.value,
                      "events": [{"time": e.time, "kind": e.kind.value,
                                  "state": [e.state[0], e.state[1]]}
                                 for e in traj.events]}
            assert Path(out).read_text() == "\n".join(rows) + "\n"
            assert Path(out + ".events.json").read_text() == \
                cli.dumps_report(events)
            compared += 1
    assert compared >= 40


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002],
                         ids=["022", "077", "002"])
def test_output_files_take_the_mode_the_umask_gives(tmp_path, mask):
    # write_atomic's temporary file starts with mkstemp's mode 0o600; the
    # file it becomes has the mode a plain open() gives a new file
    spec = _write(tmp_path, "spiral.txt", SPIRAL_TEXT)
    out, report = str(tmp_path / "traj.csv"), str(tmp_path / "report.json")
    plain = tmp_path / "plain.txt"
    old = os.umask(mask)
    try:
        assert cli.main(["flow", spec, "--seed", "1,0.5", "--horizon", "5",
                         "--window=-2,2,-2,2", "--out", out]) == 0
        assert cli.main(["analyze", spec, "--out", report]) == 1
        plain.write_text("")
    finally:
        os.umask(old)
    want = stat.S_IMODE(plain.stat().st_mode)
    assert want == 0o666 & ~mask
    for path in (out, out + ".events.json", report):
        assert stat.S_IMODE(os.stat(path).st_mode) == want, path


def test_portrait_empty_window_axes_only():
    Z = piecewise(vf({(0, 0): 1.0}, {(0, 0): 1.0}),
                  vf({(0, 0): 1.0}, {(0, 0): 1.0}))
    svg = render_portrait(Z, (1.0, 1.0, -1.0, -1.0))
    assert 'class="frame"' in svg
    assert "streak" not in svg and "arc-" not in svg


def test_sweep_converges_and_exit_codes(tmp_path, capsys):
    spec = _write(tmp_path, "saddle.txt", SADDLE_TEXT)
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", spec, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("epsilon,x,y,type")
    body = [ln.split(",") for ln in lines[1:]]
    assert len(body) == 3
    xs = [abs(float(r[1]) + 1.0) for r in body]
    assert xs == sorted(xs, reverse=True) or max(xs) < 0.05
    assert all(r[3] == "Saddle" for r in body)
    # D-regular spec: zero rows
    regular = ("degree 0\nP1:\n0 0 1\nQ1:\n0 0 -1\n"
               "P2:\n0 0 1\nQ2:\n0 0 1\n")
    rspec = _write(tmp_path, "regular.txt", regular)
    rout = str(tmp_path / "regular.csv")
    assert cli.main(["sweep", rspec, "--eps", "0.2,0.1",
                     "--window=-2,2,-2,2", "--out", rout]) == 0
    assert len(open(rout).read().splitlines()) == 1
    # empty eps list
    noeps = _write(tmp_path, "noeps.txt", SPIRAL_TEXT)
    assert cli.main(["sweep", noeps]) == 3


def test_sweep_deterministic(tmp_path):
    spec = _write(tmp_path, "saddle.txt", SADDLE_TEXT)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cli.main(["sweep", spec, "--out", a])
    cli.main(["sweep", spec, "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("eps", ["nan", "inf", "0.1,nan"])
def test_sweep_non_finite_eps_exit3(tmp_path, capsys, eps):
    spec = _write(tmp_path, "saddle.txt", SADDLE_TEXT)
    assert cli.main(["sweep", spec, "--eps", eps]) == 3
    assert "epsilon must be positive and finite" in capsys.readouterr().err


def test_sweep_shared_factor_exit4(tmp_path, capsys):
    # every component carries the factor (x - 0.5): the regularized field
    # vanishes on a segment, and the census raises CommonFactor
    text = ("degree 2\nP1:\n1 0 1\n0 0 -0.5\nQ1:\n1 1 1\n0 1 -0.5\n1 0 2\n"
            "0 0 -1\nP2:\n1 0 -1\n0 0 0.5\nQ2:\n2 0 1\n1 0 -0.5\n")
    spec = _write(tmp_path, "shared.txt", text)
    assert cli.main(["sweep", spec, "--eps", "0.1",
                     "--window=-2,2,-2,2"]) == cli.EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def _json_spec(**changes):
    """SADDLE_TEXT as JSON with top-level members replaced, and options
    updated from changes["options"]."""
    d = json.loads(fieldspec.serialize_json(fieldspec.parse(SADDLE_TEXT)))
    d["options"].update(changes.pop("options", {}))
    d.update(changes)
    return json.dumps(d)


def _with_line(line):
    return SADDLE_TEXT.replace("degree 1\n", f"degree 1\n{line}\n")


# every malformed option, flag or coefficient row is an input error (exit 3)
@pytest.mark.parametrize("command, text, flags", [
    ("analyze", SADDLE_TEXT, ["--window", "1,0,0,1"]),
    ("analyze", SADDLE_TEXT, ["--window", "1,2,3"]),
    ("flow", SADDLE_TEXT, ["--seed", "0.5"]),
    ("flow", SADDLE_TEXT, ["--seed", "0.5,0.5", "--horizon", "0"]),
    ("sweep", SADDLE_TEXT, ["--eps", "0.1", "--phi", "smoothstepx"]),
    ("sweep", SADDLE_TEXT, ["--eps", "0.1", "--phi", "smoothstep0"]),
    ("analyze", _json_spec(options={"window": [0, 1]}), []),
    ("analyze", _json_spec(options={"horizon": "ten"}), []),
    ("analyze", _json_spec(P1=[["one", 0, 1.0]]), []),
    ("analyze", _json_spec(options={"colour": "red"}), []),
    ("analyze", _with_line("window 2 -2 -2 2"), []),
    ("analyze", _with_line("seed 0.5 0.5 9"), []),
    ("analyze", _with_line("horizon 3 4"), []),
], ids=["flag-window-inverted", "flag-window-three", "flag-seed-one",
        "flag-horizon-zero", "flag-phi-name", "flag-phi-order-zero",
        "json-window-two", "json-horizon-text", "json-row-text",
        "json-unknown-option", "text-window-inverted", "text-seed-three",
        "text-horizon-two"])
def test_malformed_option_exit3(tmp_path, capsys, command, text, flags):
    spec = _write(tmp_path, "spec.txt", text)
    assert cli.main([command, spec] + flags) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _spec_texts():
    bench = Path(__file__).parents[1] / "bench"
    for path in sorted([*(bench / "corpus").glob("*.txt"),
                        *(bench / "known_defects").glob("*.txt")]):
        yield path.read_text()


def test_every_spec_round_trips_bit_for_bit(seeded_fields):
    specs = [fieldspec.parse(text) for text in _spec_texts()]
    for k, Z in enumerate(seeded_fields):
        tables = dict(zip(fieldspec.TABLE_NAMES, (
            p.coeffs for p in (Z.X.P, Z.X.Q, Z.Y.P, Z.Y.Q))))
        specs.append(fieldspec.FieldSpec(
            Z.m, tables, window=(-2 - k / 7, 2.5, -math.pi, 3.0),
            eps=[0.2, 0.1 / 3, 1e-3 * (k + 1)],
            phi=f"smoothstep{k % 4 + 1}" if k % 5 else "bump",
            seed=(1 / 3, -0.7 + k / 100), horizon=math.e * (k + 1)))
    assert len(specs) >= 10 + 40  # 10 specs under bench/ when written

    def coeffs(spec):
        Z = spec.to_field()
        return [{k: v.hex() for k, v in p.coeffs.items()}
                for p in (Z.X.P, Z.X.Q, Z.Y.P, Z.Y.Q)]

    for spec in specs:
        for encode in (fieldspec.serialize_text, fieldspec.serialize_json):
            again = fieldspec.parse(encode(spec))
            assert again == spec
            assert coeffs(again) == coeffs(spec)


def test_each_command_loads_only_its_layers(tmp_path):
    # one fresh interpreter per command: importing cli loads no layer, each
    # command loads its own and no other, none imports a scipy module,
    # also lazily, and none a numpy.polynomial module that a bare import
    # of numpy does not load (numpy 1.x loads them all)
    corpus = Path(__file__).parents[1] / "bench" / "corpus"
    uc, saddle = str(corpus / "uc.txt"), str(corpus / "saddle.txt")
    out = str(tmp_path / "out")
    layers = {"flow", "dline", "dop853", "stability", "compactify",
              "portrait", "regularize"}
    # argv, the layer it runs, the layers it must not load
    cases = (
        ([], None, layers),
        (["sweep", saddle, "--eps", "0.1,0.05", "--phi", "bump"],
         "regularize", layers - {"regularize"}),
        (["flow", uc, "--seed=0.5,0.5"], "flow",
         {"stability", "compactify", "portrait", "regularize"}),
        (["portrait", uc], "portrait",
         {"stability", "compactify", "regularize"}),
        (["analyze", uc], "stability", {"portrait", "regularize"}),
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def modules(script):
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return set(json.loads(run.stdout))

    bare = modules("import json, sys, numpy\n"
                   "print(json.dumps(sorted(sys.modules)))")
    for argv, runs, absent in cases:
        script = f"""
import json, sys
from filippov import cli
argv = {argv!r}
assert not argv or cli.main(argv + ["--out", {out!r}]) in (0, 1, 2), argv
print(json.dumps(sorted(sys.modules)))
"""
        loaded = modules(script)
        assert not any(m.split(".")[0] == "scipy" for m in loaded), argv
        assert not {m for m in loaded - bare
                    if m.startswith("numpy.polynomial")}, argv
        assert runs is None or "filippov." + runs in loaded, argv
        assert not loaded & {"filippov." + m for m in absent}, argv


@pytest.mark.parametrize("command, flags, suffixes", [
    ("flow", ["--seed=0.5,1"], ("", ".events.json")),
    ("portrait", [], ("",)),
])
def test_second_call_on_a_spec_builds_nothing(tmp_path, command, flags,
                                              suffixes):
    # the spec parsed again returns the field of the first call, with its
    # right-hand sides and roots on D, and the same bytes come out
    fieldspec._field.cache_clear()
    spec = _write(tmp_path, "saddle.txt", SADDLE_TEXT)
    work, written = [], []
    for k in range(2):
        before, out = dict(WORK), str(tmp_path / f"out{k}")
        assert cli.main([command, spec, *flags, "--out", out]) == 0
        work.append(since(before))
        written.append([Path(out + s).read_bytes() for s in suffixes])
    assert work[0]["rhs"] > 0 and work[0]["root_isolations"] > 0
    assert work[1]["rhs"] == work[1]["root_isolations"] == 0
    assert written[0] == written[1]


@pytest.mark.parametrize("command, flags, suffixes", [
    ("analyze", [], ("",)),
    ("flow", ["--seed=0.5,1"], ("", ".events.json")),
    ("portrait", [], ("",)),
])
def test_tolerance_scale_run_shares_no_cached_result(tmp_path, monkeypatch,
                                                     command, flags,
                                                     suffixes):
    # the caches on a shared field are keyed on the tolerances: a run
    # under FILIPPOV_TOLERANCE_SCALE=10 between two default runs leaves the
    # second the bytes of the first, and writes the bytes of a scaled run
    # on a field of its own
    spec = _write(tmp_path, "saddle.txt", SADDLE_TEXT)

    def run(scale, k):
        monkeypatch.setenv("FILIPPOV_TOLERANCE_SCALE", scale)
        out = str(tmp_path / f"out{k}")
        assert cli.main([command, spec, *flags, "--out", out]) in (0, 1, 2)
        return [Path(out + s).read_bytes() for s in suffixes]

    fieldspec._field.cache_clear()
    first, scaled, second = run("1", 0), run("10", 1), run("1", 2)
    fieldspec._field.cache_clear()
    assert first == second and run("10", 3) == scaled
    if command == "flow":
        assert scaled != first
