import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from filippov import cli, fieldspec
from filippov.errors import FieldSpecError
from filippov.portrait import render_portrait
from filippov.polys import piecewise, vf

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


def test_flow_seed_outside_window_exit3(tmp_path, capsys):
    spec = _write(tmp_path, "spiral.txt", SPIRAL_TEXT)
    code = cli.main(["flow", spec, "--seed", "10,10",
                     "--window=-2,2,-2,2"])
    assert code == 3


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


def test_commands_run_without_scipy(tmp_path):
    # analyze, flow, portrait and a bump sweep import no scipy module, also
    # lazily
    corpus = Path(__file__).parents[1] / "bench" / "corpus"
    uc, saddle = str(corpus / "uc.txt"), str(corpus / "saddle.txt")
    out = str(tmp_path / "out")
    script = f"""
import sys
from filippov import cli
for argv in (["analyze", {uc!r}],
             ["flow", {uc!r}, "--seed=0.5,0.5"],
             ["portrait", {uc!r}],
             ["sweep", {saddle!r}, "--eps", "0.1,0.05", "--phi", "bump"]):
    assert cli.main(argv + ["--out", {out!r}]) in (0, 1, 2), argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
