"""The benchmark's workloads: each is a list of operations, and every
operation checks its own output against a reference.

An operation raises Mismatch when its output misses the reference; any
other exception, or a CLI exit code of 3 or 4, is an error.
Library entry points are called through their modules, so a traced run sees
the wrapped functions.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from filippov import cli, fieldspec, regularize, stability

from gen_fields import write_fields

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus")
KNOWN_DEFECTS = os.path.join(HERE, "known_defects")
E4PI = math.exp(-4.0 * math.pi)
SWEEP_EPS = [0.2, 0.1, 0.05, 0.025]
RANDOM_FIELDS = 16
# one fixed draw for every workload seed, so that the seed decides neither
# the work of a pass (fresh draws spread its cost by a third) nor whether
# the s1_pole defect (known_defects/) makes a field fail: that changes with
# 1% changes of the coefficients.  Seed 0 holds a field that takes 40 s.
FIELD_SEED = 1
# flow seeds: fixed points in window units, jittered per workload seed
FLOW_POINTS = ((-0.6, 0.5), (0.3, 0.6), (0.7, -0.4), (-0.2, -0.7),
               (0.5, 0.25), (-0.45, -0.3))
FLOW_JITTER = 0.05
SHORT_REPEAT = 3
STATUS_EXIT = {"Satisfied": 0, "Violated": 1, "Undetermined": 2}


class Mismatch(Exception):
    """The operation ran but its output misses the reference."""


@dataclass
class Op:
    name: str
    run: Callable[[], None]
    # runs of the operation in each untraced pass: the short operations of
    # `cycles` repeat so that op_p50 is not one sample of one operation
    repeat: int = 1


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def spec_path(name: str) -> str:
    return os.path.join(CORPUS, name + ".txt")


def load(name: str):
    with open(spec_path(name)) as fh:
        return fieldspec.parse(fh.read())


class CliError(Exception):
    """filippov exited with an input (3) or runtime (4) error."""


def _cli(argv: list[str]) -> int:
    code = cli.main(argv)
    if code in (cli.EXIT_INPUT, cli.EXIT_RUNTIME):
        raise CliError(f"exit {code}")
    return code


# -- cycles ----------------------------------------------------------------

def _unit_cycle_report(rep) -> None:
    _require(len(rep.cycles) == 1, f"{len(rep.cycles)} cycles, want 1")
    c = rep.cycles[0]
    _require(c.elementary == "yes", f"cycle elementary={c.elementary}")
    x = c.certificate["x"]
    _require(abs(abs(x) - 1.0) <= 1e-6, f"cycle at x={x}, want +-1")
    d = c.certificate["eta_prime"]
    _require(abs(d - E4PI) <= 1e-3 * E4PI, f"eta'={d}, want e^-4pi")


def cycles(seed: int, workdir: str) -> list[Op]:
    """Limit-cycle searches on fixed fields with exact references; the seed
    does not change them."""
    uc, uc2, rot = (load(n) for n in ("uc", "uc2", "rot"))
    Zuc, Zuc2, Zrot = uc.to_field(), uc2.to_field(), rot.to_field()
    phi = regularize.make_transition("smoothstep", 1)

    def gm(Z, window, check):
        def run():
            check(stability.check_gm(Z, stability.GmOptions(window=window)))
        return run

    def rotation(rep):
        _require(rep.overall == stability.VIOLATED, rep.overall)
        _require(any(w["kind"] == "non_elementary_cycle"
                     for w in rep.gm2.witnesses),
                 "no non_elementary_cycle witness")

    def regularized(Z, exact):
        def run():
            found = regularize.regularized_cycle_search(Z, phi, 0.05, 0.0,
                                                        (0.4, 1.6))
            _require(len(found) == 1, f"{len(found)} cycles, want 1")
            c = found[0]
            _require(abs(c.section_value - 1.0) <= 1e-6,
                     f"cycle at y={c.section_value}")
            d = c.return_derivative
            if exact:
                _require(abs(d - E4PI) <= 1e-3 * E4PI,
                         f"derivative {d}, want e^-4pi")
            else:
                _require(c.hyperbolic and d < 1.0, f"derivative {d}")
        return run

    return [Op("check_gm.uc", gm(Zuc, uc.window, _unit_cycle_report)),
            Op("check_gm.uc2", gm(Zuc2, uc2.window, _unit_cycle_report)),
            Op("check_gm.rot", gm(Zrot, rot.window, rotation), SHORT_REPEAT),
            Op("regularized.uc", regularized(Zuc, True), SHORT_REPEAT),
            Op("regularized.uc2", regularized(Zuc2, False), SHORT_REPEAT)]


# -- analyze ---------------------------------------------------------------

def _witness(report: dict, condition: str, kind: str) -> list[dict]:
    return [w for w in report["conditions"][condition]["witnesses"]
            if w["kind"] == kind]


def _near(points, target, tol) -> bool:
    return any(math.hypot(p[0] - target[0], p[1] - target[1]) <= tol
               for p in points)


def _check_spiral(rep: dict) -> None:
    xs = [w["x"] for w in _witness(rep, "interior_and_d",
                                   "non_elementary_d_point")]
    _require(any(abs(x) <= 1e-8 for x in xs), f"D-points {xs}, want x=0")
    mu = rep["equator"]["mu"]
    _require(abs(mu - math.pi) <= 1e-8, f"mu={mu}, want pi")


def _check_d_kind(kind: str, x: float):
    def check(rep: dict) -> None:
        d = rep["d_census"]
        found = [s["x"] for s in d["singularities"] + d["folds"]
                 if s["kind"] == kind]
        _require(any(abs(v - x) <= 1e-8 for v in found),
                 f"{kind} at {found}, want x={x}")
    return check


def _check_cubic(rep: dict) -> None:
    upper = [s["point"] for s in rep["interior_singularities"]["upper"]]
    lower = [s["point"] for s in rep["interior_singularities"]["lower"]]
    _require(_near(upper, (0.0, 1.153), 1e-3), f"upper saddles {upper}")
    _require(_near(lower, (-2.195, -2.116), 1e-3), f"lower saddles {lower}")


# name, extra CLI arguments, reference exit code, reference check
NAMED_ANALYZE = (
    ("spiral", [], 1, _check_spiral),
    ("clean", ["--optimistic"], 0, None),
    ("const", [], 2, None),
    ("saddle", [], 2, _check_d_kind("FzSaddle", -1.0)),
    ("fold", [], 2, _check_d_kind("FoldX", 0.0)),
    ("cubic_saddles", [], 2, _check_cubic),
)


def analyze(seed: int, workdir: str) -> list[Op]:
    """`filippov analyze` on the named specs, on RANDOM_FIELDS generated
    ones and on the known-defect reproducers; a report without a reference
    must parse and its exit code match overall.  The seed does not change
    the inputs.  Each reproducer fails in every pass until its defect is
    fixed, so that the defect shows in every run alike."""
    out = os.path.join(workdir, "report.json")

    def op(path, extra, want_code, check):
        def run():
            code = _cli(["analyze", path, "--out", out] + extra)
            with open(out) as fh:
                rep = json.load(fh)
            _require(code == STATUS_EXIT[rep["overall"]],
                     f"exit {code} for {rep['overall']}")
            if want_code is not None:
                _require(code == want_code, f"exit {code}, want {want_code}")
            if check is not None:
                check(rep)
        return run

    ops = [Op(f"analyze.{name}", op(spec_path(name), extra, code, check))
           for name, extra, code, check in NAMED_ANALYZE]
    gen = os.path.join(workdir, "generated")
    for k, path in enumerate(write_fields(FIELD_SEED, RANDOM_FIELDS, gen)):
        ops.append(Op(f"analyze.random{k:02d}", op(path, [], None, None)))
    for name in sorted(os.listdir(KNOWN_DEFECTS)):
        path = os.path.join(KNOWN_DEFECTS, name)
        stem = os.path.splitext(name)[0]
        ops.append(Op(f"analyze.defect.{stem}", op(path, [], None, None)))
    return ops


# -- sweep -----------------------------------------------------------------

def sweep(seed: int, workdir: str) -> list[Op]:
    """epsilon_sweep on fixed fields with exact references; the seed does
    not change them."""
    saddle, fold = load("saddle").to_field(), load("fold").to_field()
    families = (("smoothstep1", regularize.make_transition("smoothstep", 1)),
                ("bump", regularize.make_transition("bump")))

    def saddle_op(phi):
        def run():
            rows = regularize.epsilon_sweep(saddle, phi, (-2.0, 0.0),
                                            SWEEP_EPS)
            errs = []
            for row in rows:
                kinds = [s.type.value for s in row.singularities]
                _require(kinds == ["Saddle"],
                         f"eps={row.epsilon}: {kinds}, want one Saddle")
                errs.append(abs(row.singularities[0].position[0] + 1.0))
            _require(all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])),
                     f"distances to x=-1 not decreasing: {errs}")
        return run

    def fold_op(phi):
        def run():
            rows = regularize.epsilon_sweep(fold, phi, (-2.0, 2.0), SWEEP_EPS)
            n = [len(row.singularities) for row in rows]
            _require(n == [0] * len(SWEEP_EPS), f"singularities {n}")
        return run

    return ([Op(f"sweep.saddle.{name}", saddle_op(phi))
             for name, phi in families]
            + [Op(f"sweep.fold.{name}", fold_op(phi))
               for name, phi in families])


# -- trajectories ----------------------------------------------------------

def _saddle_tags(x: float, y: float) -> list[str]:
    """Arcs of X = (x, -1), Y = (1, 1) in the window [-2, 2]^2: the first
    arc reaches D (where every point slides away from x = -1) unless it
    leaves the window first."""
    if y > 0:
        return ["X", "FZ"] if abs(x * math.exp(y)) < 2.0 else ["X"]
    return ["Y", "FZ"] if x - y < 2.0 else ["Y"]


def _const_tags(x: float, y: float) -> list[str]:
    """Arcs of the constant field (1, 1) in [-2, 2]^2: a start below D
    crosses the sewing line unless it leaves the window first."""
    if y > 0:
        return ["X"]
    return ["Y", "X"] if x - y < 2.0 else ["Y"]


# spec, window, final event, closure, expected arcs of a seed (or None),
# CSS classes the portrait must and must not contain
TRAJECTORY_SPECS = (
    ("uc", (-5.0, 5.0, -5.0, 5.0), "Closed", "Type1", None,
     ["arc-sewing"], ["arc-sliding"]),
    ("uc2", (-5.0, 5.0, -5.0, 5.0), "Closed", "Type1", None,
     ["arc-sewing"], ["arc-sliding"]),
    ("rot", (-3.0, 3.0, -3.0, 3.0), "Closed", "Type1", None,
     ["arc-sewing"], ["arc-sliding"]),
    ("saddle", (-2.0, 2.0, -2.0, 2.0), "WindowExit", "No", _saddle_tags,
     ["arc-sliding", "glyph-saddle"], ["arc-sewing"]),
    ("fold", (-2.0, 2.0, -2.0, 2.0), "WindowExit", "No", None,
     ["arc-sliding", "arc-sewing", "glyph-fold"], []),
    ("spiral", (-2.0, 2.0, -2.0, 2.0), "WindowExit", "No", None,
     ["arc-sewing"], ["arc-sliding"]),
    ("const", (-2.0, 2.0, -2.0, 2.0), "WindowExit", "No", _const_tags,
     ["arc-sewing"], ["arc-sliding"]),
)


def flow_seeds(seed: int, window) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    hx, hy = (window[1] - window[0]) / 2, (window[3] - window[2]) / 2
    cx, cy = (window[1] + window[0]) / 2, (window[3] + window[2]) / 2
    return [(cx + hx * (u + rng.uniform(-FLOW_JITTER, FLOW_JITTER)),
             cy + hy * (v + rng.uniform(-FLOW_JITTER, FLOW_JITTER)))
            for u, v in FLOW_POINTS]


def trajectories(seed: int, workdir: str) -> list[Op]:
    """`filippov portrait` and `filippov flow` from jittered seeds on the
    corpus specs; each flow must end with its spec's event and arcs."""
    ops = []
    for k, (name, window, final, closure, tags_of, has, lacks) in \
            enumerate(TRAJECTORY_SPECS):
        path = spec_path(name)
        win = ",".join("%.17g" % v for v in window)

        def portrait(path=path, win=win, has=has, lacks=lacks):
            svg_path = os.path.join(workdir, "portrait.svg")
            _cli(["portrait", path, "--window=" + win, "--out", svg_path])
            with open(svg_path) as fh:
                svg = fh.read()
            for cls in ["frame", "streak"] + has:
                _require(f'class="{cls}"' in svg, f"no class {cls}")
            for cls in lacks:
                _require(f'class="{cls}"' not in svg, f"class {cls}")

        ops.append(Op(f"portrait.{name}", portrait))
        for x, y in flow_seeds(seed * 1000 + k, window):
            def flow(path=path, win=win, x=x, y=y, final=final,
                     closure=closure, tags_of=tags_of):
                csv_path = os.path.join(workdir, "flow.csv")
                start = "%.17g,%.17g" % (x, y)
                _cli(["flow", path, "--window=" + win, "--seed=" + start,
                      "--out", csv_path])
                with open(csv_path + ".events.json") as fh:
                    events = json.load(fh)
                kinds = [e["kind"] for e in events["events"]]
                _require(kinds and kinds[-1] == final,
                         f"from {start}: events {kinds}, want final {final}")
                _require(events["closed"] == closure,
                         f"from {start}: closed={events['closed']}, "
                         f"want {closure}")
                if tags_of is not None:
                    with open(csv_path) as fh:
                        next(fh)
                        tags = []
                        for line in fh:
                            tag = line.rstrip("\n").rsplit(",", 1)[1]
                            if not tags or tags[-1] != tag:
                                tags.append(tag)
                    want = tags_of(x, y)
                    _require(tags == want,
                             f"from {start}: arcs {tags}, want {want}")
            # the six flows of a spec are samples of one operation, so that
            # op_p50 falls among operations of 60-90 ms, not on the fastest
            # of six 30 ms rotation flows, a noisy minimum
            ops.append(Op(f"flow.{name}", flow))
    return ops


WORKLOADS = {"cycles": cycles, "analyze": analyze, "sweep": sweep,
             "trajectories": trajectories}
