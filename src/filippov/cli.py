"""Command-line front end.

Subcommands: analyze (full report, exit code mirrors the overall status),
flow (trajectory CSV plus an events sidecar), portrait (static SVG) and
sweep (emergent-singularity census per epsilon).  The flow CSV and the
sweep table write every number with 17 significant digits; the analyze
report and the flow events file write each float as Python's shortest
repr that reads back to it (json); the portrait writes canvas coordinates
with 6 (portrait._FMT).  Files are written atomically.  The flags of the spec
options (fieldspec.OPTIONS) are read as in a spec; a flag overrides the
spec, which overrides the default (_option).

Each cmd_* imports the layer it runs when it is called, so a process loads
only the modules of its own subcommand.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from . import fieldspec
from .errors import FieldSpecError, FilippovError
from .fieldspec import _fmt
from .polys import default_window
from .tolerances import default_tols

EXIT_SATISFIED = 0
EXIT_VIOLATED = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4

# the report's overall status (stability.SATISFIED, ...) -> exit code
_STATUS_EXIT = {
    "Satisfied": EXIT_SATISFIED,
    "Violated": EXIT_VIOLATED,
    "Undetermined": EXIT_UNDETERMINED,
}


def dumps_report(d: dict) -> str:
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def _umask() -> int:
    """The process's umask (reading it means setting it, so it is set
    back at once)."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def write_atomic(path: str, data: str) -> None:
    """Write data to path through a temporary file in its directory and a
    rename, with the mode a plain open() would give a new file:
    0o666 less the umask, where mkstemp makes 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, data: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(data)
    else:
        write_atomic(path, data)


def _load_spec(path: str):
    """The spec at path and its field."""
    with open(path) as fh:
        spec = fieldspec.parse(fh.read())
    return spec, spec.to_field()


def _option(args, spec, name: str, default=None):
    """Option name from its flag, split at commas and read as in a spec,
    else from the spec, else default (called if a function)."""
    flag = getattr(args, name)
    if flag is not None:
        return fieldspec.OPTIONS[name].read(flag.split(","))
    value = spec.options().get(name, default)
    return value() if callable(value) else value


def cmd_analyze(args) -> int:
    from . import stability

    spec, Z = _load_spec(args.spec)
    window = _option(args, spec, "window")
    opts = stability.GmOptions(window=window, optimistic=args.optimistic)
    report = stability.check_gm(Z, opts, default_tols())
    _emit(args.out, dumps_report(report.to_json_dict()))
    return _STATUS_EXIT[report.overall]


def cmd_flow(args) -> int:
    from . import flow

    spec, Z = _load_spec(args.spec)
    window = _option(args, spec, "window", lambda: default_window(Z))
    seed = _option(args, spec, "seed")
    if seed is None:
        raise FieldSpecError("flow needs a seed (--seed or spec)")
    if not (window[0] <= seed[0] <= window[1]
            and window[2] <= seed[1] <= window[3]):
        raise FieldSpecError(f"seed {seed} outside window {window}")
    horizon = _option(args, spec, "horizon", 100.0)
    tols = default_tols()
    side = "D" if abs(seed[1]) <= tols.event else ("N" if seed[1] > 0 else "S")
    traj = flow.advance_hybrid(Z, seed, side, horizon, window, tols)
    rows = ["t,x,y,field_tag"]
    for arc in traj.arcs:
        for t, (x, y) in zip(arc.ts.tolist(), arc.states[:, :2].tolist()):
            rows.append(f"{_fmt(t)},{_fmt(x)},{_fmt(y)},{arc.tag}")
    _emit(args.out, "\n".join(rows) + "\n")
    events = {
        "closed": traj.closed.value,
        "events": [{"time": e.time, "kind": e.kind.value,
                    "state": [e.state[0], e.state[1]]}
                   for e in traj.events],
    }
    sidecar = None if args.out in (None, "-") else args.out + ".events.json"
    _emit(sidecar, dumps_report(events))
    return EXIT_SATISFIED


def cmd_portrait(args) -> int:
    from . import portrait

    spec, Z = _load_spec(args.spec)
    window = _option(args, spec, "window", lambda: default_window(Z))
    svg = portrait.render_portrait(Z, window, tols=default_tols())
    _emit(args.out, svg)
    return EXIT_SATISFIED


def cmd_sweep(args) -> int:
    from . import regularize

    spec, Z = _load_spec(args.spec)
    eps = _option(args, spec, "eps")
    if not eps:
        raise FieldSpecError("sweep needs a nonempty epsilon list")
    window = _option(args, spec, "window", lambda: default_window(Z))
    phi = regularize.make_transition(*fieldspec.transition(
        _option(args, spec, "phi", "smoothstep1")))
    try:
        rows_out = regularize.epsilon_sweep(Z, phi, (window[0], window[1]),
                                            list(eps), default_tols())
    except ValueError as exc:
        raise FieldSpecError(str(exc)) from exc
    rows = ["epsilon,x,y,type,eig1_re,eig1_im,eig2_re,eig2_im"]
    for row in rows_out:
        for s in row.singularities:
            e1, e2 = s.eigenvalues
            rows.append(",".join([
                _fmt(row.epsilon), _fmt(s.position[0]), _fmt(s.position[1]),
                s.type.value, _fmt(e1.real), _fmt(e1.imag),
                _fmt(e2.real), _fmt(e2.imag)]))
    _emit(args.out, "\n".join(rows) + "\n")
    return EXIT_SATISFIED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: each
    parse_args call fills a new namespace, so no flag outlives its call."""
    parser = argparse.ArgumentParser(
        prog="filippov",
        description="Analyze planar piecewise polynomial vector fields "
                    "split along y = 0.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, flags, text in (
            ("analyze", cmd_analyze, ["window"],
             "full structural-stability report"),
            ("flow", cmd_flow, ["window", "seed", "horizon"],
             "hybrid trajectory export"),
            ("portrait", cmd_portrait, ["window"],
             "static SVG phase portrait"),
            ("sweep", cmd_sweep, ["window", "eps", "phi"],
             "emergent singularities per epsilon")):
        p = sub.add_parser(name, help=text)
        p.add_argument("spec", help="field spec file (text or JSON)")
        for flag in flags:
            p.add_argument("--" + flag,
                           metavar=fieldspec.OPTIONS[flag].metavar)
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(func=func)
        if func is cmd_analyze:
            p.add_argument("--optimistic", action="store_true",
                           help="report clean semi-decisions as Satisfied")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FieldSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FilippovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
