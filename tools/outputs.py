"""Output manifest: the sha256 digest and exit code of every file that a
fixed list of 889 `filippov` calls writes, so that a change that claims
the same outputs can show it, and one that changes outputs lists them.

The calls run through filippov.cli.main, in one process:

- 372 `analyze` reports: the 9 specs of bench/corpus, the reproducer
  bench/known_defects/s1_pole.txt and the 16 fields that
  bench/gen_fields.write_fields draws for each of the seeds 1-11, each
  with and without --optimistic;
- for each of the 7 specs of workloads.TRAJECTORY_SPECS at the workload
  seeds 1-10, one `portrait` SVG and 6 `flow` CSVs with their events
  files, from the starts workloads.flow_seeds(seed * 1000 + k, window)
  that the trajectories workload uses (70 SVGs, 420 CSVs, 420 events);
- 27 `sweep` tables: the 9 corpus specs under smoothstep1, smoothstep3
  and bump, at the epsilons of workloads.SWEEP_EPS.

That is 1,309 files.  Each line of a manifest is `digest exit path`, the
path relative to the output directory, sorted by path.

    python3 tools/outputs.py --write DIR > MANIFEST
    python3 tools/outputs.py --check tools/outputs.sha256

--write makes the files in DIR and prints their manifest.  --check makes
them in a temporary directory, prints each file whose digest or exit code
differs from MANIFEST, or that only one side has, with its category, and
exits 1 if any does.  tools/outputs.sha256 is the manifest of the
committed tree: a change that alters outputs on purpose writes it again,
and its diff is the list of changed files.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from filippov import cli  # noqa: E402
import gen_fields  # noqa: E402
import workloads  # noqa: E402

GENERATOR_SEEDS = range(1, 12)
WORKLOAD_SEEDS = range(1, 11)
PHIS = ("smoothstep1", "smoothstep3", "bump")


def calls(directory: str, specs: str):
    """(argv, outputs) of every call that writes into directory, with
    outputs relative to it; the generated fields are written to specs."""
    def at(out):
        return os.path.join(directory, out)

    corpus = [(f"corpus/{name[:-4]}", os.path.join(workloads.CORPUS, name))
              for name in sorted(os.listdir(workloads.CORPUS))]
    fields = corpus + [("known_defects/s1_pole", os.path.join(
        workloads.KNOWN_DEFECTS, "s1_pole.txt"))]
    for seed in GENERATOR_SEEDS:
        for path in gen_fields.write_fields(
                seed, workloads.RANDOM_FIELDS,
                os.path.join(specs, f"seed{seed:02d}")):
            stem = os.path.splitext(os.path.basename(path))[0]
            fields.append((f"seed{seed:02d}/{stem}", path))
    for mode, extra in (("plain", []), ("optimistic", ["--optimistic"])):
        for name, path in fields:
            out = f"analyze/{mode}/{name}.json"
            yield ["analyze", path, "--out", at(out)] + extra, [out]
    for seed in WORKLOAD_SEEDS:
        for k, (name, window, *_) in enumerate(workloads.TRAJECTORY_SPECS):
            path = workloads.spec_path(name)
            win = "--window=" + ",".join("%.17g" % v for v in window)
            out = f"portrait/seed{seed:02d}/{name}.svg"
            yield ["portrait", path, win, "--out", at(out)], [out]
            for j, start in enumerate(
                    workloads.flow_seeds(seed * 1000 + k, window)):
                out = f"flow/seed{seed:02d}/{name}_{j}.csv"
                yield (["flow", path, win, "--seed=%.17g,%.17g" % start,
                        "--out", at(out)], [out, out + ".events.json"])
    eps = ",".join(map(repr, workloads.SWEEP_EPS))
    for phi in PHIS:
        for name, path in corpus:
            out = f"sweep/{phi}/{name[len('corpus/'):]}.csv"
            yield ["sweep", path, "--phi", phi, "--eps", eps, "--out",
                   at(out)], [out]


def write(directory: str) -> dict[str, tuple[str, int]]:
    """Make every output in directory; returns path -> (digest, exit)."""
    manifest = {}
    with tempfile.TemporaryDirectory(prefix="outputs-specs-") as specs:
        for argv, outs in calls(directory, specs):
            paths = [os.path.join(directory, out) for out in outs]
            os.makedirs(os.path.dirname(paths[0]), exist_ok=True)
            code = cli.main(argv)
            for out, path in zip(outs, paths):
                digest = "missing"
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                manifest[out] = (digest, code)
    return manifest


def lines(manifest: dict[str, tuple[str, int]]) -> list[str]:
    return [f"{digest} {code} {path}"
            for path, (digest, code) in sorted(manifest.items())]


def read(path: str) -> dict[str, tuple[str, int]]:
    manifest = {}
    with open(path) as fh:
        for line in fh:
            digest, code, out = line.split()
            manifest[out] = (digest, int(code))
    return manifest


def category(path: str) -> str:
    if path.endswith(".events.json"):
        return "flow events"
    return {"analyze": "analyze report", "portrait": "portrait SVG",
            "flow": "flow CSV", "sweep": "sweep table"}[path.split("/")[0]]


def check(expected: dict[str, tuple[str, int]],
          found: dict[str, tuple[str, int]]) -> int:
    """Print every difference; 1 if there is one, else 0."""
    differ = {}
    for path in sorted(expected.keys() | found.keys()):
        want, got = expected.get(path), found.get(path)
        if want == got:
            continue
        what = ("only in the manifest" if got is None
                else "not in the manifest" if want is None
                else f"exit {want[1]} -> {got[1]}" if want[0] == got[0]
                else f"digest differs, exit {want[1]} -> {got[1]}")
        print(f"{category(path)}: {path}: {what}")
        differ[category(path)] = differ.get(category(path), 0) + 1
    codes = len({p.rsplit(".events.json", 1)[0] for p in found})
    print(f"{len(found)} files of {codes} calls, "
          f"{sum(differ.values())} differ"
          + "".join(f", {n} {c}" for c, n in sorted(differ.items())))
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="DIR",
                       help="make the outputs in DIR, print their manifest")
    group.add_argument("--check", metavar="MANIFEST",
                       help="make the outputs and compare with MANIFEST")
    args = parser.parse_args()
    if args.write:
        os.makedirs(args.write, exist_ok=True)
        print("\n".join(lines(write(args.write))))
        return 0
    expected = read(args.check)
    with tempfile.TemporaryDirectory(prefix="outputs-") as directory:
        return check(expected, write(directory))


if __name__ == "__main__":
    sys.exit(main())
