"""Benchmark harness for filippov.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cycles, analyze, sweep, trajectories, or `all` for every
workload in turn.  Untraced (--trace 0), the workload's operations run
round-robin in this single process and thread for a fixed number of passes,
as many as take about S seconds at the reference host speed (always at least
one), so that the work of a run, and the operations it attempts, depend on
the workload, seed and S alone.  The end-to-end metrics are printed:
raw times, and the same times at a reference host speed (`_norm_s`,
see hostspeed.py), which are the ones the result line carries.
Traced (--trace 1), one untraced pass runs in a child process, then one
pass runs with every layer wrapped (see tracer.py), and the per-layer
metrics are printed with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Operations that raise or make the
CLI exit 3 or 4 count as failed; an output that misses its reference counts
as failed and also makes `correct` false.
"""

import os

# pinned before numpy is imported, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from hostspeed import Sampler  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cycles", "analyze", "sweep", "trajectories")
SETUP_RUNS = 5
# printed for reading, left out of the result line: BENCHMARK.json bounds
# the times at reference host speed instead (see hostspeed.py)
PRINTED_ONLY = ("wall_s", "cpu_s", "op_p50_s", "setup_raw_s", "host_slowdown")
CHILD_TIMEOUT = 170
# seconds of one pass at the reference host speed (wall_norm_s, rounded)
NOMINAL_PASS_S = {"cycles": 23.0, "analyze": 14.5, "sweep": 12.0,
                  "trajectories": 2.5}


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time at the reference host speed; "
                        "0 runs exactly one pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def check_environment() -> None:
    if "FILIPPOV_TOLERANCE_SCALE" in os.environ:
        die("FILIPPOV_TOLERANCE_SCALE is set; it changes the program "
            "being measured, unset it")
    if not os.path.isfile(os.path.join(SRC, "filippov", "__init__.py")):
        die(f"no filippov sources under {SRC}")


def import_program(traced: bool):
    """Import filippov from this checkout; returns the tracer or None."""
    sys.path[:0] = [SRC, HERE]
    tracer = None
    if traced:
        import tracer as tracer_mod
        tracer = tracer_mod.install()
    import filippov
    if not os.path.abspath(filippov.__file__).startswith(SRC + os.sep):
        die(f"filippov imported from {filippov.__file__}, not {SRC}")
    return tracer


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def conditions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def setup_seconds() -> tuple[float, float]:
    """Median set-up time of SETUP_RUNS fresh interpreters, raw and at the
    reference host speed."""
    probe = os.path.join(HERE, "setup_probe.py")
    raw, norm = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, probe], capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT, check=True)
        seconds, slowdown = map(float, out.stdout.split()[-2:])
        raw.append(seconds)
        norm.append(seconds / slowdown)
    return statistics.median(raw), statistics.median(norm)


def run_op(op):
    """(wall s, cpu s, None | (kind, message)) of one operation."""
    from workloads import Mismatch

    t0, c0 = perf_counter(), process_time()
    try:
        op.run()
        problem = None
    except Mismatch as exc:
        problem = ("wrong", str(exc))
    except Exception as exc:  # the harness records the failure and goes on
        traceback.print_exc(file=sys.stderr)
        problem = ("error", f"{type(exc).__name__}: {exc}")
    return perf_counter() - t0, process_time() - c0, problem


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems: list[tuple[str, str, str]] = []

    def add(self, name, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append((name,) + problem)

    @property
    def wrong(self) -> int:
        return sum(1 for p in self.problems if p[1] == "wrong")


def pass_count(workload: str, seconds: float) -> int:
    """Passes that take about `seconds` at the reference host speed.  A
    fixed count rather than a deadline: how many operations a run attempts
    must not depend on how fast the host happens to be."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def measure(ops, passes: int, tally: Tally) -> tuple[dict, str]:
    """Round-robin over ops for `passes` passes, each op `op.repeat` times
    in a pass.  Ops of one name are samples of one operation.  Per-op
    means, each times the op's count in `ops`, summed give the time of one
    pass: the host flips between a fast and a slow state every few seconds,
    and a median of such samples jumps between the two where a mean does
    not.  Each sample is scaled by the host speed while it ran
    (hostspeed.py)."""
    samples = {op.name: [] for op in ops}
    per_pass = Counter(op.name for op in ops)
    k = 0
    with Sampler() as speed:
        for _ in range(passes):
            for op in ops:
                for _ in range(op.repeat):
                    start = perf_counter()
                    wall, cpu, problem = run_op(op)
                    samples[op.name].append((start, wall, cpu))
                    tally.add(op.name, problem)
                    k += 1
    slow = speed.slowdown()
    walls, cpus, norm_walls, norm_cpus = [], [], [], []
    for s in samples.values():
        op_slow = [speed.slowdown_during(t, t + w) for t, w, _ in s]
        walls.append(statistics.fmean(w for _, w, _ in s))
        cpus.append(statistics.fmean(c for _, _, c in s))
        norm_walls.append(statistics.fmean(
            w / f for (_, w, _), f in zip(s, op_slow)))
        norm_cpus.append(statistics.fmean(
            c / f for (_, _, c), f in zip(s, op_slow)))

    def one_pass(means):
        return sum(per_pass[name] * m for name, m in zip(samples, means))

    metrics = {"wall_norm_s": (one_pass(norm_walls), "s"),
               "cpu_norm_s": (one_pass(norm_cpus), "s"),
               "op_p50_norm_s": (statistics.median(norm_walls), "s"),
               "wall_s": (one_pass(walls), "s"), "cpu_s": (one_pass(cpus), "s"),
               "op_p50_s": (statistics.median(walls), "s"),
               "host_slowdown": (slow, "ratio")}
    return metrics, (f"per-op means over {passes} passes ({k} samples) and "
                     f"{len(speed.samples)} host-speed probes; setup the "
                     f"median of {SETUP_RUNS} fresh interpreters")


def untraced_pass_wall(workload: str, seed: int) -> float:
    """wall_norm_s of one untraced pass, measured in a child process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["metrics"]["wall_norm_s"]["value"]


def traced(workload: str, seed: int, ops, tracer,
           tally: Tally) -> tuple[dict, str]:
    """One pass under the tracer, each operation in a span of its own."""
    base = untraced_pass_wall(workload, seed)
    start = tracer.snapshot()
    root = tracer.open_span("bench.pass")
    wall = 0.0
    with Sampler() as speed:
        for op in ops:
            span = tracer.open_span("op:" + op.name)
            w, _, problem = run_op(op)
            tracer.close_span(span)
            wall += w
            tally.add(op.name, problem)
    tracer.close_span(root)
    wall /= speed.slowdown()
    metrics = tracer.layer_metrics(start)
    metrics["trace.overhead"] = (wall / base, "ratio")
    return metrics, (f"one traced pass of {wall:.3f} s against one "
                     f"untraced pass of {base:.3f} s, both at reference "
                     f"host speed")


def run_workload(name: str, args, tracer, tally: Tally) -> tuple[dict, str]:
    import workloads

    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        ops = workloads.WORKLOADS[name](args.seed, workdir)
        if tracer is not None:
            return traced(name, args.seed, ops, tracer, tally)
        return measure(ops, pass_count(name, args.seconds), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    args = parse_args()
    check_environment()
    os.makedirs(OUT, exist_ok=True)
    tracer = import_program(bool(args.trace))
    print("conditions " + json.dumps(conditions(), sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    setup = None if args.trace else setup_seconds()

    results = {}
    tally = Tally()
    for name in names:
        before = (tally.attempted, len(tally.problems))
        metrics, note = run_workload(name, args, tracer, tally)
        if setup is not None:
            metrics["setup_s"] = (setup[1], "s")
            metrics["setup_raw_s"] = (setup[0], "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
        attempted = tally.attempted - before[0]
        failed = len(tally.problems) - before[1]
        for key, (value, unit) in metrics.items():
            print(f"{name}.{key} = {value:.6g} {unit}")
        print(f"{name}.failed_frac = {failed / attempted:.6g} "
              f"({failed} of {attempted} operations)")
        print(f"{name}: {note}")
        for op, kind, message in tally.problems[before[1]:]:
            print(f"{name}: FAILED {op} ({kind}): {message}")
        prefix = "" if len(names) == 1 else name + "."
        for key, (value, unit) in metrics.items():
            if key not in PRINTED_ONLY:
                results[prefix + key] = {"value": value, "unit": unit}
    if tracer is not None:
        tracer.dump(os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": len(tally.problems),
                      "metrics": results}))


if __name__ == "__main__":
    main()
