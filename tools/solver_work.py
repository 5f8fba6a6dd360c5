"""Solver-work gate: runs every operation of the benchmark's workloads
(bench/workloads.py, seed 1) once, with flow._integrate, the one ODE solve
of the package, wrapped to count its calls and the right-hand side
evaluations of each, and FloatDOP853._crossing wrapped to count the steps
that the stepper's screen hands to the crossing search in Python, and
prints the counts of each workload.

    python3 tools/solver_work.py

Exits 1 if an operation fails, if cycles, analyze or trajectories makes no
solve, no evaluation or no crossing search, if analyze makes more than
230,000 evaluations or cycles more than 70,000 in more than 150 solves, or
if cycles searches more than 400 steps for crossings, analyze more than 700
or trajectories more than 400.
"""

import os
import shutil
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from filippov import flow  # noqa: E402
import workloads  # noqa: E402

# (workload, counter) -> most allowed
BOUNDS = {("analyze", "nfev"): 230_000, ("cycles", "nfev"): 70_000,
          ("cycles", "solver_calls"): 150, ("cycles", "crossing_steps"): 400,
          ("analyze", "crossing_steps"): 700,
          ("trajectories", "crossing_steps"): 400}
GATED = ("cycles", "analyze", "trajectories")


def count_solves(counts: dict) -> None:
    """Wrap flow._integrate so that each solve adds to counts."""
    integrate = flow._integrate

    def counted(rhs, *args, **kwargs):
        def rhs_counted(t, s):
            counts["nfev"] += 1
            return rhs(t, s)
        counts["solver_calls"] += 1
        return integrate(rhs_counted, *args, **kwargs)
    flow._integrate = counted


def count_crossing_steps(counts: dict) -> None:
    """Wrap FloatDOP853._crossing so that each step it searches adds to
    counts."""
    crossing = flow.FloatDOP853._crossing

    def counted(self, *args):
        counts["crossing_steps"] += 1
        return crossing(self, *args)
    flow.FloatDOP853._crossing = counted


def main() -> int:
    counts = {"solver_calls": 0, "nfev": 0, "crossing_steps": 0}
    count_solves(counts)
    count_crossing_steps(counts)
    ok = True
    for name, make in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=f"solver-work-{name}-")
        before = dict(counts)
        try:
            for op in make(1, workdir):
                try:
                    op.run()
                except Exception:  # report every failed operation
                    traceback.print_exc()
                    print(f"{name}: {op.name} failed")
                    ok = False
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        work = {k: counts[k] - before[k] for k in counts}
        print(f"{name}: {work['solver_calls']} solver calls, "
              f"{work['nfev']} RHS evaluations, "
              f"{work['crossing_steps']} steps searched for crossings")
        for key, value in work.items():
            bound = BOUNDS.get((name, key))
            if (name in GATED and value <= 0) \
                    or (bound is not None and value > bound):
                print(f"{name}.{key} = {value} is out of bounds")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
