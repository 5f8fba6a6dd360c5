"""Solver-work gate: runs every operation of the benchmark's workloads
(bench/workloads.py, seed 1) once, in one process and in the order of
WORKLOADS, with these wrapped to count their work:

- flow._integrate, the one ODE solve of the package: its calls and the
  right-hand side evaluations of each;
- flow._crossing: the steps that the stepper's screen hands to the
  crossing search in Python;
- flow._reaches: the scans of a separatrix branch's points against another
  saddle's branch seed (the connection probe's reach test);
- flow.advance_hybrid: the hybrid runs that end in the trap of a stable
  node or focus (EnterSink: only the cycle census watches them);
- flow.return_map: the cycle census's return maps;
- polys._generate: the right-hand sides it generates (label "rhs").

It prints the counts of each workload.  cycles and trajectories then run
a second time, straight after their pass and outside its counts, and the
repeat must generate no right-hand side: every field and kernel the pass
built is cached where the repeat finds it.  analyze runs between no pass
and its repeat, as its 26 specs evict the fields that fieldspec keeps.

    python3 tools/solver_work.py

Exits 1 if an operation fails, if cycles, analyze or trajectories makes no
solve, no evaluation, no crossing search or no right-hand side, or
analyze no reach scan or no run that ends in a trap, if analyze makes
more than 180,000 evaluations in more than 260 solves, cycles more than
35,000 in more than 75 solves or trajectories more than 75,000 in more
than 450 solves, if cycles searches more than 170 steps for crossings,
analyze more than 700 or trajectories more than 400, if analyze makes
more than 300 reach scans, if cycles makes more than 26 return maps or
analyze more than 100, if cycles generates more than 18 right-hand
sides or trajectories more than 20, or if a repeat generates any.

A census seed that lies on, or whose return lands on, a cycle already
found stops there, so cycles makes 22 return maps, where one secant per
seed to convergence made 60.  A spec parsed again returns the field built
for it before (fieldspec.FieldSpec.to_field), with the right-hand sides
cached on it, and a regularized field's kernels are cached on its
piecewise field, so trajectories generates 16 right-hand sides (87 when
each CLI call built its own field) and cycles 16 (24 when each
regularized search generated its own).  The repeats generate 0; with the
kernels cached on each RegularizedField instead, the repeat of cycles
generates 4, though its pass still reads 16.
"""

import os
import shutil
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from filippov import flow, polys  # noqa: E402
import workloads  # noqa: E402

# (workload, counter) -> most allowed
BOUNDS = {("analyze", "nfev"): 180_000, ("analyze", "solver_calls"): 260,
          ("cycles", "nfev"): 35_000, ("cycles", "solver_calls"): 75,
          ("trajectories", "nfev"): 75_000,
          ("trajectories", "solver_calls"): 450,
          ("cycles", "crossing_steps"): 170,
          ("analyze", "crossing_steps"): 700,
          ("trajectories", "crossing_steps"): 400,
          ("analyze", "reach_scans"): 300,
          ("cycles", "return_maps"): 26, ("analyze", "return_maps"): 100,
          ("cycles", "rhs_generated"): 18,
          ("trajectories", "rhs_generated"): 20}
# workload -> counters that must not be 0
SOLVES = ("solver_calls", "nfev", "crossing_steps", "rhs_generated")
NONZERO = {"cycles": SOLVES + ("return_maps",),
           "analyze": SOLVES + ("reach_scans", "sink_runs", "return_maps"),
           "trajectories": SOLVES}
# workloads run a second time straight after their pass, outside its
# counts: the repeat must generate no right-hand side
REPEATED = ("cycles", "trajectories")


def count_solves(counts: dict) -> None:
    """Wrap flow._integrate so that each solve adds to counts."""
    integrate = flow._integrate

    def counted(rhs, *args, **kwargs):
        def rhs_counted(t, *s):
            counts["nfev"] += 1
            return rhs(t, *s)
        counts["solver_calls"] += 1
        return integrate(rhs_counted, *args, **kwargs)
    flow._integrate = counted


def count_calls(counts: dict, module, name: str, key: str,
                counted=None) -> None:
    """Wrap module.name so that each call adds 1 to counts[key]: before
    the call, so that a call that raises counts too, or, given counted,
    after it when counted(result, *args, **kwargs) holds."""
    func = getattr(module, name)

    def wrapped(*args, **kwargs):
        if counted is None:
            counts[key] += 1
            return func(*args, **kwargs)
        result = func(*args, **kwargs)
        counts[key] += bool(counted(result, *args, **kwargs))
        return result
    setattr(module, name, wrapped)


def ends_in_trap(traj, *args, **kwargs) -> bool:
    """Whether a hybrid run ended in a trap (EnterSink)."""
    return bool(traj.events) \
        and traj.events[-1].kind is flow.EventKind.ENTER_SINK


def generates_rhs(namespace, source, label, **names) -> bool:
    """Whether polys._generate generated a right-hand side."""
    return label == "rhs"


def run_pass(name: str, make, counts: dict) -> tuple[bool, dict]:
    """Run every operation of workload name once; returns whether all of
    them ran, and the counts they added."""
    ok, before = True, dict(counts)
    workdir = tempfile.mkdtemp(prefix=f"solver-work-{name}-")
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
    return ok, {k: counts[k] - before[k] for k in counts}


def main() -> int:
    counts = {"solver_calls": 0, "nfev": 0, "crossing_steps": 0,
              "reach_scans": 0, "sink_runs": 0, "return_maps": 0,
              "rhs_generated": 0}
    count_solves(counts)
    count_calls(counts, flow, "_crossing", "crossing_steps")
    count_calls(counts, flow, "_reaches", "reach_scans")
    count_calls(counts, flow, "advance_hybrid", "sink_runs", ends_in_trap)
    count_calls(counts, flow, "return_map", "return_maps")
    count_calls(counts, polys, "_generate", "rhs_generated", generates_rhs)
    ok = True
    for name, make in workloads.WORKLOADS.items():
        ran, work = run_pass(name, make, counts)
        ok &= ran
        print(f"{name}: {work['solver_calls']} solver calls, "
              f"{work['nfev']} RHS evaluations, "
              f"{work['crossing_steps']} steps searched for crossings, "
              f"{work['reach_scans']} reach scans, "
              f"{work['sink_runs']} hybrid runs ended in a trap, "
              f"{work['return_maps']} return maps, "
              f"{work['rhs_generated']} right-hand sides generated")
        for key, value in work.items():
            bound = BOUNDS.get((name, key))
            if (key in NONZERO.get(name, ()) and value <= 0) \
                    or (bound is not None and value > bound):
                print(f"{name}.{key} = {value} is out of bounds")
                ok = False
        if name in REPEATED:
            ran, again = run_pass(name, make, counts)
            ok &= ran
            print(f"{name} again: {again['rhs_generated']} right-hand "
                  "sides generated")
            if again["rhs_generated"]:
                print(f"{name} again generates right-hand sides")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
