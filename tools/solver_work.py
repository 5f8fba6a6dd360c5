"""Solver-work gate: runs every operation of the benchmark's workloads
(bench/workloads.py, seed 1) once, in one process and in the order of
WORKLOADS, and reads the work that the package counts itself over each
pass (filippov.work, where each count is defined): solves, RHS
evaluations, steps searched for crossings, reach scans, hybrid runs, those
that end in a trap, probe branches that end in a trap, trap searches,
return maps and right-hand sides generated, and on a line of their own its
real-root isolations (polys.univariate_roots).

It prints the counts of each workload.  cycles and trajectories then run
a second time, straight after their pass and outside its counts, and the
repeat must generate no right-hand side: every field and kernel the pass
built is cached where the repeat finds it.  analyze runs between no pass
and its repeat, as its 26 specs evict the fields that fieldspec keeps.

    python3 tools/solver_work.py

Exits 1 if an operation fails, if cycles, analyze or trajectories makes no
solve, no evaluation, no crossing search or no right-hand side, or
analyze no reach scan, no run that ends in a trap or no probe branch that
ends in one, if analyze makes more than 140,000 evaluations in more than
200 solves, cycles more than 35,000 in more than 75 solves or
trajectories more than 55,000 in more than 450 solves, if cycles searches
more than 170 steps for crossings, analyze more than 400 or trajectories
more than 400, if analyze makes more than 300 reach scans or more than 90
hybrid runs, if analyze makes more than 20 trap searches, if cycles makes
more than 26 return maps or analyze more than 65, if cycles generates
more than 18 right-hand sides, analyze more than 52 or trajectories more
than 20, if analyze makes more than 400 root isolations, or if a repeat
generates any.

A census seed that lies on, or whose return lands on, a cycle already
found stops there, so cycles makes 22 return maps.  A spec parsed again
returns the field built for it before (fieldspec.FieldSpec.to_field),
with the right-hand sides cached on it, and a regularized field's kernels
are cached on its piecewise field, so trajectories generates 16
right-hand sides and cycles 16, and the repeats generate 0.  The
portrait's streaks are solved at tols.root * portrait.STREAK_SLACK, so
trajectories makes 50,054 evaluations, 22,965 of them in its 7
portraits.  The census skips the seeds behind a run that left the window
and the fold runs of a field whose D census has no sliding or tangency
arc, and a probe branch ends in a cut trap, so analyze makes 187 solves,
129,023 evaluations, 339 crossing searches, 81 hybrid runs and 58 return
maps.  The probe traces a stable separatrix backward in time on its
field's own kernel, and a reversed motion along D on the sliding field's,
so analyze generates 49 right-hand sides.  The census and the probe each
take the trap of every node, focus and center that check_gm hands them,
the census only where the field's divergence is negative, and sink_trap
caches its radius search on the field, so the probe's cut traps reuse the
census's searches: analyze makes 15 trap searches in 21 sink_trap calls,
where a search per call would make about twice as many.  The roots of each
polynomial's p(x, 0) on D and of each top coefficient's cot-polynomial
are isolated once per field and window, so analyze makes 364 root
isolations (cycles 24, sweep 360, trajectories 39); more than 400 means
some census asks for them again.
"""

import os
import shutil
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from filippov.work import WORK, since  # noqa: E402
import workloads  # noqa: E402

# (workload, counter) -> most allowed
BOUNDS = {("analyze", "rhs_evaluations"): 140_000, ("analyze", "solves"): 200,
          ("cycles", "rhs_evaluations"): 35_000, ("cycles", "solves"): 75,
          ("trajectories", "rhs_evaluations"): 55_000,
          ("trajectories", "solves"): 450,
          ("cycles", "crossing_searches"): 170,
          ("analyze", "crossing_searches"): 400,
          ("trajectories", "crossing_searches"): 400,
          ("analyze", "reach_scans"): 300, ("analyze", "hybrid_runs"): 90,
          ("analyze", "trap_searches"): 20,
          ("cycles", "return_maps"): 26, ("analyze", "return_maps"): 65,
          ("cycles", "rhs"): 18, ("analyze", "rhs"): 52,
          ("trajectories", "rhs"): 20, ("analyze", "root_isolations"): 400}
# workload -> counters that must not be 0
SOLVES = ("solves", "rhs_evaluations", "crossing_searches", "rhs")
NONZERO = {"cycles": SOLVES + ("return_maps",),
           "analyze": SOLVES + ("reach_scans", "trap_exits", "branch_traps",
                                "return_maps"),
           "trajectories": SOLVES}
# workloads run a second time straight after their pass, outside its
# counts: the repeat must generate no right-hand side
REPEATED = ("cycles", "trajectories")


def run_pass(name: str, make) -> tuple[bool, dict]:
    """Run every operation of workload name once; returns whether all of
    them ran, and the work they added."""
    ok, before = True, dict(WORK)
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
    return ok, since(before)


def main() -> int:
    ok = True
    for name, make in workloads.WORKLOADS.items():
        ran, work = run_pass(name, make)
        ok &= ran
        print(f"{name}: {work['solves']} solver calls, "
              f"{work['rhs_evaluations']} RHS evaluations, "
              f"{work['crossing_searches']} steps searched for crossings, "
              f"{work['reach_scans']} reach scans, "
              f"{work['hybrid_runs']} hybrid runs, "
              f"{work['trap_exits']} of them ended in a trap, "
              f"{work['branch_traps']} probe branches ended in a trap, "
              f"{work['trap_searches']} trap searches, "
              f"{work['return_maps']} return maps, "
              f"{work['rhs']} right-hand sides generated")
        print(f"{name}: {work['root_isolations']} root isolations")
        for key, value in work.items():
            bound = BOUNDS.get((name, key))
            if (key in NONZERO.get(name, ()) and value <= 0) \
                    or (bound is not None and value > bound):
                print(f"{name}.{key} = {value} is out of bounds")
                ok = False
        if name in REPEATED:
            ran, again = run_pass(name, make)
            ok &= ran
            print(f"{name} again: {again['rhs']} right-hand sides generated")
            if again["rhs"]:
                print(f"{name} again generates right-hand sides")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
