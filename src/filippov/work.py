"""The package's counts of its own numerical work, kept for this process.

Each count is made where the work happens, once per call and on entry, so
a call that raises counts too:

- solves: ODE solves (flow._integrate);
- rhs_evaluations: their right-hand side evaluations, as scipy's DOP853
  counts them (nfev), with each one made again on numpy scalars;
- crossing_searches: steps that the stepper's screen hands to the crossing
  search in Python (flow._crossing);
- reach_scans: scans of a separatrix branch's points against another
  saddle's branch seed (flow._reaches);
- hybrid_runs: runs under the Filippov rules (flow.advance_hybrid);
- return_maps: first-return maps (flow.return_map);
- trap_exits: hybrid runs that end in a sink's trap (EnterSink);
- branch_traps: separatrix branches of the connection probe that end in
  a trap (flow._trace_branch);
- trap_searches: radius searches of a node's or focus's trap, one per
  field, point, window and tolerances (flow._trap_search);
- root_isolations: real-root isolations (polys.univariate_roots);
- rhs, horner: right-hand sides and Horner evaluators generated
  (polys._generate, by label).

A reader takes the difference of two snapshots (since).
"""

WORK = dict.fromkeys(
    ("solves", "rhs_evaluations", "crossing_searches", "reach_scans",
     "hybrid_runs", "return_maps", "trap_exits", "branch_traps",
     "trap_searches", "root_isolations", "rhs", "horner"), 0)


def since(before: dict) -> dict:
    """The counts added since before, a copy of WORK."""
    return {key: WORK[key] - before[key] for key in WORK}
