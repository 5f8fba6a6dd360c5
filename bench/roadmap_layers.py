"""Layer numbers of ROADMAP item 1 that need more than the per-layer
metrics: read from the span dumps of traced runs.

    python3 bench/run.py --workload cycles --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 1
    python3 bench/roadmap_layers.py bench/out/trace-cycles-1.jsonl \\
        bench/out/trace-sweep-1.jsonl

Prints the RHS evaluations per return map inside `check_gm` on the unit
cycle, and the time of each emergent-singularity census by epsilon on the
saddle field with smoothstep1 (the sweep runs eps 0.2, 0.1, 0.05, 0.025).
"""

import json
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        return {s["id"]: s for s in map(json.loads, fh)}


def inside(spans: dict, op: str, name: str) -> list[dict]:
    """Spans called `name` below the span of operation `op`, in order."""
    def under(s):
        while s["parent"] in spans:
            s = spans[s["parent"]]
            if s["name"] == "op:" + op:
                return True
        return False
    return sorted((s for s in spans.values()
                   if s["name"] == name and under(s)),
                  key=lambda s: s["start"])


def main(cycles_path: str, sweep_path: str) -> None:
    cycles = load(cycles_path)
    maps = inside(cycles, "check_gm.uc", "flow.return_map")
    nfev = [s["counts"].get("nfev", 0) for s in maps]
    print(f"check_gm.uc: {len(maps)} return maps, "
          f"{sum(nfev) / len(maps):.0f} RHS evaluations per return map")
    sweep = load(sweep_path)
    census = inside(sweep, "sweep.saddle.smoothstep1", "regularize.emergent")
    secs = [s["end"] - s["start"] for s in census]
    print("emergent_singularities s by eps 0.2, 0.1, 0.05, 0.025: "
          + ", ".join(f"{t:.3f}" for t in secs))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/roadmap_layers.py CYCLES_TRACE "
                 "SWEEP_TRACE")
    main(sys.argv[1], sys.argv[2])
