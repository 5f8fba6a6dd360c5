"""Seeded random piecewise polynomial fields, written as spec files.

The fields follow the random fields of the acceptance tests: every monomial
of total degree <= m is present with probability 0.7 and has a coefficient
uniform in [-2, 2]; the constant terms of Q1 and Q2 are nudged away from
zero so that D is not a line of singular points.  Degrees alternate 1 and 3
because only odd degrees have an analysis at infinity.

The same seed always gives the same fields.  The `analyze` workload uses
one fixed draw (see workloads.py) rather than the workload seed, because
the seed must not decide how much work a run does, nor whether a known
defect shows.

The generator uses only the standard library, so the program under test
receives nothing but the spec files it writes.

    python3 bench/gen_fields.py SEED COUNT OUTDIR
"""

from __future__ import annotations

import os
import random
import sys

TABLES = ("P1", "Q1", "P2", "Q2")
DEGREES = (1, 3)


def random_tables(rng: random.Random, m: int) -> dict:
    def table():
        return {(i, j): rng.uniform(-2.0, 2.0)
                for i in range(m + 1) for j in range(m + 1 - i)
                if rng.random() < 0.7}

    tables = {name: table() for name in TABLES}
    for name in ("Q1", "Q2"):
        c = tables[name].get((0, 0), 0.0) + rng.uniform(-2.0, 2.0)
        tables[name][(0, 0)] = c or 0.5
    if not any(i + j == m for t in tables.values() for (i, j) in t):
        tables["P1"][(m, 0)] = 1.0
    return tables


def spec_text(m: int, tables: dict, comment: str) -> str:
    lines = [f"# {comment}", f"degree {m}"]
    for name in TABLES:
        lines.append(f"{name}:")
        for (i, j), v in sorted(tables[name].items()):
            lines.append(f"{i} {j} {v:.17g}")
    return "\n".join(lines) + "\n"


def write_fields(seed: int, count: int, outdir: str) -> list[str]:
    """Write `count` spec files drawn from `seed`; the same seed always
    gives the same bytes."""
    rng = random.Random(seed)
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for k in range(count):
        m = DEGREES[k % len(DEGREES)]
        tables = random_tables(rng, m)
        text = spec_text(m, tables, f"random field {k}, seed {seed}, "
                                    f"degree {m}")
        path = os.path.join(outdir, f"random_{k:02d}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: python3 bench/gen_fields.py SEED COUNT OUTDIR")
    for p in write_fields(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]):
        print(p)
