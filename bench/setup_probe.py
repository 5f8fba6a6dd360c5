"""One set-up of the benchmark in a fresh interpreter: import filippov, parse
every corpus spec, build its field and make both transition functions.
Prints the seconds this took and the host slowdown sampled meanwhile (see
hostspeed.py).  run.py starts it several times for setup_s.

    python3 bench/setup_probe.py
"""

import os
import sys
from time import perf_counter

from hostspeed import Sampler

if __name__ == "__main__":
    with Sampler() as speed:
        t0 = perf_counter()
        here = os.path.dirname(os.path.abspath(__file__))
        sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
        from filippov import cli, fieldspec, regularize  # noqa: F401

        corpus = os.path.join(here, "corpus")
        for name in sorted(os.listdir(corpus)):
            with open(os.path.join(corpus, name)) as fh:
                fieldspec.parse(fh.read()).to_field()
        regularize.make_transition("smoothstep", 1)
        regularize.make_transition("bump")
        seconds = perf_counter() - t0
    print(repr(seconds), repr(speed.slowdown()))
