"""How fast the host runs Python at the moment, so that timings can be
stated at one reference speed.

The sandbox shares 2 cores.  A fixed piece of pure-Python work takes either
about 2.1 ms or about 3.5 ms, flipping every few seconds, and the share of
slow time drifts over minutes: the same `cycles` pass took 19.5 s and
29.4 s five minutes apart.  A probe timed many times while the operations
run sees the same share of slow time as they do.  Dividing a time by
mean(probe) / REF_PROBE_S states it at the speed at which the probe takes
REF_PROBE_S; filippov code is not in the probe, so a change to filippov
moves the normalized time as much as the raw one.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_PROBE_S = 0.0005   # probe time on a quiet host
PROBE_LOOPS = 6000
PERIOD_S = 0.05        # one probe per period while sampling: ~1% of the time
NEAREST = 10           # fewest probes behind the slowdown of an interval


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    t0 = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return perf_counter() - t0


class Sampler:
    """Run probe() every PERIOD_S seconds from SIGALRM while the `with`
    block runs.  The handler runs in the main thread between bytecodes,
    so it also samples while an operation is in progress."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.times.append(perf_counter())
        self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        return slowdown(self.samples)

    def slowdown_during(self, start: float, end: float) -> float:
        """Slowdown over the probes taken from `start` to `end`, widened on
        both sides to the NEAREST probes when fewer fell inside: the host
        keeps one state for a few seconds, so probes next to a short
        operation tell its speed better than those of the whole run."""
        i, j = bisect_left(self.times, start), bisect_right(self.times, end)
        while j - i < NEAREST and (i > 0 or j < len(self.times)):
            i, j = max(0, i - 1), min(len(self.times), j + 1)
        return slowdown(self.samples[i:j])


def slowdown(samples: list[float]) -> float:
    """Mean probe time over REF_PROBE_S; 1 when no sample was taken."""
    if not samples:
        return 1.0
    return sum(samples) / len(samples) / REF_PROBE_S
