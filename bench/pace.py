"""Machine pace: how fast this vCPU runs a fixed piece of Python right now.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over minutes (neighbours on sibling hyperthreads, shared
caches, frequency).  A time measured there says as much about the host
as about the program.  ``Pace`` samples that speed while the timed call
runs: a SIGALRM handler runs a fixed reference loop every ``interval``
seconds, on the same thread, between the program's own bytecodes, and
records how long the loop took.  ``factor`` is the mean loop time over
the reference loop time ``REF_LOOP_S`` of a quiet host, so that

    seconds at reference pace = measured seconds / factor

removes the host's drift and keeps the program's own cost.  The loop
stays in the L1 cache, so it follows the vCPU's speed (frequency, load
on the sibling hyperthread), not the cache state the program leaves
behind; contention for memory bandwidth it sees only in part.  The
samples take about 1% of the sampled time, inside the timed call, on
every commit alike.
"""

from __future__ import annotations

import signal
import time
from typing import List

# reference loop time: its typical time on a quiet 2-vCPU x86-64 VM
# under CPython 3, so that paced times read close to quiet-host times
REF_LOOP_S = 0.0005
# fewest samples behind a factor; a shorter block is topped up by a burst
MIN_SAMPLES = 20


def _loop() -> int:
    """Integer arithmetic on a few locals: it stays in the L1 cache, so
    its time follows the vCPU's speed and not the cache or memory state
    the measured program leaves behind.  It makes no container objects,
    so it never triggers the garbage collector, whose pauses belong to
    the program being measured."""
    s = 0
    j = 1
    for i in range(3000):
        j = (j * 69069 + 1) & 0xFFFF
        s += j ^ i
    return s


class Pace:
    """Sample the reference loop every ``interval`` seconds inside a
    ``with`` block, and time the block (``seconds``)."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: List[float] = []
        self.seconds = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Pace":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        if len(self.samples) < MIN_SAMPLES:
            self.burst(MIN_SAMPLES - len(self.samples))

    def burst(self, n: int = MIN_SAMPLES) -> "Pace":
        """Sample ``n`` times back to back (for spans too short to sample)."""
        for _ in range(n):
            self._sample(None, None)
        return self

    @property
    def factor(self) -> float:
        """Mean loop time over the reference: above 1 means a slow host."""
        return sum(self.samples) / len(self.samples) / REF_LOOP_S
