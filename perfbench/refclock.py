"""Reference time: wall time rescaled by the machine's speed while it passed.

On a shared virtual machine the speed at which pure Python runs swings by
up to a factor of two over seconds to minutes (see README.md, "Environment and
noise").  Two runs of the same code then differ by that much in wall time,
far more than any bound the benchmark may set.  A ``RefClock`` measures
that speed during a timed pass and rescales the pass's wall time to a
fixed nominal speed:

* every ``PERIOD_S`` of wall time an interval timer interrupts the pass,
  and its handler times one ``chunk()`` of fixed interpreter work;
* each stretch of the pass between two such samples is rescaled by the
  ratio of the nominal chunk time ``CHUNK_S`` to the chunk time measured
  around it (a running median of neighbouring samples, so that a single
  preempted sample does not count);
* the handler's own time is left out of both the wall and the reference
  time.

A *reference second* is the time in which the machine runs
``1 / CHUNK_S`` chunks; ``CHUNK_S`` is the chunk time measured on the test
machine in its fast state, so there a reference second is about a wall
second.  The timer is a signal in the caller's own thread: no thread or
process is started.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

CHUNK_S = 0.0004  # nominal time of one chunk(), in seconds
PERIOD_S = 0.01  # wall time between two samples
SMOOTH = 5  # samples in the running median


def chunk() -> int:
    """Fixed interpreter work: integer, dict and set operations and calls.

    It allocates no object the cyclic garbage collector tracks beyond its
    own dict and set, and runs with the collector off, so that a collection
    of the measured program's heap is never timed as part of it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        seen: dict[int, int] = {}
        members: set[int] = set()
        total = 0
        for i in range(1500):
            key = i % 17 * 5 + i % 5
            seen[key] = seen.get(key, 0) + i
            if i % 3 not in members:
                members.add(i % 7)
            total += len(members) + abs(-i)
        return total + len(seen)
    finally:
        if collecting:
            gc.enable()


def _running_median(values: list[float]) -> list[float]:
    half = SMOOTH // 2
    return [statistics.median(values[max(0, i - half):i + half + 1]) for i in range(len(values))]


class RefClock:
    """Times one stretch of work in wall and in reference seconds.

    Use as a context manager; after it exits, ``wall_s`` and ``ref_s``
    hold the two times, both without the sampling handler's own time.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        a = time.perf_counter()
        chunk()
        self.marks.append((a, time.perf_counter()))
        self._busy = False

    def __enter__(self) -> RefClock:
        self.marks = []
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        speeds = _running_median([b - a for a, b in self.marks])
        self.wall_s = self.ref_s = 0.0
        for k in range(len(self.marks) - 1):
            stretch = self.marks[k + 1][0] - self.marks[k][1]
            self.wall_s += stretch
            self.ref_s += stretch * CHUNK_S / ((speeds[k] + speeds[k + 1]) / 2)

