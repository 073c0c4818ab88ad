"""Timing in reference seconds, on a host whose speed drifts.

The benchmark runs on a few cores of a shared host, where the same work
runs up to 2x slower for minutes at a time (NOTES.md, Noise).  A
:class:`HostClock` runs a sampler thread that, every ``SAMPLE_PERIOD_S``,
times a fixed pure-Python workload (:func:`calibrate`) in its own CPU time.
A timed interval of the program is then converted to reference seconds:

    (wall time - sampler time inside it) * REFERENCE_SAMPLE_S / s

where ``s`` is the median sample within ``WINDOW_S`` of the interval.  The
host's speed at the time scales the program and the samples alike, so it
cancels out; a change to the program's own speed does not.

Only one of the two threads runs at a time (they share the interpreter
lock), and the sampler measures its CPU time, not its wall time, so waiting
for the lock does not count as slowness.
"""

from __future__ import annotations

import os
import random
import threading
import time
from statistics import median
from typing import Any, Callable, List, Tuple

SAMPLE_PERIOD_S = 0.05
WINDOW_S = 0.5
# CPU time of one calibrate() on the reference host: a round figure near
# the median measured on the 2-core Intel Xeon container of NOTES.md
# (Python 3.11).  A sample that takes longer means the host runs slower than
# the reference, and times measured then are scaled down by the same ratio.
# It sets the scale of reference seconds only.
REFERENCE_SAMPLE_S = 0.0020

_SIZE = 1 << 10
_rng = random.Random(7)
_NEXT = list(range(_SIZE))
_rng.shuffle(_NEXT)
_WEIGHT = {i: (i * 7) & 1023 for i in range(_SIZE)}
del _rng


def calibrate(steps: int = 8000, items: int = 800) -> int:
    """A fixed workload like the program's: it chases a random permutation
    through a list and a dict, hashes tuples and frozensets into a dict and
    a set, and sorts.  Its data is small, so it measures how fast the core
    runs rather than how much of the cache the program left it."""
    j = 1
    total = 0
    nxt = _NEXT
    weight = _WEIGHT
    for _ in range(steps):
        j = nxt[j]
        total += weight[j]
    table = {}
    seen: set = set()
    x = 12345
    for i in range(items):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 8, i & 255)
        tags = frozenset((i & 7, i & 31, x & 15))
        table[key] = (i, tags)
        seen |= tags
        seen.add(key)
    return total + len(sorted(table)) + len(seen)


def current_cpu() -> int:
    """The CPU the calling thread runs on (one it may run on, failing that)."""
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as handle:
            # Field 39 of stat(5); the command name (field 2) may hold spaces.
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(allowed)
    return cpu if cpu in allowed else min(allowed)


class HostClock:
    """A sampler of the host's speed, and the conversion of timed intervals
    to reference seconds.  Use as a context manager: the sampler thread runs
    inside the ``with`` block and is joined when it ends."""

    def __init__(self, period: float = SAMPLE_PERIOD_S) -> None:
        self.period = period
        # (start, end) of each sample on the perf_counter clock, and its CPU
        # seconds.
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="perfbench-hostclock", daemon=True
        )

    def _sample(self) -> None:
        while not self._stop.wait(self.period):
            start = time.perf_counter()
            cpu = time.thread_time()
            calibrate()
            cpu = time.thread_time() - cpu
            self.samples.append((start, time.perf_counter(), cpu))

    def __enter__(self) -> "HostClock":
        # Both threads on one CPU, the one the program runs on now: the
        # host's CPUs are not equally slow at a time, and the sampler must
        # measure the program's.  A thread inherits the affinity of the
        # thread that starts it.
        os.sched_setaffinity(0, {current_cpu()})
        self._thread.start()
        # Samples from before the first interval, for its window.
        time.sleep(WINDOW_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def call(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, Tuple[float, float]]:
        """Run ``fn(*args)``; returns its result and its interval."""
        start = time.perf_counter()
        result = fn(*args)
        return result, (start, time.perf_counter())

    def reference_seconds(self, interval: Tuple[float, float]) -> float:
        """An interval's time in reference seconds (see the module doc)."""
        start, end = interval
        samples = list(self.samples)
        # The part of each sample inside the interval, in the sampler's CPU
        # time: the program did not run then.
        busy = sum(
            cpu * (min(end, b) - max(start, a)) / (b - a)
            for a, b, cpu in samples
            if a < end and b > start and b > a
        )
        near = [cpu for a, b, cpu in samples if start - WINDOW_S <= b <= end + WINDOW_S]
        if not near:
            raise ValueError(f"no host-speed sample within {WINDOW_S} s of {interval}")
        return (end - start - busy) * REFERENCE_SAMPLE_S / median(near)

    def speed(self) -> float:
        """The host's median speed over all samples, as a share of the
        reference host's."""
        return REFERENCE_SAMPLE_S / median(cpu for _, _, cpu in self.samples)
