"""The machine's speed, read off a fixed reference kernel timed between jobs.

On a shared machine the core a run gets changes speed by up to 2x, often
within a second, as other tenants come and go.  Every piece of interpreted
Python slows by the same factor: timed back to back, a flowpoly job and the
kernel below keep their ratio to within a few percent while both halve or
double.  The benchmark therefore reads the kernel's time before and after
every job, and every ``PERIOD_S`` while a job runs, and reports each job's
time scaled to a machine on which the kernel takes ``REFERENCE_S``.

This module imports nothing that flowpoly imports, and the kernel uses
only built-in types, so a setup probe can read the kernel without loading
any of the modules whose import it times.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Seconds the kernel takes on the nominal machine the benchmark reports in:
# its typical time on an uncontended core of the 2-core VM the benchmark was
# written on (Python 3.11).
REFERENCE_S = 0.00018

REPEATS = 3  # runs of the kernel per reading; the fastest is kept
PERIOD_S = 0.05  # wall seconds between readings while a job runs


def kernel():
    """A fixed mix of what flowpoly spends its time on: dicts keyed by
    tuples, big-integer arithmetic, sets of sorted tuples."""
    counts = {(0, 0): 1}
    for s in range(1, 30):
        for i in range(s + 1):
            counts[i, s - i] = counts.get((i - 1, s - i), 0) + counts.get((i, s - i - 1), 0)
    acc = 1
    seen = set()
    for a in range(1, 80):
        acc = acc * (2 * a + 1) + a
        seen.add(tuple(sorted((a * 31 % 17, a % 5, a * a % 13))))
    return counts[15, 14], acc % 1_000_003, len(seen)


def reading():
    """Seconds one kernel run takes now: the fastest of a few back-to-back
    runs, so an interrupt that lands in one of them does not count."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(seconds, readings):
    """``seconds`` of wall time, as seconds on the nominal machine, given
    readings taken evenly over that time (and at its two ends)."""
    return seconds * REFERENCE_S * sum(1 / r for r in readings) / len(readings)


class Meter:
    """Takes a reading every ``period`` seconds of wall time while it is entered.

    The readings run in a SIGALRM handler, between two bytecodes of
    whatever job is running; ``spent`` is the time they took, which the
    caller takes off the job's time.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.readings = []
        self.spent = 0.0

    def _read(self, signum, frame):
        start = perf_counter()
        self.readings.append(reading())
        self.spent += perf_counter() - start

    def reset(self):
        self.readings, self.spent = [], 0.0

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
