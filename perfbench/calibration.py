"""Host-speed calibration for the timed metrics.

On a shared host the same Python code runs up to three times slower for
seconds at a time, and process CPU time slows with wall time, so the cause
is the host, not scheduling.  To keep runs comparable, the closed loop runs
a fixed calibration kernel once per ``INTERVAL_S`` of its time (between
operations, never inside one), and every timed interval is rescaled by the
kernel samples taken just before and just after it:

    calibrated = wall time * (1 ms / kernel time) ** EXPONENT

A calibrated millisecond is thus about one wall-clock millisecond on a host
where the kernel takes 1 ms (an unloaded x86-64 core with CPython 3.11).
``EXPONENT`` is below 1 because the kernel slows more than the program: over
100 s in which a shared 2-core x86-64 VM changed speed threefold, the log of
the corpus operation time followed the log of the kernel time with slope
0.88 for every kernel tried.

The kernel is the benchmark's own code and never changes with the program,
so a faster program still reads faster; only the host's drift cancels.  The
raw wall-clock figures are printed next to the calibrated ones.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.025
EXPONENT = 0.9


def kernel() -> int:
    """Fixed interpreter-bound work like the program's: small exact
    rationals, tuples, lists and dict updates."""
    acc = 0
    table = {}
    for i in range(200):
        a = Fraction(i % 11 - 5, i % 7 + 1)
        b = Fraction(i % 5 + 1, i % 3 + 2)
        table[i & 63] = (a * b - a, [a, b])
        if a < b:
            acc += 1
    return acc + len(table)


class Calibration:
    """Kernel timings taken along a run, and the rescaling that uses them."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._next = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def maybe_sample(self) -> None:
        """Take the samples owed since the last call, one per INTERVAL_S,
        so that samples stay evenly dense in time around long operations."""
        now = perf_counter()
        if not self._next:
            self._next = now
        while self._next <= now:
            self.sample()
            self._next += INTERVAL_S

    def factor(self, start: float, end: float) -> float:
        """Calibrated seconds per wall-clock second over [start, end], from
        the last sample before it and the first sample after it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        near = self.durations[max(lo - 1, 0):lo] + self.durations[hi:hi + 1]
        return (1e-3 * len(near) / sum(near)) ** EXPONENT

    def calibrated(self, start: float, end: float) -> float:
        """The interval [start, end] in calibrated seconds."""
        return (end - start) * self.factor(start, end)
