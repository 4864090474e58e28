"""Operation times scaled to the host's undisturbed speed.

On the shared 2-CPU virtual machine this benchmark was built on, the
speed of the same Python code swings by up to 1.7x, in phases that last
from seconds to minutes, with other tenants' load; no statistic taken
inside one run removes a phase that covers the whole run.  A scaling
Clock therefore interrupts the benchmark process every REF_EVERY_S with
SIGALRM and times a fixed reference computation, reference(), in the
handler.  An operation's time is split at those interruptions, the
handler's own time is left out, and each piece is multiplied by
REF_NOMINAL_S over the mean of the reference times at its two ends.
REF_NOMINAL_S is reference()'s time on that machine at its undisturbed
speed, so scaled times read as seconds there; on a steady host the
scale is a constant factor.

This tracks only work done in this process: the wall time of a
subprocess did not follow the reference's time on that host (the scaled
spread came out wider than the raw one), so the benchmark times no other
process, its set-up probes included.  A Clock with scale=False reports
plain wall time.
"""
from __future__ import annotations

import gc
import signal
import time
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction

REF_NOMINAL_S = 0.006
REF_EVERY_S = 0.2
_REF_ITERS = 3000
_REF_POINTS = ((1, 2), (3, -1), (0, 5), (-2, 4), (4, 4))


def reference() -> None:
    """Fixed interpreter work of the package's kind: small-integer dot
    products with min and max, Fraction arithmetic, a dict and a sort."""
    widths = {}
    f = Fraction(0)
    for i in range(_REF_ITERS):
        a, b = i % 17 - 8, i % 13 - 6
        dots = [a * x + b * y for x, y in _REF_POINTS]
        widths[i % 97] = max(dots) - min(dots)
        if i % 10 == 0:
            f += Fraction(a, 7) * Fraction(b or 1, 3)
    sorted(widths.items())


class Clock:
    """Times the operations of one round at a time."""

    def __init__(self, scale: bool) -> None:
        self.scale = scale
        self._starts = array("d")   # reference runs: start and end times
        self._ends = array("d")

    def _reference(self, signum=None, frame=None) -> None:
        # no cyclic collection set off by the program's objects lands in
        # the reference, so its time follows the host's speed alone
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self._starts.append(t0)
        self._ends.append(t1)

    @contextmanager
    def round(self):
        """Operations measured inside may be scaled once the round ends."""
        if not self.scale:
            yield
            return
        del self._starts[:], self._ends[:]
        self._reference()
        previous = signal.signal(signal.SIGALRM, self._reference)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._reference()

    @staticmethod
    def measure(fn, *args):
        """(result or raised exception, start, end) of fn(*args)."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:   # a crash is reported as one failed operation
            out = exc
        return out, t0, time.perf_counter()

    def seconds(self, start: float, end: float) -> float:
        """The time from start to end, scaled unless scale is False."""
        if not self.scale:
            return end - start
        starts, ends = self._starts, self._ends
        i = bisect_left(ends, start)     # first reference ending after start
        total = 0.0
        a = start
        while True:
            b = min(end, starts[i]) if i < len(starts) else end
            ref_before = ends[i - 1] - starts[i - 1]
            ref_after = ends[i] - starts[i] if i < len(starts) else ref_before
            total += (b - a) * REF_NOMINAL_S * 2 / (ref_before + ref_after)
            if i >= len(starts) or starts[i] >= end:
                return total
            a = ends[i]
            i += 1
