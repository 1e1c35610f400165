"""Host-speed calibration for the end-to-end timings.

On a shared host the same Python code runs at different speeds from one
ten-second stretch to the next: a fixed pure-Python loop, timed every 0.1 s
for a minute on a 2-CPU x86 VM, took between 73 and 130 ms, in CPU time as
much as in wall time.  A 20-second run then reads 25% faster or slower than
the run before it for no reason in the program.

So the closed loop also runs a fixed calibration workload of about half a
millisecond between questions, at most every ``EVERY_S``.  Each latency is
scaled by ``REFERENCE_S`` over the median calibration time around it, and the
end-to-end timings read as time at the reference speed: the speed at which
the calibration workload takes ``REFERENCE_S``.  The calibration workload does
not call padfa, so a change to padfa moves the scaled timings by the same
share as the raw ones.  The raw figures are printed next to them.

The correction is not exact.  In two trials of 90 s on that VM, the log of
single padfa answers moved 0.9 and 0.55 times as much as the log of the
calibration time next to them.  It follows slow drifts of the host better
than fast swings, which the many answers of a run and their medians average
out.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

# Median time of one ``calibration_work()`` call on a 2-CPU 2.1 GHz x86 VM
# with Python 3.11.7, over a minute of its varying speed (10% of the calls
# took under 0.37 ms, 10% over 0.65 ms).
REFERENCE_S = 0.00055
# Calibrate between questions once this long has passed since the last time.
EVERY_S = 0.02
# A latency is scaled by the calibrations that started within this long of
# it, and by at least MIN_SAMPLES of the nearest ones.
WINDOW_S = 0.25
MIN_SAMPLES = 8


def calibration_work() -> int:
    """Fixed work in the style of padfa's inner loops: integer arithmetic
    and bit masks, set membership and dict stores.  It allocates only ints
    and two containers, so it never triggers a garbage collection, whose
    cost would depend on the heap the questions left behind."""
    x = 1
    seen = set()
    table = {}
    for i in range(1000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        low = x & 0xFFF
        if low not in seen:
            seen.add(low)
        table[low >> 2] = low ^ i
    return len(seen) + len(table)


class HostClock:
    """Calibration times, recorded as (start, duration) in time order."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def calibrate(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            calibration_work()
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)

    def tick(self) -> None:
        """Calibrate once for every ``EVERY_S`` since the last calibration,
        up to half of ``MIN_SAMPLES`` times.  After a long question that
        puts calibrations close on both sides of it, so that its scale comes
        from the host speed around it and not from seconds away."""
        if not self.starts:
            self.calibrate()
            return
        missed = int((time.perf_counter() - self.starts[-1]) / EVERY_S)
        self.calibrate(min(missed, MIN_SAMPLES // 2))

    def spent(self) -> float:
        return sum(self.durations)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into time at
        the reference speed."""
        count = len(self.starts)
        if count == 0:
            raise ValueError("no calibration recorded")
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        # Widen to the nearest calibrations on either side until there are
        # enough of them.
        while hi - lo < min(MIN_SAMPLES, count):
            if lo == 0:
                hi += 1
            elif hi == count or start - self.starts[lo - 1] <= self.starts[hi] - end:
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
