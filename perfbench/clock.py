"""Reference seconds: wall time corrected for the host's speed at the time.

The benchmark runs on shared hosts whose speed drifts by up to a factor
of 1.7 for tens of seconds at a time, far more than any change worth
measuring.  A fixed pure-Python kernel tracks that drift when it runs in
the same process, interleaved with the work: a second process on the
other core does not (its speed correlates with ours no better than
chance).  So while the clock runs, an interval timer interrupts the
program every ``INTERVAL_S`` and the signal handler times one run of the
kernel.  A duration is then reported as its wall time, minus the
kernel's own runs inside it, scaled by ``NOMINAL_S / kernel time``, the
median over the samples inside it and in the ``WINDOW_S`` before it.
A reference second is a wall second on a host that runs the kernel in
``NOMINAL_S``.  The kernel runs no code of the program under test, so a
change to the program moves reference seconds as it moves wall seconds.

On a 2 GHz shared host this cut the quartile spread of a canneal run from
15% to 10%, of a sphinx run from 36% to 11%; it costs about 3% of the
run.
"""

import gc
import signal
import statistics
import time
from bisect import bisect_left

#: Seconds one kernel run takes on the reference host.
NOMINAL_S = 0.003

#: Wall seconds between two kernel runs while the clock runs.
INTERVAL_S = 0.1

#: Samples this long before an interval count towards its speed: one
#: sample alone is noisy, and the host's slow spells last far longer.
WINDOW_S = 0.5


def kernel() -> int:
    """Fixed work of the same kind as the program's: integer arithmetic,
    dictionary stores, a loop in the interpreter."""
    total = 0
    table = {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    return total


class Clock:
    """Kernel samples of one process, and conversion to reference seconds."""

    def __init__(self) -> None:
        self.starts = []
        self.durations = []
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # a signal that arrived during the kernel
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()
            self._sampling = False

    def start(self) -> None:
        """Sample now and every ``INTERVAL_S`` until :meth:`stop`."""
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def busy(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` less the kernel's runs inside it."""
        inside = self.durations[bisect_left(self.starts, start):
                                bisect_left(self.starts, end)]
        return end - start - sum(inside)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``: scaled
        by the median kernel time from ``WINDOW_S`` before it to its end."""
        first = bisect_left(self.starts, start - WINDOW_S)
        last = bisect_left(self.starts, end)
        window = self.durations[first:last] or self.durations[max(last - 1, 0):last + 1]
        return self.busy(start, end) * NOMINAL_S / statistics.median(window)

    def speed(self) -> float:
        """Median reference seconds per wall second over every sample."""
        return NOMINAL_S / statistics.median(self.durations)

    def timed(self, function, *args, **kwargs):
        """``(result, reference seconds)`` of one call."""
        start = time.perf_counter()
        result = function(*args, **kwargs)
        return result, self.seconds(start, time.perf_counter())
