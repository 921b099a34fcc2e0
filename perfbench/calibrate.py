"""Host-speed calibration: wall time rescaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed switches,
within a second and back, between states about 40% apart, so the same
query's wall time does not repeat.  A timed pass therefore also runs a
fixed calibration kernel (plain CPython work: float arithmetic, small
objects, dicts, big integers; no geothermo code) every
``PERIOD_S`` from a SIGALRM handler, and records each kernel's duration.
The time the handler takes is subtracted from the query it interrupted.

A query's calibrated time is its wall time times the mean of
``REF_KERNEL_S / k`` over the kernel durations ``k`` sampled during it and
the one just before and just after it: the time the query would take on a
host that runs the kernel in ``REF_KERNEL_S``.  A change to the program
moves the query time and not the kernel, so it shows in full; a host
slowdown moves both and cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
REF_KERNEL_S = 2.3e-4   # median kernel inside a pass on the reference VM

_MOD = 10 ** 120 + 7


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __mul__(self, o):
        return _Pair(self.a * o.a, self.a * o.b + self.b * o.a)

    def __add__(self, o):
        return _Pair(self.a + o.a, self.b + o.b)


def kernel():
    """About 0.2 ms of interpreter work whose result is fixed."""
    x, acc, big = 0.5, 0.0, 3 ** 200
    d = {}
    p, s = _Pair(1.0001, 0.5), _Pair(0.0, 0.0)
    for i in range(200):
        x = x * 1.0000001 + 0.25 / (1.0 + i)
        acc += x * x - acc * 1e-3
        d[i & 15] = (x, i)
        big = (big * 7 + i) % _MOD
        if i % 4 == 0:
            s = s + p * _Pair(1.0 / (i + 1), 0.25)
    return acc + s.a + len(d) + (big & 1)


class Calibrator:
    """Samples the kernel on a timer while started.

    ``stolen`` is the running total of time spent in the handler, so a
    caller subtracts its change over a query from the query's wall time.
    """

    def __init__(self):
        self.starts, self.durations = [], []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        kernel()
        t1 = clock()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.stolen += clock() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def median(self):
        return statistics.median(self.durations)

    def scale(self, t0, t1):
        """Mean of REF_KERNEL_S / k over the kernels that started within
        [t0, t1] and the nearest one on each side."""
        lo = max(0, bisect.bisect_left(self.starts, t0) - 1)
        hi = bisect.bisect_right(self.starts, t1) + 1
        near = self.durations[lo:hi]
        return REF_KERNEL_S * statistics.fmean(1.0 / k for k in near)

