"""Host-speed calibration: express measured times in reference seconds.

The machines this benchmark runs on are shared.  On a 2-vCPU VM the
whole host slows by 20-100 % for 20-50 s at a time, longer than a run,
so the same code read 0.2-0.5 apart (quartile distance over median)
across ten runs, however the unit times inside one run were summarised.

A fixed kernel that uses no ``repro`` code, about 1 ms, runs between
units whenever ``INTERVAL_S`` has passed since the last sample, never
inside a timed unit.  There are two, and each workload names the one
nearer its kind of work (``spec.json``): ``mixed`` (dict inserts, a
heap and a sort of Python objects, then a few numpy passes over 100 000
integers) for the event-driven workloads, ``array`` (numpy passes only)
for the columnar one; a slow host does not slow the two alike.  Each unit's
time is scaled by the samples around its start to a host on which the
kernel takes ``REFERENCE_S``:

    reference seconds = host seconds * REFERENCE_S / kernel seconds

A change to the program moves the measured times and not the kernel, so
it shows in full; a slow host moves both and largely cancels out.  For
that, a sample must not depend on what the program did before it: the
kernel runs with the garbage collector off (so a larger program heap
does not make it slower), makes one untimed pass to bring its own data
back into the caches the program's units evicted, and keeps the faster
of two timed passes.  A unit's factor is the median of the samples
nearest its start, so one sample the host preempted moves no unit.
``check_calibration.py`` tests this.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
import time

import numpy as np

__all__ = ["Calibrator", "REFERENCE_S"]

#: kernel duration on the reference host (both kernels, roughly)
REFERENCE_S = 0.001
#: host time between two kernel samples
INTERVAL_S = 0.1
#: samples on each side of a unit's start that its factor is the median of
NEAREST = 3

_FLOATS = [((i * 7919) % 10007) / 10007 for i in range(1500)]
_A = np.arange(100_000, dtype=np.int64)
_B = np.ones(100_000, dtype=np.int64)


def _array(passes: int = 12) -> None:
    for _ in range(passes):
        np.add(_A, _B, out=_A)
        np.subtract(_A, _B, out=_A)
        _A.min()


def _mixed() -> None:
    table = {}
    for i in range(1000):
        table[i] = (i, 2 * i)
    heap: list = []
    for x in _FLOATS:
        heapq.heappush(heap, (x, 0))
    while heap:
        heapq.heappop(heap)
    sorted(_FLOATS)
    _array(4)


KERNELS = {"mixed": _mixed, "array": _array}


def kernel_seconds(kernel) -> float:
    """One calibration sample: host seconds of the faster of two passes
    of ``kernel`` after an untimed warm-up pass, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Calibrator:
    """Kernel samples with the time each was taken, and the host time
    spent taking them."""

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]
        self.samples: list[float] = []
        self.stamps: list[int] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds(self.kernel))
        self.stamps.append(time.perf_counter_ns())
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def maybe(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor_at(self, t_ns: int) -> float:
        """Reference seconds per host second at ``t_ns``: from the median
        of the ``NEAREST`` samples taken before it and as many after."""
        after = bisect.bisect_right(self.stamps, t_ns)
        near = self.samples[max(after - NEAREST, 0):after + NEAREST]
        return REFERENCE_S / statistics.median(near)
