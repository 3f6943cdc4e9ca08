"""The host's speed, sampled while a run works.

A shared host's speed swings by tens of percent within seconds, as other
tenants load the cores this process shares.  ``SpeedProbe`` measures that
speed in place: a timer signal interrupts the run every ``INTERVAL_S``
and times a fixed slice of interpreter work (``calibrate``).  The ratio
of a reference duration to the measured one is the speed at that moment,
and its mean over a phase turns the phase's host seconds into reference
seconds.  The slice is independent of the code under test, so a change
to ``src/`` moves the reference seconds exactly as it moves host seconds.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Tuple

#: Seconds between probe samples.
INTERVAL_S = 0.025
#: Iterations of the calibration slice one probe sample runs.
SLICE_ITERATIONS = 300
#: Seconds one slice takes at the reference speed.
SLICE_REF_S = 0.0005


class _CalibOp:
    __slots__ = ("m", "n", "k", "kind")

    def __init__(self, m: int, n: int, k: int, kind: int) -> None:
        self.m, self.n, self.k, self.kind = m, n, k, kind

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work.

    Object allocation, property and dict lookups, float arithmetic and a
    heap, like the simulator's pricing and event loops, so the host's
    speed swings move it as they move the workloads.
    """
    start = time.perf_counter()
    overhead = {kind: kind * 1e-8 for kind in range(16)}
    heap: List[Tuple[float, int]] = []
    for i in range(SLICE_ITERATIONS):
        op = _CalibOp((i & 63) + 1, ((i >> 6) & 127) + 1, (i & 4095) + 1,
                      i & 15)
        cost = max(op.flops / 1e12, op.n * op.k * 2 / 1e11) \
            + overhead[op.kind]
        heapq.heappush(heap, (cost, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples ``calibrate`` every ``INTERVAL_S`` of wall time.

    Use as a context manager around the phases to measure; the samples
    cost about ``SLICE_REF_S / INTERVAL_S`` of the run's time.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, _signum, _frame) -> None:
        self.samples.append((time.perf_counter(), calibrate()))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean speed (reference = 1) over samples taken in [start, end]."""
        ratios = [SLICE_REF_S / d for t, d in self.samples
                  if start <= t <= end]
        return sum(ratios) / len(ratios) if ratios else float("nan")
