"""Calibrated seconds: wall time corrected for how fast the machine ran.

On a shared machine the speed of one core drifts by tens of percent within
seconds, which would swamp the differences the benchmark exists to show.
A fixed reference kernel is timed between the benchmark's timed intervals.
It calls no code of the program, so the program's speed does not move it;
its time tracks only the machine. Each interval is rescaled by the
reference samples that bracket it, to the time it would have taken on a
machine that runs the kernel in exactly ``REF_SECONDS``.

numpy is imported inside the kernel, not at module load, so that the
set-up probe still times the first numpy import.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

REF_ITERATIONS = 1500
REF_SECONDS = 0.025


def reference_kernel() -> float:
    """Seconds one pass of the reference kernel took just now.

    The loop mixes interpreter work with small numpy calls in the same
    proportion as the program's inner loop, so both slow down together.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    centers = rng.uniform(-5.0, 5.0, (10, 10))
    heights = rng.uniform(10.0, 100.0, 10)
    start = perf_counter()
    total = 0.0
    for i in range(REF_ITERATIONS):
        diff = centers[i % 10] * 0.5 - centers
        total += float(np.max(heights / (1.0 + np.sqrt(np.mean(diff * diff, axis=1)))))
    return perf_counter() - start


class Clock:
    """Samples the machine's speed at most every ``every`` seconds."""

    def __init__(self, every: float = 0.3) -> None:
        self.every = every
        self.times: list[float] = []
        self.factors: list[float] = []

    def calibrate(self, force: bool = False) -> None:
        """Run the kernel if the last sample is older than ``every``."""
        if force or not self.times or perf_counter() - self.times[-1] >= self.every:
            self.factors.append(REF_SECONDS / reference_kernel())
            self.times.append(perf_counter())

    def seconds(self, start: float, end: float) -> float:
        """Calibrated length of the wall interval [start, end]."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, end)
        near = [self.factors[k] for k in (before, after) if 0 <= k < len(self.times)]
        return (end - start) * sum(near) / len(near)
