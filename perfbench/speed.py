"""Machine speed over time, from a fixed reference kernel.

The shared sandbox this benchmark was written on changes speed by up to
2x in phases of 30 s or more. Process CPU time varies with it, so the
slowdown comes from the host. Such a phase covers a whole benchmark run,
so a median over passes cannot remove it.

While the untraced passes run, a timer signal interrupts the pipeline
every INTERVAL_S and times the reference kernel. Each run's time, without
those interruptions, is then divided by the mean kernel time over the run
(from the last sample before it to the first after it). That gives the
run's length in "cal", a unit of kernel durations. The kernel makes many
small numpy calls from a Python loop, the same mix as gsfit's hot paths,
so host slowdowns stretch both alike. It is benchmark code and never
changes with gsfit, so a slower gsfit still reads as more cal. The kernel
touches no state of gsfit's, so the runs' results do not change.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# Kernel timings per sample (median taken), and the time between samples.
# About 20 ms every half second: 4% of a run, taken out of its time.
REPS = 5
INTERVAL_S = 0.5

_POINTS = np.random.default_rng(0).uniform(-3.0, 3.0, (8, 5))


def kernel() -> float:
    acc = 0.0
    for i in range(150):
        p = np.tile(_POINTS[i % 8], (4, 1))
        p[:, 1] = (0.1, 0.2, 0.3, 0.4)
        v = np.where(p > 0, np.sin(p) * np.exp(-p), np.nan)
        acc += float(np.max(np.abs(np.nan_to_num(v))))
    return acc


class Speedometer:
    """Reference-kernel samples taken on a timer while it is entered."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (taken at, kernel s)
        self.paused_s = 0.0          # total time spent sampling
        self._active = False
        self._old_handler = None

    def sample(self) -> None:
        t0 = perf_counter()
        times = []
        for _ in range(REPS):
            t = perf_counter()
            kernel()
            times.append(perf_counter() - t)
        self.samples.append((t0, statistics.median(times)))
        self.paused_s += perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self.sample()
            # one-shot timer, re-armed after the sample: never nested
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "Speedometer":
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()

    def kernel_s(self, t_start: float, t_end: float) -> float:
        """Mean kernel time from the last sample before t_start to the
        first sample after t_end."""
        taken = [t for t, _ in self.samples]
        lo = max(bisect_right(taken, t_start) - 1, 0)
        hi = bisect_left(taken, t_end)
        return statistics.fmean(k for _, k in self.samples[lo:hi + 1])
