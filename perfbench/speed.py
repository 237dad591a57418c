"""Calibration of measured durations against the CPU's current speed.

Other tenants share the host's cores, and the speed they leave to this
process drifts by up to 2x within seconds to minutes.  While a run
measures, a fixed reference loop is timed about every PERIOD_S.  A
duration measured over [a, b] loses the loop time that fell inside it and
is then multiplied by the mean speed, REFERENCE_S over the loop time, of
the samples within WINDOW_S of [a, b].  Calibrated durations are thus
seconds at the reference speed: the speed at which one loop takes
REFERENCE_S.

The loop only ever runs on the main thread, while the measured work is
stopped, so that a sample never competes with that work for the CPU:

- :meth:`SpeedSampler.sample` samples before and after each child
  process, and :meth:`SpeedSampler.tick` between short requests.
- Inside :meth:`SpeedSampler.timed`, an interval timer raises SIGALRM
  every PERIOD_S and the handler samples.  Python runs signal handlers
  on the main thread between bytecodes, so the work of that thread waits
  for the sample; a call that releases the interpreter lock, such as a
  large numpy operation, holds the sample off until it returns.  This is
  for long in-process calls (a search, a sweep), which span several
  changes of speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

REFERENCE_S = 5e-4
PERIOD_S = 0.05
WINDOW_S = 0.25


def reference_loop() -> float:
    """A small least-squares fit, repeated: the numpy calls of the fitting
    pipeline on a dozen values."""
    x = np.linspace(1.0, 2.0, 12)
    acc = 0.0
    for i in range(20):
        kernel = np.cumprod(np.full(12, 1.0 + i * 1e-4))
        y = np.convolve(x, kernel)[:12]
        design = np.column_stack((y[:-1], np.arange(11.0), np.ones(11)))
        sol = np.linalg.solve(design.T @ design, design.T @ y[1:])
        acc += float(np.sqrt(np.mean(np.exp(-sol[0] * x) ** 2)))
    return acc


class SpeedSampler:
    """Start times and durations of the reference loop's runs."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        reference_loop()  # the first run pays for numpy's lazy set-up

    def tick(self) -> None:
        """Take a sample if the last one started ``period`` ago or earlier."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= self.period:
            self.sample()

    def sample(self) -> None:
        """Take a sample now."""
        # The start goes in first, so that a signal arriving during the
        # loop finds a sample under way and does not start another.
        t0 = time.perf_counter()
        self.starts.append(t0)
        reference_loop()
        self.durations.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        if len(self.starts) == len(self.durations):
            self.sample()

    @contextmanager
    def timed(self):
        """Sample every ``period`` from a SIGALRM handler while inside."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def calibrate(self, intervals) -> tuple[list[float], list[float]]:
        """Raw and calibrated durations of ``(start, end)`` intervals, read
        with ``time.perf_counter`` in this or a child process."""
        starts, durations = self.starts, self.durations
        if not durations:
            raise RuntimeError("the speed sampler took no samples")
        busy = [0.0, *accumulate(durations)]
        raw, calibrated = [], []
        for a, b in intervals:
            inside = busy[bisect.bisect_left(starts, b)] - busy[bisect.bisect_left(starts, a)]
            lo = bisect.bisect_left(starts, a - WINDOW_S)
            hi = bisect.bisect_right(starts, b + WINDOW_S)
            if lo == hi:  # no sample nearby: take the closest one
                lo = min(
                    (j for j in (lo - 1, lo) if 0 <= j < len(starts)),
                    key=lambda j: min(abs(starts[j] - a), abs(starts[j] - b)),
                )
                hi = lo + 1
            raw.append(b - a)
            calibrated.append((b - a - inside) * _mean_speed(durations[lo:hi]))
        return raw, calibrated


def _mean_speed(durations: list[float]) -> float:
    """Mean of REFERENCE_S / duration over the samples, without the tenth
    at either end.  Samples come at a steady rate, so this is the speed
    averaged over time; the trim drops samples that the scheduler cut into."""
    speeds = sorted(REFERENCE_S / d for d in durations)
    cut = len(speeds) // 10
    return statistics.fmean(speeds[cut : len(speeds) - cut])
