"""Online load estimation for the hybrid power switch (paper §III-D).

The hybrid policy needs to know whether the current workload is above
the *critical load*, which the paper expresses as an arrival rate
(154 requests/s at the default configuration).  Online, the scheduler
estimates the recent arrival rate with a sliding window.

:class:`ArrivalRateEstimator` counts arrivals in a trailing window —
O(1) amortized, exact over the window, and independent of job sizes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import ConfigurationError
from repro.units import PerSecond, Seconds

__all__ = ["ArrivalRateEstimator"]


class ArrivalRateEstimator:
    """Sliding-window arrival-rate estimate (requests/second).

    Parameters
    ----------
    window:
        Trailing window length in seconds.  Two seconds spans ≥200
        arrivals at the paper's lightest load — enough to make the
        light/heavy decision stable without lagging rate changes.
    """

    def __init__(self, window: Seconds = 2.0) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window!r}")
        self.window = float(window)
        self._times: Deque[Seconds] = deque()

    def observe(self, time: Seconds) -> None:
        """Record one arrival at ``time`` (non-decreasing)."""
        if self._times and time < self._times[-1]:
            raise ValueError("arrival times must be non-decreasing")
        self._times.append(time)
        self._evict(time)

    def rate(self, now: Seconds) -> PerSecond:
        """Arrivals per second over the trailing window ending at ``now``."""
        self._evict(now)
        return len(self._times) / self.window

    def _evict(self, now: Seconds) -> None:
        cutoff = now - self.window
        times = self._times
        while times and times[0] <= cutoff:
            times.popleft()

    def is_heavy(self, now: Seconds, critical_rate: PerSecond) -> bool:
        """Whether the estimated rate exceeds the critical load."""
        return self.rate(now) > critical_rate

