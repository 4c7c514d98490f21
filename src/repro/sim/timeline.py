"""Piecewise-constant signal recording and integration.

Energy is the time integral of power, and the paper's Fig. 6 needs the
time-average and time-variance of per-core speeds.  Cores change speed
only at scheduling events, so every per-core signal is piecewise
constant; :class:`StepTimeline` records the breakpoints and answers
integral/average queries exactly (no sampling error).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.units import Seconds

__all__ = ["StepTimeline"]


class StepTimeline:
    """A right-open piecewise-constant function of time.

    ``set_value(t, v)`` declares that the signal equals ``v`` on
    ``[t, next breakpoint)``.  Timestamps must be non-decreasing; setting
    a value at the current last timestamp overwrites it (zero-width
    segments are elided).
    """

    __slots__ = ("_times", "_values")

    def __init__(self, start_time: Seconds = 0.0, initial_value: float = 0.0) -> None:
        self._times: List[float] = [float(start_time)]
        self._values: List[float] = [float(initial_value)]

    # ------------------------------------------------------------------
    @property
    def start_time(self) -> Seconds:
        """Time of the first breakpoint."""
        return self._times[0]

    @property
    def last_time(self) -> Seconds:
        """Timestamp of the most recent breakpoint."""
        return self._times[-1]

    def set_value(self, time: Seconds, value: float) -> None:
        """Record that the signal takes ``value`` from ``time`` onwards."""
        time = float(time)
        last = self._times[-1]
        if time > last:  # the common case: a new breakpoint
            if value == self._values[-1]:
                return  # no change: extend the current segment implicitly
            self._times.append(time)
            self._values.append(float(value))
        elif time == last:
            self._values[-1] = float(value)
            # collapse if the previous segment had the same value
            if len(self._values) >= 2 and self._values[-2] == self._values[-1]:
                self._times.pop()
                self._values.pop()
        else:  # earlier than the last breakpoint, or NaN
            raise SimulationError(
                f"timeline updates must be chronological: {time} < {last}"
            )

    # ------------------------------------------------------------------
    def integral(
        self,
        until: Seconds,
        transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> float:
        """Integrate the signal (or ``transform(value)``) up to ``until``.

        Vectorized over the breakpoints; ``transform`` receives a NumPy
        array (every transform used by the library — power curves,
        squaring, indicator functions — is array-capable).
        """
        if until < self._times[0]:
            raise SimulationError("query before the timeline's start")
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        ends = np.minimum(np.append(times[1:], until), until)
        widths = np.maximum(0.0, ends - np.minimum(times, until))
        if transform is not None:
            y = np.asarray(transform(values), dtype=float)
        else:
            y = values
        return float(np.dot(y, widths))

    def time_average(self, until: Seconds) -> float:
        """Time-weighted mean value over [start_time, until]."""
        span = until - self._times[0]
        if span <= 0:
            return self._values[0]
        return self.integral(until) / span

    def __len__(self) -> int:
        return len(self._times)

