"""The discrete-event simulator engine.

:class:`Simulator` owns the clock and the event agenda.  It is
callback-driven — ``sim.schedule(delay, fn)`` / ``sim.at(time, fn)`` —
the fastest and most explicit way for the scheduler/server machinery
to express "re-plan at time t".

The engine is single-threaded and deterministic: runs with the same
seed and the same schedule of calls produce identical event orders.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_NORMAL, Event, EventQueue
from repro.units import Seconds

__all__ = ["Simulator"]


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (seconds).

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(1.0, lambda: seen.append(sim.now))
    >>> _ = sim.schedule(0.5, lambda: seen.append(sim.now))
    >>> sim.run()
    >>> seen
    [0.5, 1.0]
    """

    def __init__(self, start_time: Seconds = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> Seconds:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled, not fired) events."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: Seconds,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative or NaN delay: {delay!r}")
        return self._queue.push(self._now + delay, callback, priority=priority, name=name)

    def at(
        self,
        time: Seconds,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        ``time`` may equal :attr:`now` (fires in the current instant,
        after already-queued same-time events of equal priority) but
        must not be in the past.
        """
        if time < self._now or math.isnan(time):
            raise SimulationError(
                f"cannot schedule at t={time!r}: clock is already at {self._now!r}"
            )
        return self._queue.push(time, callback, priority=priority, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single earliest event.

        Returns ``True`` if an event was fired, ``False`` if the agenda
        was empty.
        """
        return self._fire_next(None)

    def run(self, until: Optional[Seconds] = None) -> None:
        """Run until the agenda drains or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` on return (even if the last event fired earlier), so
        that time-integrated metrics cover the full horizon.  Events
        scheduled exactly at ``until`` are fired.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        try:
            while not self._stopped and self._fire_next(until):
                pass
        finally:
            self._running = False
        if until is not None and not self._stopped:
            if until < self._now:
                raise SimulationError(
                    f"run(until={until!r}) but clock already at {self._now!r}"
                )
            self._now = float(until)

    def _fire_next(self, until: Optional[Seconds]) -> bool:
        """Pop the earliest live event due by ``until``, advance the clock
        to it and fire it; ``False`` when there is none."""
        event = self._queue.pop_due(until)
        if event is None:
            return False
        if event.time < self._now:  # pragma: no cover - internal invariant
            raise SimulationError("event queue returned an event from the past")
        self._now = event.time
        self._events_processed += 1
        event._fire()
        return True

    def stop(self) -> None:
        """Request the current :meth:`run` to stop after this event."""
        self._stopped = True
