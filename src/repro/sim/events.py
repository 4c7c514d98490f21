"""Event primitives for the discrete-event kernel.

An :class:`Event` is a future occurrence at a simulated time with an
attached callback.  The :class:`EventQueue` is a binary heap of
``(time, priority, sequence, event)`` tuples — the monotonically
increasing sequence number makes event ordering (and therefore whole
simulations) fully deterministic even when many events share a
timestamp.  Because the sequence number is unique, tuple comparison
never reaches the :class:`Event`, so :mod:`heapq` orders the entries
entirely in C; events themselves are not comparable.

Cancellation is *lazy*: cancelled events stay in the heap but are
skipped on pop.  This is the standard technique for heap-based agendas
(also used by :mod:`sched` and ``asyncio``) and keeps both ``push`` and
``cancel`` O(log n) / O(1).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.units import Seconds

__all__ = ["Event", "EventQueue", "PRIORITY_HIGH", "PRIORITY_NORMAL", "PRIORITY_LOW"]

#: Priority constants: lower sorts earlier among same-time events.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2


class Event:
    """A scheduled occurrence in simulated time.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`
    (via the queue's :meth:`EventQueue.push`); user code normally only
    keeps the handle around in order to :meth:`cancel` it.

    Attributes
    ----------
    time:
        Simulated time at which the event fires.
    priority:
        Tie-break among events at the same time; lower fires first.
    callback:
        Zero-argument callable invoked when the event fires (the
        payload, if any, is bound via closure or ``functools.partial``).
    name:
        Optional human-readable label, used by traces and ``repr``.
    """

    __slots__ = ("time", "priority", "seq", "callback", "name", "_cancelled", "_fired", "_queue")

    def __init__(
        self,
        time: Seconds,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        name: Optional[str] = None,
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = float(time)
        self.priority = int(priority)
        self.seq = int(seq)
        self.callback = callback
        self.name = name
        self._cancelled = False
        self._fired = False
        self._queue = queue

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's callback has already been invoked."""
        return self._fired

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Cancel the event; returns ``True`` if it was still pending."""
        if not self.pending:
            return False
        self._cancelled = True
        if self._queue is not None:
            self._queue._live -= 1
        return True

    def _fire(self) -> None:
        if self._cancelled:  # pragma: no cover - guarded by EventQueue.pop_due
            raise SimulationError(f"firing cancelled event {self!r}")
        self._fired = True
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        label = self.name or getattr(self.callback, "__name__", "callback")
        return f"Event(t={self.time:.6f}, prio={self.priority}, {label}, {state})"


#: One heap entry: ``(time, priority, seq, event)``.
_Entry = tuple[float, int, int, Event]


class EventQueue:
    """Deterministic priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_counter", "_live")

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: Seconds,
        callback: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        name: Optional[str] = None,
    ) -> Event:
        """Insert a new event and return its handle."""
        event = Event(time, priority, next(self._counter), callback, name, queue=self)
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        SimulationError
            If the queue holds no live events.
        """
        event = self.pop_due()
        if event is None:
            raise SimulationError("pop from an empty event queue")
        # The event has left the queue unfired: a later cancel() must
        # not take it off the live count a second time.
        event._queue = None
        return event

    def pop_due(self, until: Optional[Seconds] = None) -> Optional[Event]:
        """Remove and return the earliest live event due by ``until``.

        Cancelled entries at the top of the heap are dropped on the way.
        Returns ``None`` when no live event is left, or when the earliest
        one is later than ``until`` (it then stays queued).  The caller
        fires the returned event at once, so a later :meth:`Event.cancel`
        finds it fired and leaves the live count alone; use :meth:`pop`
        to take an event out without firing it.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]._cancelled:
                heapq.heappop(heap)
            elif until is not None and entry[0] > until:
                return None
            else:
                heapq.heappop(heap)
                self._live -= 1
                return entry[3]
        return None
