"""Structured logging of GE's scheduling decisions.

GE emits one :class:`Decision` per scheduling round as a ``decision``
trace event: when it ran, the mode chosen, the power policy used, the
batch size and the resulting per-core caps.  A :class:`DecisionLog` is
a tracer sink that keeps the latest of them in a bounded ring buffer
and renders them to rows for offline inspection —
``examples/diurnal_load.py``-style debugging without print statements::

    log = DecisionLog()
    tracer = Tracer(sinks=(log,))   # add Buffer() to keep the full trace
    SimulationHarness(config, make_ge(), tracer=tracer).run()
    print("\n".join(log.to_rows(limit=5)))
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, Tuple

from repro.obs.spans import EventRecord
from repro.obs.tracer import Sink
from repro.units import QualityFrac, Seconds, Watts

__all__ = ["Decision", "DecisionLog"]

#: Retained rounds when no capacity is given (or ``None`` is passed).
DEFAULT_CAPACITY = 10_000


@dataclass(frozen=True)
class Decision:
    """One scheduling round's summary."""

    time: Seconds
    mode: str  # "aes" | "bq"
    policy: str  # "ES" | "WF"
    batch_size: int  # jobs taken from the queue this round
    active_jobs: int  # unsettled jobs across all cores after assignment
    monitor_quality: QualityFrac
    caps: Tuple[Watts, ...]  # per-core power caps (W)

    @property
    def total_cap(self) -> Watts:
        """Sum of per-core caps (≤ the budget)."""
        return float(sum(self.caps))

    def row(self) -> str:
        """One formatted log line."""
        return (
            f"t={self.time:9.4f}  {self.mode:>3}/{self.policy:<2}  "
            f"batch={self.batch_size:<3} active={self.active_jobs:<4} "
            f"Q={self.monitor_quality:6.4f}  ΣP={self.total_cap:7.2f} W"
        )


class DecisionLog(Sink):
    """Bounded ring buffer of :class:`Decision` records; a tracer sink.

    Parameters
    ----------
    capacity:
        Maximum retained rounds.  ``None`` falls back to
        :data:`DEFAULT_CAPACITY` — the log is *always* bounded, so a
        forgotten ``maxlen=None`` can no longer grow without limit over
        a long run (older rounds stay available to a tracer's other
        sinks, e.g. a JSONL spill).
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is None:
            capacity = DEFAULT_CAPACITY
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._records: Deque[Decision] = deque(maxlen=capacity)
        self._total = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained records."""
        return self._records.maxlen

    def record(self, decision: Decision) -> None:
        """Append one round's record."""
        self._records.append(decision)
        self._total += 1

    def on_event(self, event: EventRecord) -> None:
        """Record a ``decision`` event; other kinds are ignored."""
        if event.kind == "decision":
            attrs = {**event.attrs, "caps": tuple(event.attrs["caps"])}
            self.record(Decision(time=event.time, **attrs))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._records)

    @property
    def total_recorded(self) -> int:
        """Rounds recorded over the whole run (including evicted ones)."""
        return self._total

    @property
    def last(self) -> Optional[Decision]:
        """Most recent record, if any."""
        return self._records[-1] if self._records else None

    def mode_changes(self) -> List[Tuple[Seconds, str]]:
        """Times at which the retained records switch mode."""
        out: List[Tuple[Seconds, str]] = []
        prev: Optional[str] = None
        for d in self._records:
            if d.mode != prev:
                out.append((d.time, d.mode))
                prev = d.mode
        return out

    def to_rows(self, limit: Optional[int] = None) -> List[str]:
        """Render the (tail of the) log as formatted lines."""
        records = list(self._records)
        if limit is not None:
            records = records[-limit:]
        return [d.row() for d in records]
