"""The job model (paper §II-A).

A job ``J_j`` has an arrival (start) time ``s_j``, a deadline ``d_j``
and a processing demand ``p_j``.  It may be *partially* processed; the
final processed volume ``c_j ≤ p_j`` determines its quality ``f(c_j)``.

:class:`Job` is a small mutable record with an explicit lifecycle::

    PENDING --assign--> ASSIGNED --run--> ... --settle--> COMPLETED
       |                                            |----> CUT
       '------------------- expire ----------------'----> EXPIRED / DROPPED

``COMPLETED`` means the full demand was processed; ``CUT`` means the
scheduler deliberately finished the job at a reduced volume (AES mode);
``EXPIRED`` means the deadline passed with work left; ``DROPPED`` means
the job never ran at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.units import Seconds, Volume

__all__ = ["Job", "JobOutcome"]

#: Volumes smaller than this are treated as zero to absorb float error.
_VOLUME_EPS = 1e-9
_INF = float("inf")


class JobOutcome(enum.Enum):
    """Final disposition of a job."""

    PENDING = "pending"
    COMPLETED = "completed"  # processed == demand
    CUT = "cut"  # deliberately finished at reduced volume
    EXPIRED = "expired"  # deadline passed mid-execution
    DROPPED = "dropped"  # never received any processing

    @property
    def is_final(self) -> bool:
        """Whether this outcome ends the job's lifecycle."""
        return self is not JobOutcome.PENDING


#: Bound once: reading an enum member off its class is a slow lookup on
#: CPython 3.11, and ``Job.settled`` runs on every plan step.
_PENDING = JobOutcome.PENDING


@dataclass
class Job:
    """One service request.

    Attributes
    ----------
    jid:
        Unique id, assigned in arrival order.
    arrival:
        Start time ``s_j`` (seconds).  The job cannot run earlier.
    deadline:
        Absolute deadline ``d_j`` (seconds).  No processing after it.
    demand:
        Full processing demand ``p_j`` (processing units; a core at
        1 GHz delivers 1000 units/second).
    processed:
        Volume processed so far, ``c_j``.
    core:
        Index of the core the job is pinned to once assigned (jobs
        never migrate, §II-B).
    """

    jid: int
    arrival: Seconds
    deadline: Seconds
    demand: Volume
    processed: Volume = 0.0
    core: Optional[int] = None
    #: Application-class index (0 in the paper's single-class model;
    #: the mixed-class extension maps it to a per-class quality function).
    klass: int = 0
    outcome: JobOutcome = field(default=JobOutcome.PENDING)

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not 0.0 < self.demand < _INF:
            raise ValueError(
                f"job {self.jid}: demand must be positive and finite ({self.demand!r})"
            )
        if not (-_INF < self.arrival < _INF and -_INF < self.deadline < _INF):
            raise ValueError(
                f"job {self.jid}: arrival {self.arrival!r} and deadline {self.deadline!r}"
                " must be finite"
            )
        if not self.deadline > self.arrival:
            raise ValueError(
                f"job {self.jid}: deadline {self.deadline!r} precedes arrival {self.arrival!r}"
            )
        if self.processed < 0:
            raise ValueError(f"job {self.jid}: negative processed volume")

    # ------------------------------------------------------------------
    @property
    def remaining(self) -> Volume:
        """Unprocessed demand ``p_j − c_j`` (never negative)."""
        return max(0.0, self.demand - self.processed)

    @property
    def window(self) -> Seconds:
        """Length of the execution window ``d_j − s_j``."""
        return self.deadline - self.arrival

    @property
    def settled(self) -> bool:
        """Whether the job's outcome is final."""
        return self.outcome is not _PENDING

    def laxity(self, now: Seconds) -> Seconds:
        """Time left until the deadline (negative when expired)."""
        return self.deadline - now

    # ------------------------------------------------------------------
    def assign(self, core: int) -> None:
        """Pin the job to a core (one-shot; jobs never migrate)."""
        if self.core is not None and self.core != core:
            raise ValueError(
                f"job {self.jid} already pinned to core {self.core}, cannot move to {core}"
            )
        self.core = core

    def add_progress(self, volume: Volume) -> None:
        """Record ``volume`` processing units of execution."""
        if self.outcome is not _PENDING:
            raise ValueError(f"job {self.jid} is already settled ({self.outcome})")
        if volume < -_VOLUME_EPS:
            raise ValueError(f"job {self.jid}: negative progress {volume!r}")
        self.processed = min(self.demand, self.processed + max(0.0, volume))

    def settle(self, outcome: JobOutcome) -> None:
        """Fix the job's final outcome."""
        if self.settled:
            raise ValueError(f"job {self.jid} settled twice ({self.outcome} -> {outcome})")
        if outcome is JobOutcome.PENDING:
            raise ValueError("cannot settle to PENDING")
        self.outcome = outcome

    def settle_auto(self) -> JobOutcome:
        """Settle with the outcome implied by the processed volume.

        A relative tolerance absorbs float error from segments that end
        exactly at the deadline: a deficit below ``1e-7 × demand`` still
        counts as completion (the quality difference is ~1e-10).
        """
        if self.remaining <= max(_VOLUME_EPS, 1e-7 * self.demand):
            self.processed = self.demand
            self.settle(JobOutcome.COMPLETED)
        elif self.processed <= _VOLUME_EPS:
            self.settle(JobOutcome.DROPPED)
        else:
            self.settle(JobOutcome.EXPIRED)
        return self.outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(#{self.jid}, t={self.arrival:.4f}..{self.deadline:.4f}, "
            f"p={self.demand:.1f}, c={self.processed:.1f}, core={self.core}, "
            f"{self.outcome.value})"
        )
