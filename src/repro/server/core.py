"""A single DVFS core executing planned segments.

The schedulers in this library express per-core work as an ordered list
of :class:`Segment` objects — "process ``volume`` units of ``job`` at
``speed`` GHz".  The :class:`Core` executes segments back-to-back,
records its speed as a piecewise-constant timeline (for exact energy
integration and Fig. 6's speed statistics), and supports the two
asynchronous edits online scheduling needs:

* :meth:`set_plan` — replace all queued work (re-planning at a trigger);
  the in-flight segment is charged for the volume it has processed.
* :meth:`abort_job` — remove one job mid-plan (deadline expiry).

A segment marked ``final`` settles its job on completion: ``COMPLETED``
if the full demand was processed, else ``CUT`` (the deliberate AES
outcome).  Non-final segments leave the job live (used when a plan
intentionally processes a prefix now and decides the tail later).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import SchedulingError
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_LOW, Event
from repro.sim.timeline import StepTimeline
from repro.units import Gigahertz, Seconds, UnitsPerGhzSecond, Volume
from repro.workload.job import Job, JobOutcome

__all__ = ["Core", "Segment"]

#: Volumes below this are considered already done (float-noise guard).
_VOLUME_EPS = 1e-9


@dataclass(slots=True)
class Segment:
    """An execution order: run ``job`` for ``volume`` units at ``speed``.

    A slotted record: every plan of every GE round builds one per
    planned job.

    Attributes
    ----------
    job:
        The job to advance.
    volume:
        Processing units to execute in this segment (> 0).
    speed:
        Core speed in GHz while the segment runs (> 0).
    final:
        Whether the job should be settled when the segment completes.
    """

    job: Job
    volume: Volume
    speed: Gigahertz
    final: bool = True

    def __post_init__(self) -> None:
        if self.volume <= 0:
            raise SchedulingError(
                f"segment for job {self.job.jid} has non-positive volume {self.volume!r}"
            )
        if self.speed <= 0:
            raise SchedulingError(
                f"segment for job {self.job.jid} has non-positive speed {self.speed!r}"
            )

    def duration(self, units_per_ghz_second: UnitsPerGhzSecond) -> Seconds:
        """Wall-clock length of the segment."""
        return self.volume / (self.speed * units_per_ghz_second)


class Core:
    """One core of the multicore server.

    Parameters
    ----------
    index:
        Core id within the machine.
    sim:
        The simulator driving completion events.
    units_per_ghz_second:
        Throughput of this core at 1 GHz (paper: 1000 units/s).
    on_idle:
        Callback invoked (with the core index) whenever the core runs
        out of planned work — this is the paper's "idle-core" trigger.
    on_settle:
        Callback invoked with each job the core settles (completion or
        cut), so the harness can record quality.
    tracer:
        Observability sink (``repro.obs``); every segment start/stop is
        recorded as an ``exec`` span when tracing is enabled.  Defaults
        to the zero-overhead null tracer.
    """

    def __init__(
        self,
        index: int,
        sim: Simulator,
        units_per_ghz_second: UnitsPerGhzSecond = 1000.0,
        on_idle: Optional[Callable[[int], None]] = None,
        on_settle: Optional[Callable[[Job], None]] = None,
        tracer: Optional[TracerLike] = None,
    ) -> None:
        self.index = index
        self.sim = sim
        self.units_per_ghz_second = float(units_per_ghz_second)
        self.on_idle = on_idle
        self.on_settle = on_settle
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.speed_timeline = StepTimeline(start_time=sim.now, initial_value=0.0)
        #: Chaos state: a failed core executes nothing and rejects plans
        #: until :meth:`recover` (see repro.chaos).
        self.failed = False
        #: ``failed`` over time (1.0 while failed), for the audits.
        self.failed_timeline = StepTimeline(start_time=sim.now, initial_value=0.0)
        self._pending: List[Segment] = []
        self._current: Optional[Segment] = None
        self._current_started: Seconds = 0.0
        self._completion: Optional[Event] = None
        self._completion_name = f"core{index}-done"
        self._completed_volume: Volume = 0.0
        self._exec_span = None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a segment is currently executing."""
        return self._current is not None

    @property
    def has_work(self) -> bool:
        """Whether any segment is executing or queued."""
        return self._current is not None or bool(self._pending)

    @property
    def speed(self) -> Gigahertz:
        """Current speed in GHz (0 when idle)."""
        return self._current.speed if self._current else 0.0

    @property
    def completed_volume(self) -> Volume:
        """Total processing units this core has executed."""
        return self._completed_volume

    def pending_jobs(self) -> List[Job]:
        """Jobs with planned-but-unstarted segments (deduplicated, in order)."""
        seen: dict[int, Job] = {}
        for seg in self._pending:
            seen.setdefault(seg.job.jid, seg.job)
        return list(seen.values())

    def planned_volume(self, job: Job) -> Volume:
        """Total volume still planned (queued + in-flight remainder) for ``job``."""
        total = sum(s.volume for s in self._pending if s.job.jid == job.jid)
        if self._current is not None and self._current.job.jid == job.jid:
            total += self._current.volume - self._progress_so_far(self.sim.now)
        return total

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def set_plan(self, segments: List[Segment]) -> None:
        """Replace every queued segment with ``segments``.

        Any in-flight segment is interrupted *now*: the volume executed
        so far is credited to its job, and the job's continuation (if
        any) must be included in the new plan by the scheduler — this is
        exactly the paper's "consider a running job as a new one upon a
        new schedule".
        """
        if self.failed and segments:
            raise SchedulingError(
                f"core {self.index} is failed and cannot accept a plan"
            )
        self._interrupt_current()
        self._pending = list(segments)
        self._start_next()

    def checkpoint(self) -> None:
        """Pause the core, crediting in-flight progress to its job.

        Used at the start of a batch replan so that "processed volume"
        is up to date while the scheduler recomputes targets; the core
        stays paused (pending segments intact) until :meth:`set_plan`.
        """
        self._interrupt_current()

    def enqueue(self, segment: Segment) -> None:
        """Append one segment to the plan (used by one-job-at-a-time baselines)."""
        if self.failed:
            raise SchedulingError(
                f"core {self.index} is failed and cannot accept work"
            )
        self._pending.append(segment)
        if not self.busy:
            self._start_next()

    # ------------------------------------------------------------------
    # Chaos: failure and recovery (repro.chaos)
    # ------------------------------------------------------------------
    def fail(self) -> List[Job]:
        """Fail the core: stop execution, drop the plan, reject new work.

        The in-flight segment's progress is credited to its job (the
        work was done before the fault), then every planned job is
        returned — deduplicated, running job first — so the caller can
        kill or re-queue them per the disturbance policy.  The core
        does *not* fire its idle callback: a dead core is not a
        scheduling opportunity.
        """
        if self.failed:
            return []
        affected: List[Job] = []
        running = self._current.job if self._current is not None else None
        self._interrupt_current()
        if running is not None:
            affected.append(running)
        seen = {job.jid for job in affected}
        for job in self.pending_jobs():
            if job.jid not in seen:
                affected.append(job)
        self._pending = []
        self.failed = True
        self.failed_timeline.set_value(self.sim.now, 1.0)
        self.speed_timeline.set_value(self.sim.now, 0.0)
        return affected

    def recover(self) -> None:
        """Bring a failed core back (idle, empty plan)."""
        self.failed = False
        self.failed_timeline.set_value(self.sim.now, 0.0)

    def abort_job(self, job: Job) -> Volume:
        """Remove ``job`` from the plan; returns the volume it had executed.

        Called on deadline expiry.  Progress of an in-flight segment is
        credited before removal.  The job is *not* settled here — the
        harness owns settlement.
        """
        credited = 0.0
        if self._current is not None and self._current.job.jid == job.jid:
            credited = self._interrupt_current()
        self._pending = [s for s in self._pending if s.job.jid != job.jid]
        if not self.busy:
            self._start_next()
        return credited

    # ------------------------------------------------------------------
    # Internal execution machinery
    # ------------------------------------------------------------------
    def _progress_so_far(self, now: Seconds) -> Volume:
        """Units processed by the in-flight segment up to ``now``."""
        assert self._current is not None
        elapsed = now - self._current_started
        return min(
            self._current.volume,
            elapsed * self._current.speed * self.units_per_ghz_second,
        )

    def _interrupt_current(self) -> Volume:
        """Stop the in-flight segment, crediting its progress; return it."""
        if self._current is None:
            return 0.0
        now = self.sim.now
        done = self._progress_so_far(now)
        if done > _VOLUME_EPS:
            self._current.job.add_progress(done)
            self._completed_volume += done
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        self._current = None
        if self._exec_span is not None:
            self.tracer.exec_end(self._exec_span, now, done)
            self._exec_span = None
        self.speed_timeline.set_value(now, 0.0)
        return done

    def _start_next(self) -> bool:
        """Start the next runnable segment; False when out of work."""
        now = self.sim.now
        while self._pending:
            seg = self._pending.pop(0)
            if seg.job.settled:
                continue  # job expired/settled while waiting in the plan
            remaining_window = seg.job.deadline - now
            if remaining_window <= 0:
                continue  # cannot run past the deadline; expiry event settles it
            self._current = seg
            self._current_started = now
            if self.tracer.enabled:
                self._exec_span = self.tracer.exec_start(
                    seg.job, self.index, seg.speed, seg.volume, now
                )
            self.speed_timeline.set_value(now, seg.speed)
            duration = seg.duration(self.units_per_ghz_second)
            # Completion events run at low priority so that deadline
            # expiries and arrivals at the same instant are seen first.
            self._completion = self.sim.schedule(
                duration, self._complete, priority=PRIORITY_LOW, name=self._completion_name
            )
            return True
        self.speed_timeline.set_value(now, 0.0)
        return False

    def _complete(self) -> None:
        seg = self._current
        assert seg is not None, "completion fired with no in-flight segment"
        self._completion = None
        self._current = None
        if self._exec_span is not None:
            self.tracer.exec_end(self._exec_span, self.sim.now, seg.volume)
            self._exec_span = None
        seg.job.add_progress(seg.volume)
        self._completed_volume += seg.volume
        if seg.final and not seg.job.settled:
            outcome = (
                JobOutcome.COMPLETED if seg.job.remaining <= _VOLUME_EPS else JobOutcome.CUT
            )
            seg.job.settle(outcome)
            if self.on_settle is not None:
                self.on_settle(seg.job)
        if not self._start_next() and self.on_idle is not None:
            self.on_idle(self.index)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"running {self._current.job.jid}@{self._current.speed:.2f}GHz" if self._current else "idle"
        return f"Core({self.index}, {state}, queued={len(self._pending)})"
