"""The tracer, its record sinks and its zero-overhead null twin.

:class:`Tracer` is the one emitter of the four telemetry streams the
simulator can produce (see ``docs/observability.md`` for the schema):

* **job spans** — arrival → enqueue → assignment → cut → execution
  slices → settlement, with exec slices as child spans;
* **scheduler events** — AES↔BQ mode switches, compensation episodes,
  ES↔WF policy flips, per-round decisions;
* **core timelines** — per-core speed/power/cumulative-energy samples
  at quantum boundaries;
* **metrics** — a :class:`repro.obs.registry.MetricsRegistry` of
  counters/gauges/histograms.

The tracer builds each :class:`SpanRecord`, :class:`EventRecord` and
:class:`TimelineSample` once and hands it to every :class:`Sink` in its
``sinks`` tuple, in order.  What happens to a record is the sinks'
business: :class:`Buffer` keeps it for :meth:`Tracer.to_trace`, the
stream aggregator folds it, the JSONL spill writes it, the sanitizer
checks it, a :class:`repro.core.decisions.DecisionLog` keeps the
``decision`` events.  Sinks only read records, so any set of them
composes on one run.

Instrumented hot paths guard every call with ``if tracer.enabled:`` and
default to the shared :data:`NULL_TRACER`, whose ``enabled`` is
``False`` — a disabled run pays one attribute read per trace point and
performs **no** allocations inside :mod:`repro.obs` (asserted by
``tests/obs/test_overhead.py``).

The tracer only *reads* simulation state and never schedules events, so
enabling it cannot perturb results: a fixed-seed run produces a
bit-identical :class:`repro.metrics.collector.RunResult` with tracing
on or off (pinned by ``tests/obs/test_determinism.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import EventRecord, SpanRecord
from repro.obs.timeline import CoreTimelineSampler, TimelineSample
from repro.units import Gigahertz, Seconds, Volume

if TYPE_CHECKING:  # type-only: repro.obs stays import-light at runtime
    from repro.core.decisions import Decision
    from repro.server.machine import MulticoreServer
    from repro.workload.job import Job

__all__ = ["NULL_TRACER", "Buffer", "NullTracer", "Sink", "Trace", "Tracer", "TracerLike"]

#: Anything instrumented code accepts as its observability sink.
TracerLike = Union["Tracer", "NullTracer"]


class Trace:
    """An immutable-ish bundle of one run's telemetry.

    This is what exporters write and :func:`repro.obs.export.read_jsonl`
    reconstructs; :mod:`repro.obs.analyze` consumes it.
    """

    def __init__(
        self,
        *,
        meta: Optional[Dict[str, Any]] = None,
        spans: Optional[List[SpanRecord]] = None,
        events: Optional[List[EventRecord]] = None,
        samples: Optional[List[TimelineSample]] = None,
        metrics: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> None:
        self.meta = meta or {}
        self.spans = spans or []
        self.events = events or []
        self.samples = samples or []
        self.metrics = metrics or {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.meta == other.meta
            and self.spans == other.spans
            and self.events == other.events
            and self.samples == other.samples
            and self.metrics == other.metrics
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({len(self.spans)} spans, {len(self.events)} events, "
            f"{len(self.samples)} samples, {len(self.metrics)} metrics)"
        )

    def spans_named(self, name: str) -> List[SpanRecord]:
        """All spans of one kind (``"job"``, ``"exec"``)."""
        return [s for s in self.spans if s.name == name]

    def events_of(self, kind: str) -> List[EventRecord]:
        """All events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def children_of(self, span: SpanRecord) -> List[SpanRecord]:
        """Direct child spans, in emission order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def span_events(self, span: SpanRecord) -> List[EventRecord]:
        """Events attached to ``span``, in emission order."""
        return [e for e in self.events if e.span_id == span.span_id]


class Sink:
    """One consumer of a :class:`Tracer`'s record stream.

    Every hook is a no-op, so a sink overrides only what it reads.
    Records arrive in emission order; a sink must not mutate them.

    * :meth:`start` — run metadata (the tracer's live ``meta`` dict)
      and the tracer's metrics registry, once at run start;
    * :meth:`on_span_open` / :meth:`on_span_close` — a span opened, or
      closed with its final attributes merged in;
    * :meth:`on_event` — a point event;
    * :meth:`on_sample_batch` — one sampling instant's per-core samples
      (one per core, ascending), with the machine they were read from;
    * :meth:`finish` — run end (or interrupt) at simulated ``end``.
    """

    def start(self, meta: Dict[str, Any], metrics: Optional[MetricsRegistry] = None) -> None:
        return None

    def on_span_open(self, span: SpanRecord) -> None:
        return None

    def on_span_close(self, span: SpanRecord) -> None:
        return None

    def on_event(self, event: EventRecord) -> None:
        return None

    def on_sample_batch(
        self, time: Seconds, samples: List[TimelineSample], machine: Any = None
    ) -> None:
        return None

    def finish(self, end: Seconds) -> None:
        return None


class Buffer(Sink):
    """Keeps every record in memory, for :meth:`Tracer.to_trace`."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.samples: List[TimelineSample] = []

    def on_span_open(self, span: SpanRecord) -> None:
        self.spans.append(span)  # closed in place later

    def on_event(self, event: EventRecord) -> None:
        self.events.append(event)

    def on_sample_batch(
        self, time: Seconds, samples: List[TimelineSample], machine: Any = None
    ) -> None:
        self.samples.extend(samples)


class Tracer:
    """Emits spans, events, timeline samples and metrics for one run.

    A tracer is single-use: attach it to one
    :class:`repro.server.harness.SimulationHarness`, run, then export or
    analyze :meth:`to_trace`.

    Parameters
    ----------
    sinks:
        Where the records go, in dispatch order; defaults to one
        :class:`Buffer`.  :attr:`spans` / :attr:`events` /
        :attr:`samples` are the first buffer's lists (empty, and never
        filled, when no buffer is attached).
    """

    enabled = True

    def __init__(self, sinks: Optional[Iterable[Sink]] = None) -> None:
        self.sinks: Tuple[Sink, ...] = (Buffer(),) if sinks is None else tuple(sinks)
        buffer = next((s for s in self.sinks if isinstance(s, Buffer)), Buffer())
        self.spans = buffer.spans
        self.events = buffer.events
        self.samples = buffer.samples
        self.metrics = MetricsRegistry()
        self.meta: Dict[str, Any] = {}
        self._seq = 0
        self._next_span_id = 0
        self._job_spans: Dict[int, SpanRecord] = {}
        self._sampler = CoreTimelineSampler()
        self._closed = False

    # ------------------------------------------------------------------
    # Generic span/event API
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = seq + 1
        return seq

    def begin_span(
        self,
        name: str,
        time: Seconds,
        *,
        parent: Optional[SpanRecord] = None,
        **attrs: Any,
    ) -> SpanRecord:
        """Open a span at ``time`` (optionally nested under ``parent``)."""
        span = SpanRecord(
            span_id=self._next_span_id,
            name=name,
            start=float(time),
            seq=self._next_seq(),
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self._next_span_id += 1
        for sink in self.sinks:
            sink.on_span_open(span)
        return span

    def end_span(self, span: SpanRecord, time: Seconds, **attrs: Any) -> None:
        """Close ``span`` at ``time``, merging final attributes."""
        span.close(time, **attrs)
        for sink in self.sinks:
            sink.on_span_close(span)

    def event(
        self,
        kind: str,
        time: Seconds,
        *,
        span: Optional[SpanRecord] = None,
        **attrs: Any,
    ) -> EventRecord:
        """Record a point event (optionally attached to ``span``)."""
        record = EventRecord(
            time=float(time),
            kind=kind,
            seq=self._next_seq(),
            span_id=span.span_id if span is not None else None,
            attrs=attrs,
        )
        for sink in self.sinks:
            sink.on_event(record)
        return record

    # ------------------------------------------------------------------
    # Job lifecycle (called by the harness / scheduler / cores)
    # ------------------------------------------------------------------
    def job_arrived(self, job: Job, time: Seconds) -> SpanRecord:
        """Open the job's root span and record its enqueue."""
        span = self.begin_span(
            "job",
            time,
            jid=job.jid,
            arrival=job.arrival,
            deadline=job.deadline,
            demand=job.demand,
            klass=job.klass,
        )
        self._job_spans[job.jid] = span
        self.event("enqueue", time, span=span)
        return span

    def job_assigned(self, job: Job, core: int, time: Seconds) -> None:
        """Record the C-RR (or baseline) core assignment."""
        self.event("assign", time, span=self._job_spans.get(job.jid), core=core)

    def job_cut(self, job: Job, target: Volume, time: Seconds) -> None:
        """Record an LF-cut target below the job's full demand."""
        self.event(
            "lf_cut",
            time,
            span=self._job_spans.get(job.jid),
            target=float(target),
            demand=job.demand,
        )

    def job_settled(self, job: Job, time: Seconds) -> None:
        """Close the job's span with its outcome and processed volume."""
        span = self._job_spans.pop(job.jid, None)
        if span is None:
            return  # job predates the tracer (never happens via the harness)
        self.event("settle", time, span=span, outcome=job.outcome.value)
        self.end_span(span, time, outcome=job.outcome.value, processed=job.processed)

    def exec_start(
        self, job: Job, core: int, speed: Gigahertz, volume: Volume, time: Seconds
    ) -> SpanRecord:
        """Open an execution-slice span nested under the job's span."""
        return self.begin_span(
            "exec",
            time,
            parent=self._job_spans.get(job.jid),
            jid=job.jid,
            core=core,
            speed=float(speed),
            volume=float(volume),
        )

    def exec_end(self, span: SpanRecord, time: Seconds, done: Volume) -> None:
        """Close an execution slice with the volume actually processed."""
        self.end_span(span, time, done=float(done))

    # ------------------------------------------------------------------
    # Scheduler telemetry
    # ------------------------------------------------------------------
    def scheduler_event(self, kind: str, time: Seconds, **attrs: Any) -> None:
        """Record a free-standing scheduler event."""
        self.event(kind, time, **attrs)

    def decision(self, decision: Decision) -> None:
        """Record one scheduling round (a ``repro.core.decisions.Decision``)."""
        self.event(
            "decision",
            decision.time,
            mode=decision.mode,
            policy=decision.policy,
            batch_size=decision.batch_size,
            active_jobs=decision.active_jobs,
            monitor_quality=decision.monitor_quality,
            caps=[float(c) for c in decision.caps],
        )

    # ------------------------------------------------------------------
    # Core timelines
    # ------------------------------------------------------------------
    def sample_cores(self, machine: MulticoreServer, time: Seconds) -> None:
        """Snapshot per-core speed/power/energy (quantum boundary)."""
        samples = self._sampler.sample(machine, time)
        for sink in self.sinks:
            sink.on_sample_batch(float(time), samples, machine)

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def run_started(self, time: Seconds, **meta: Any) -> None:
        """Record run metadata (scheduler, config) and start the sinks."""
        self.meta.update(meta)
        self.meta["start"] = float(time)
        for sink in self.sinks:
            sink.start(self.meta, self.metrics)

    def run_finished(self, machine: MulticoreServer, time: Seconds, **meta: Any) -> None:
        """Take the final core sample, stamp the run end, finish the sinks.

        Extra keyword arguments (e.g. ``events=...`` from the harness)
        are merged into the trace metadata.
        """
        self.sample_cores(machine, time)
        self.meta.update(meta)
        self.meta["end"] = float(time)
        self.close(float(time))

    def close(self, end: Optional[float] = None) -> None:
        """Finish every sink at simulated ``end`` (idempotent).

        Called from :meth:`run_finished`; call it directly to wind a
        run down early (the CLI does on Ctrl-C) or after feeding
        records outside a harness run.
        """
        if self._closed:
            return
        self._closed = True
        if end is None:
            end = float(self.meta.get("end", self.meta.get("start", 0.0)))
        for sink in self.sinks:
            sink.finish(end)

    def open_spans(self) -> List[SpanRecord]:
        """Buffered spans not yet closed (empty after a fully drained run)."""
        return [s for s in self.spans if s.open]

    def to_trace(self) -> Trace:
        """Freeze the buffered telemetry into a :class:`Trace`."""
        return Trace(
            meta=dict(self.meta),
            spans=self.spans,
            events=self.events,
            samples=self.samples,
            metrics=self.metrics.snapshot(),
        )


def _null_hook(*args: Any, **kwargs: Any) -> None:
    return None


class NullTracer:
    """Tracing disabled: every hook is a no-op.

    ``enabled`` is ``False``; instrumented code checks it before
    building any arguments, so the only per-trace-point cost of a
    disabled run is that attribute read.  The hooks still exist (and
    return ``None``) so un-guarded calls are safe.
    """

    __slots__ = ()

    enabled = False

    begin_span = end_span = event = _null_hook
    job_arrived = job_assigned = job_cut = job_settled = _null_hook
    exec_start = exec_end = scheduler_event = decision = _null_hook
    sample_cores = run_started = run_finished = close = _null_hook


#: Shared process-wide null tracer (stateless, safe to share).
NULL_TRACER = NullTracer()
