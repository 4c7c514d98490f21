"""Unified tracing & telemetry for the simulator.

The :mod:`repro.obs` subsystem records what a run *did over time* —
the end-of-run :class:`repro.metrics.collector.RunResult` says how it
went, a trace says why:

* job spans (arrival → assignment → execution slices → settlement);
* scheduler events (AES↔BQ switches, compensation episodes, ES↔WF
  policy flips, per-round decisions);
* per-core speed/power/energy timelines at quantum boundaries;
* a counters/gauges/histograms registry.

Usage::

    from repro.obs import Tracer, write_jsonl, summarize

    tracer = Tracer()
    result = SimulationHarness(config, make_ge(), tracer=tracer).run()
    print(summarize(tracer.to_trace()))   # the run digest
    write_jsonl(tracer, "trace.jsonl")

Tracing is off by default: every harness uses the shared
:data:`NULL_TRACER` unless one is passed, at a cost of one attribute
read per instrumentation point.  See ``docs/observability.md`` for the
event schema.

The tracer hands every record to its :class:`Sink` tuple — by default
one :class:`Buffer`.  For long horizons,
:class:`repro.obs.stream.StreamingTracer` swaps the buffer for
constant-memory windowed aggregation, online monitoring of four fixed
SLOs (:class:`SLOTracker`) and an optional :class:`JsonlSpill`;
finished runs land in the run registry (:mod:`repro.obs.runs`) and
render to an HTML dashboard (:mod:`repro.obs.report`)::

    from repro.obs import StreamingTracer

    tracer = StreamingTracer(spill_path="trace.jsonl")
    result = SimulationHarness(config, make_ge(), tracer=tracer).run()
    summary = tracer.summary()          # windows, SLOs, utilization
"""

from repro.obs.export import (
    TRACE_SCHEMA,
    JsonlSpill,
    SpansCsv,
    TimelineCsv,
    iter_jsonl,
    read_jsonl,
    trace_records,
    write_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    QuantileSketch,
)
from repro.obs.report import render_fleet_report, render_report, write_report
from repro.obs.runs import (
    FLEET_SCHEMA,
    RunStore,
    diff_runs,
    format_diff,
    format_fleet,
    format_run,
    format_runs_table,
    make_summary,
    run_id_for,
)
from repro.obs.slo import SLOTracker
from repro.obs.spans import EventRecord, SpanRecord
from repro.obs.stream import (
    StreamAggregator,
    StreamingTracer,
    WindowSeries,
    fold_records,
    fold_summary,
    summarize,
)
from repro.obs.timeline import CoreTimelineSampler, TimelineSample
from repro.obs.tracer import NULL_TRACER, Buffer, NullTracer, Sink, Trace, Tracer

__all__ = [
    "FLEET_SCHEMA",
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "Buffer",
    "Counter",
    "CoreTimelineSampler",
    "EventRecord",
    "Gauge",
    "Histogram",
    "JsonlSpill",
    "MetricsRegistry",
    "NullTracer",
    "P2Quantile",
    "QuantileSketch",
    "RunStore",
    "SLOTracker",
    "Sink",
    "SpanRecord",
    "SpansCsv",
    "StreamAggregator",
    "StreamingTracer",
    "TimelineCsv",
    "TimelineSample",
    "Trace",
    "Tracer",
    "WindowSeries",
    "diff_runs",
    "fold_records",
    "fold_summary",
    "format_diff",
    "format_fleet",
    "format_run",
    "format_runs_table",
    "iter_jsonl",
    "make_summary",
    "read_jsonl",
    "render_fleet_report",
    "render_report",
    "run_id_for",
    "summarize",
    "trace_records",
    "write_jsonl",
    "write_report",
]
