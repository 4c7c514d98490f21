"""Streaming telemetry: bounded-memory aggregation over sim-time.

The full :class:`repro.obs.tracer.Tracer` materializes every span,
event and sample in memory — perfect for debugging a 10-second
scenario, linear in the horizon for anything else.  This module is the
constant-memory alternative:

* :class:`WindowSeries` — tumbling window aggregates (count / sum /
  min / max / mean / last) over **simulated** time.  The window
  width defaults to ``horizon / DEFAULT_WINDOWS``, so the number of
  retained rows is a constant (~:data:`DEFAULT_WINDOWS`) regardless of
  how long the run is or how many records it emits;
* :class:`StreamAggregator` — folds the trace streams (per-round
  ``decision`` events, per-core timeline samples, settle events, exec
  and job spans) into those windows, P² quantile sketches
  (:class:`repro.obs.registry.QuantileSketch`), online mode intervals,
  per-core utilization, per-outcome job stats and the online SLO
  monitors of :mod:`repro.obs.slo`;
* :class:`StreamingTracer` — a :class:`repro.obs.tracer.Tracer` whose
  sinks are a :class:`StreamAggregator` and, optionally, a
  :class:`repro.obs.export.JsonlSpill`: records are folded **instead of
  buffered** (constant memory either way);
* :func:`fold_records` / :func:`fold_summary` / :func:`summarize` — the
  same fold offline, over a trace or its JSONL records: the one trace
  summariser behind the run digest (:func:`repro.obs.runs.format_run`).

**Exactness.**  Each aggregation stream folds exactly one record kind
in its emission order — decisions by ``seq``, sample batches
chronologically, exec spans per-core in close order (a core runs one
slice at a time, so close order equals open order) — and the offline
:func:`fold_records` replays the very same fold over exported JSONL.
Job spans close in settle order online but open order offline, so their
sums are exact (:func:`_add_exact`).  Online and offline aggregates
therefore agree *bit-for-bit*, including the P² sketches, which are pure
functions of the observation sequence (pinned by
``tests/obs/test_stream.py``).

All windowing is in simulated seconds; nothing here reads a wall clock
(sim-lint SIM001 applies to this module with no exemption).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.export import JsonlSpill, trace_records
from repro.obs.registry import MetricsRegistry, QuantileSketch
from repro.obs.runs import RUN_SCHEMA, format_run, run_id_for
from repro.obs.slo import SLOTracker
from repro.obs.spans import EventRecord, SpanRecord
from repro.obs.timeline import TimelineSample
from repro.obs.tracer import Sink, Trace, Tracer
from repro.units import Seconds

__all__ = [
    "DEFAULT_WINDOWS",
    "StreamAggregator",
    "StreamingTracer",
    "WindowSeries",
    "fold_records",
    "fold_summary",
    "summarize",
]

#: Default number of tumbling windows the horizon is divided into.
#: Fixing the window *count* (not the width) is what makes streaming
#: memory flat versus horizon: a 4x-longer run gets 4x-wider windows,
#: not 4x more rows.
DEFAULT_WINDOWS = 60

#: Mode intervals retained verbatim for the Gantt display.  AES↔BQ
#: switching continues for the whole run, so the interval list is the
#: one naturally unbounded aggregate; past this cap further intervals
#: fold into the (exact) ``mode_totals`` aggregate only and
#: ``intervals_dropped`` records how many were not retained — a
#: truncated Gantt, never silent truncation.
MAX_MODE_INTERVALS = 64

#: Chaos (disturbance) events retained verbatim for degradation panels
#: in reports.  Schedules are hand-written and small, so the cap exists
#: only as a bounded-memory guarantee; ``chaos_dropped`` counts any
#: overflow — truncated markers, never silent truncation.
MAX_CHAOS_EVENTS = 128


class WindowSeries:
    """Tumbling window aggregates of one value stream.

    Each window spans ``width`` simulated seconds and keeps the count,
    sum, min, max, last value and mean of its observations.

    ``observe`` must be called with non-decreasing times (trace streams
    are chronological).  Completed rows accumulate in :attr:`rows` —
    O(elapsed / width) of them, independent of the observation count —
    and windows with no observations produce no row, so sparse series
    stay sparse.
    """

    __slots__ = ("name", "width", "rows", "_open", "_index", "_finished")

    def __init__(self, name: str, *, width: Seconds) -> None:
        if width <= 0:
            raise ValueError(f"window series {name}: width must be positive")
        self.name = name
        self.width = float(width)
        self.rows: List[Dict[str, Any]] = []
        self._open: Optional[Dict[str, Any]] = None
        self._index = 0
        self._finished = False

    def observe(self, time: Seconds, value: float) -> None:
        """Fold one observation at simulated ``time``."""
        if self._finished:
            raise ValueError(f"window series {self.name}: already finished")
        index = int(time / self.width)
        row = self._open
        if row is None or index > self._index:
            self._emit()
            self._index = index
            row = {"count": 0, "sum": 0.0, "min": value, "max": value, "last": value}
            self._open = row
        row["count"] += 1
        row["sum"] += value
        if value < row["min"]:
            row["min"] = value
        if value > row["max"]:
            row["max"] = value
        row["last"] = value

    def _emit(self) -> None:
        """Emit the open window's row, if any."""
        row = self._open
        if row is None:
            return
        start = self._index * self.width
        self.rows.append({
            "start": start, "end": start + self.width, "count": row["count"],
            "sum": row["sum"], "min": row["min"], "max": row["max"],
            "last": row["last"], "mean": row["sum"] / row["count"],
        })
        self._open = None

    def finish(self, end: Seconds) -> None:
        """Flush the final (possibly partial) window at run end."""
        if self._finished:
            return
        self._finished = True
        self._emit()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native state: window width plus the emitted rows."""
        return {"width": self.width, "rows": [dict(r) for r in self.rows]}


def _add_exact(partials: List[float], x: float) -> None:
    """Add ``x`` to a sum kept as exact non-overlapping ``partials``
    (Shewchuk's algorithm, as in :func:`math.fsum`): ``math.fsum(partials)``
    is then the correctly rounded sum, whatever the order of the terms."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _window_width(meta: Dict[str, Any]) -> Seconds:
    horizon = float(meta.get("horizon") or 0.0)
    if horizon <= 0:
        return 1.0
    return horizon / DEFAULT_WINDOWS


class StreamAggregator(Sink):
    """Folds trace streams into bounded-memory aggregates.

    One instance serves one run, as a tracer sink, or one offline
    replay of that run's exported records (:func:`fold_records`).  The
    entry points are the sink hooks:

    * :meth:`on_event` — ``decision`` / ``settle`` fold into windows,
      sketches, mode intervals and SLO monitors; other kinds are
      counted and ignored;
    * :meth:`on_sample_batch` — one quantum boundary's per-core
      timeline samples;
    * :meth:`on_span_close` — a closed span (exec slices fold into
      per-core utilization, job spans into per-outcome job stats);
    * :meth:`finish` — close time-weighted accumulators at run end and
      put the SLO summary in ``meta["slo"]``.

    The streams are independent — no accumulator mixes records of two
    kinds — which is why the offline replay (whose canonical JSONL
    groups samples after events) folds each stream in exactly the
    online order (job sums are exact, so their order does not matter).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.meta: Dict[str, Any] = {}
        self.series: Dict[str, WindowSeries] = {}
        self.slo: Optional[SLOTracker] = None
        self.mode_intervals: List[Dict[str, Any]] = []
        self.mode_totals: Dict[str, float] = {
            "switches": 0, "aes_s": 0.0, "bq_s": 0.0, "intervals_dropped": 0,
        }
        self.record_counts: Dict[str, int] = {"span": 0, "event": 0, "sample": 0}
        self.chaos_events: List[Dict[str, Any]] = []
        self.chaos_dropped = 0
        #: Metric records of a replayed trace (:func:`fold_records`).
        self.trace_metrics: Dict[str, Dict[str, Any]] = {}
        self._started = False
        self._finished = False
        self._mode: Optional[str] = None
        self._mode_start = 0.0
        self._last_decision: Optional[float] = None
        self._cores: Dict[int, Dict[str, float]] = {}
        # outcome -> [count, Σ sojourn partials, Σ processed/demand partials]
        self._jobs: Dict[str, List[Any]] = {}
        self._gap_sketch: Optional[QuantileSketch] = None
        self._end: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, meta: Dict[str, Any], metrics: Optional[MetricsRegistry] = None) -> None:
        """Arm the aggregator from the run's metadata.

        Window width derives from ``meta["horizon"]`` and the SLO
        thresholds from ``q_ge`` / ``budget`` (see
        :class:`repro.obs.slo.SLOTracker`).
        The first call adopts ``meta`` (a tracer's live metadata) and
        ``metrics`` (its registry, which then holds the sketches and SLO
        metrics); later calls merge their keys — an offline replay may
        see both a provisional and a final header — but arming happens
        once.
        """
        if self._started:
            self.meta.update(meta)
            return
        self._started = True
        self.meta = meta
        if metrics is not None:
            self.registry = metrics
        width = _window_width(self.meta)
        for name in ("quality", "queue_depth", "power_total_w",
                     "speed_mean_ghz", "reschedule_gap_s"):
            self.series[name] = WindowSeries(name, width=width)
        self._gap_sketch = self.registry.quantiles("stream.reschedule_gap_s")
        self.slo = SLOTracker(self.meta, self.registry)
        self._mode_start = float(self.meta.get("start", 0.0))

    def _require_started(self) -> None:
        # Headerless stream (unit tests, truncated files): arm with
        # defaults so records are never silently dropped.
        if not self._started:
            self.start({})

    # ------------------------------------------------------------------
    # Stream entry points
    # ------------------------------------------------------------------
    def on_event(self, event: EventRecord) -> None:
        """Fold one event record."""
        time, kind, attrs = event.time, event.kind, event.attrs
        if kind == "slo_violation":
            # Spills written before the SLO breach annotations were
            # dropped carry them; skipped (not even counted), so such a
            # file still folds to the digest its run printed.
            return
        self._require_started()
        self.record_counts["event"] += 1
        slo = self.slo
        assert slo is not None
        if kind == "decision":
            quality = float(attrs["monitor_quality"])
            mode = str(attrs["mode"])
            self.series["quality"].observe(time, quality)
            self.series["queue_depth"].observe(time, float(attrs.get("batch_size", 0)))
            if self._last_decision is not None:
                gap = time - self._last_decision
                self.series["reschedule_gap_s"].observe(time, gap)
                assert self._gap_sketch is not None
                self._gap_sketch.observe(gap)
            self._last_decision = time
            if mode != self._mode:
                if self._mode is not None:
                    self._close_mode_interval(time)
                    self.mode_totals["switches"] += 1
                self._mode_start = time
                self._mode = mode
            slo.on_decision(time, mode=mode, quality=quality)
        elif kind == "settle":
            slo.on_settle(time, outcome=str(attrs.get("outcome", "")))
        elif kind == "chaos":
            # Disturbance markers (repro.chaos): retained verbatim (up
            # to the cap) so reports can draw degradation windows.
            if len(self.chaos_events) < MAX_CHAOS_EVENTS:
                self.chaos_events.append({"time": float(time), **attrs})
            else:
                self.chaos_dropped += 1

    def on_sample_batch(
        self, time: Seconds, samples: List[TimelineSample], machine: Any = None
    ) -> None:
        """Fold one quantum boundary's core samples (one per core)."""
        self._require_started()
        if not samples:
            return
        self.record_counts["sample"] += len(samples)
        total_power = 0.0
        total_speed = 0.0
        for sample in samples:
            total_power += sample.power
            total_speed += sample.speed
            row = self._cores.setdefault(
                sample.core,
                {"busy": 0.0, "slices": 0.0, "volume": 0.0, "energy": 0.0},
            )
            row["energy"] = sample.energy  # cumulative: last sample wins
        self.series["power_total_w"].observe(time, total_power)
        self.series["speed_mean_ghz"].observe(time, total_speed / len(samples))
        assert self.slo is not None
        self.slo.on_power(time, total_power)

    def on_span_close(self, span: SpanRecord) -> None:
        """Fold one closed span (exec slices into per-core totals, jobs
        into their outcome's count, sojourn and processed fraction)."""
        self._require_started()
        self.record_counts["span"] += 1
        if span.end is None:
            return
        attrs = span.attrs
        if span.name == "exec":
            row = self._cores.setdefault(
                int(attrs["core"]), {"busy": 0.0, "slices": 0.0, "volume": 0.0, "energy": 0.0}
            )
            row["busy"] += span.end - span.start
            row["slices"] += 1
            row["volume"] += float(attrs.get("done", 0.0))
        elif span.name == "job":
            job = self._jobs.setdefault(str(attrs.get("outcome", "open")), [0, [], []])
            job[0] += 1
            _add_exact(job[1], span.end - span.start)
            demand = float(attrs.get("demand", 0.0))
            if demand > 0:
                _add_exact(job[2], float(attrs.get("processed", 0.0)) / demand)

    def finish(self, end: Seconds) -> None:
        """Close all time-weighted accumulators at simulated ``end``."""
        self._require_started()
        if self._finished:
            return
        self._finished = True
        self._end = float(end)
        if self._mode is not None:
            self._close_mode_interval(float(end))
        for series in self.series.values():
            series.finish(float(end))
        assert self.slo is not None
        self.slo.finish(float(end))
        self.meta["slo"] = self.slo.summary()

    def _close_mode_interval(self, end: Seconds) -> None:
        """Account the interval ending at ``end``; retain it if under the cap."""
        assert self._mode is not None
        key = "aes_s" if self._mode == "aes" else "bq_s"
        self.mode_totals[key] += end - self._mode_start
        if len(self.mode_intervals) < MAX_MODE_INTERVALS:
            self.mode_intervals.append(
                {"start": self._mode_start, "end": end, "mode": self._mode}
            )
        else:
            self.mode_totals["intervals_dropped"] += 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def core_utilization(self) -> Dict[int, Dict[str, float]]:
        """Per-core busy/slices/volume/energy/utilization.

        Busy time, slices and volume come from closed exec spans, energy
        from the core's last timeline sample; utilization divides busy
        time by the run duration (0 when the duration is unknown).
        """
        start = float(self.meta.get("start", 0.0))
        end = self._end if self._end is not None else start
        span_len = end - start
        out: Dict[int, Dict[str, float]] = {}
        for core in sorted(self._cores):
            row = dict(self._cores[core])
            row["utilization"] = row["busy"] / span_len if span_len > 0 else 0.0
            out[core] = row
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native aggregate state (the telemetry half of a run summary)."""
        return {
            "windows": {
                name: series.snapshot() for name, series in sorted(self.series.items())
            },
            "mode_intervals": [dict(i) for i in self.mode_intervals],
            "mode_totals": dict(self.mode_totals),
            "core_utilization": {
                str(core): row for core, row in self.core_utilization().items()
            },
            "slo": self.slo.summary() if self.slo is not None else {},
            "record_counts": dict(self.record_counts),
            "chaos_events": [dict(e) for e in self.chaos_events],
            "chaos_dropped": self.chaos_dropped,
            "jobs": {
                outcome: {
                    "count": count,
                    "mean_sojourn_s": math.fsum(sojourns) / count,
                    "mean_processed_fraction": math.fsum(fractions) / count,
                }
                for outcome, (count, sojourns, fractions) in sorted(self._jobs.items())
            },
        }

    def summary(self) -> Dict[str, Any]:
        """:meth:`snapshot` plus ``meta`` and ``metrics`` (the registry's,
        updated with :attr:`trace_metrics`): what ``make_summary`` takes."""
        telemetry = self.snapshot()
        telemetry["meta"] = dict(self.meta)
        telemetry["metrics"] = {**self.registry.snapshot(), **self.trace_metrics}
        return telemetry


class StreamingTracer(Tracer):
    """A tracer that aggregates instead of buffering.

    Its sinks are a :class:`StreamAggregator` (windows, sketches, SLO
    monitors, mode intervals, per-core totals) and, given
    ``spill_path``, a :class:`repro.obs.export.JsonlSpill` that appends
    every raw record to that file — telemetry memory is flat in the
    horizon either way (pinned by ``tests/obs/test_stream.py``), and
    :attr:`spans` / :attr:`events` / :attr:`samples` stay empty.
    The sinks only read, so record ids (``seq``, ``span_id``) advance
    exactly as in the buffering tracer: the spill holds the buffered
    trace's records, in close order (pinned by
    ``tests/obs/test_stream.py``).

    The SLOs are :class:`repro.obs.slo.SLOTracker`'s four fixed
    objectives over the run metadata (quality floor ``Q_GE``, power
    budget ``H``, deadline-miss rate, BQ dwell); the machine-readable
    compliance summary, with each SLO's first violation, lands in
    ``meta["slo"]`` at run end.
    """

    def __init__(self, *, spill_path: Optional[str] = None) -> None:
        self.aggregator = StreamAggregator()
        self.spill = None if spill_path is None else JsonlSpill(spill_path)
        super().__init__(
            sinks=(self.aggregator,) if self.spill is None else (self.aggregator, self.spill)
        )

    @property
    def spilled_records(self) -> int:
        """Raw records written to the spill file so far."""
        return 0 if self.spill is None else self.spill.written

    def summary(self) -> Dict[str, Any]:
        """The run's full streaming summary (JSON-native).

        Window series, mode intervals, per-core utilization, job stats,
        SLO compliance, record counts, the metrics snapshot and the run
        metadata — everything ``repro report`` and the run registry
        consume.  The aggregator shares the tracer's metadata and registry.
        """
        return self.aggregator.summary()


def fold_records(records: Union[Trace, Iterable[Dict[str, Any]]]) -> StreamAggregator:
    """Replay trace records through a fresh :class:`StreamAggregator`.

    ``records`` is an iterable of JSON-native record dicts (e.g. from
    :func:`repro.obs.export.iter_jsonl` or
    :func:`repro.obs.export.trace_records`) or a materialized
    :class:`~repro.obs.tracer.Trace`.  Sample records are regrouped
    into per-boundary batches: cores are sampled in ascending index
    order, so a batch ends when the core index stops increasing (two
    consecutive batches may share a timestamp at the drain boundary,
    so time alone cannot delimit them).  Metric records are kept in
    :attr:`~StreamAggregator.trace_metrics`.  Returns the finished
    aggregator, whose :meth:`~StreamAggregator.snapshot` equals the
    online one of a :class:`StreamingTracer` on the same run exactly.
    """
    if isinstance(records, Trace):
        records = trace_records(records)
    agg = StreamAggregator()
    pending: List[TimelineSample] = []

    def flush_samples() -> None:
        if pending:
            agg.on_sample_batch(pending[0].time, pending)
            pending.clear()

    end: Optional[float] = None
    for record in records:
        rtype = record.get("type")
        if rtype == "sample":
            sample = TimelineSample.from_record(record)
            if pending and sample.core <= pending[-1].core:
                flush_samples()
            pending.append(sample)
            continue
        flush_samples()
        if rtype == "meta":
            agg.start(dict(record["meta"]))
            if "end" in record["meta"]:
                end = float(record["meta"]["end"])
        elif rtype == "event":
            agg.on_event(EventRecord.from_record(record))
        elif rtype == "span":
            span = SpanRecord.from_record(record)
            if span.end is not None:
                agg.on_span_close(span)
        elif rtype == "metric":
            agg.trace_metrics[record["name"]] = {
                k: v for k, v in record.items() if k not in ("type", "name")
            }
    flush_samples()
    if end is None:
        end = float(agg.meta.get("end", agg.meta.get("start", 0.0)))
    agg.finish(end)
    return agg


def fold_summary(records: Union[Trace, Iterable[Dict[str, Any]]]) -> Dict[str, Any]:
    """Fold a trace into a ``repro.run/1`` summary with ``result: None``,
    under its run's id (``None`` without a config fingerprint)."""
    telemetry = fold_records(records).summary()
    meta = telemetry.pop("meta")
    return {
        "schema": RUN_SCHEMA,
        "run_id": run_id_for(meta) if meta.get("config_fingerprint") else None,
        "meta": meta,
        "result": None,
        "telemetry": telemetry,
    }


def summarize(records: Union[Trace, Iterable[Dict[str, Any]]]) -> str:
    """The run digest of a trace (:func:`repro.obs.runs.format_run`)."""
    return format_run(fold_summary(records))
