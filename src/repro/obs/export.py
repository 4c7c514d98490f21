"""Trace serialization: JSONL (lossless round-trip) and CSV.

The JSONL layout is one self-describing object per line, discriminated
by ``"type"``:

* ``meta`` — one line, run metadata (scheduler, config, start/end);
* ``span`` / ``event`` — merged, ordered by emission ``seq``;
* ``sample`` — core-timeline samples in sampling order;
* ``metric`` — one line per registry instrument, sorted by name.

:func:`read_jsonl` inverts :func:`write_jsonl` exactly:
``read_jsonl(p) == trace`` after ``write_jsonl(trace, p)`` (Python's
``json`` emits shortest-repr floats, which round-trip bit-exactly).
:func:`iter_jsonl` is the streaming variant — one record dict at a
time, constant memory — for feeding :mod:`repro.obs.stream`.

:class:`JsonlSpill` is the incremental writer: a tracer sink that
appends each record as it is emitted (constant memory).

The CSV exporters are one-way conveniences for spreadsheets/plotting:
:func:`write_timeline_csv` (per-core samples) and
:func:`write_spans_csv` (job/exec spans, attrs flattened to JSON).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, TextIO, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import EventRecord, SpanRecord
from repro.obs.timeline import TimelineSample
from repro.obs.tracer import Sink, Trace, Tracer
from repro.units import Seconds

__all__ = [
    "TRACE_SCHEMA",
    "JsonlSpill",
    "iter_jsonl",
    "read_jsonl",
    "trace_records",
    "write_jsonl",
    "write_spans_csv",
    "write_timeline_csv",
]

#: Version tag stamped on the JSONL header (the ``meta`` record).  Bump
#: the integer on any backwards-incompatible record-layout change so a
#: reader can tell what it is parsing from the artifact alone.
TRACE_SCHEMA = "repro.trace/1"

_PathLike = Union[str, Path]


def _as_trace(trace: Union[Trace, Tracer]) -> Trace:
    return trace.to_trace() if isinstance(trace, Tracer) else trace


def trace_records(trace: Union[Trace, Tracer]) -> Iterator[Dict[str, Any]]:
    """Yield the trace as JSON-native dicts in canonical JSONL order."""
    trace = _as_trace(trace)
    # The schema tag lives on the record, not inside ``meta``, so the
    # write→read round trip reproduces the original Trace exactly.
    yield {"type": "meta", "schema": TRACE_SCHEMA, "meta": dict(trace.meta)}
    timed: List[Dict[str, Any]] = [s.to_record() for s in trace.spans]
    timed.extend(e.to_record() for e in trace.events)
    timed.sort(key=lambda r: r["seq"])
    yield from timed
    yield from (s.to_record() for s in trace.samples)
    for name in sorted(trace.metrics):
        yield {"type": "metric", "name": name, **trace.metrics[name]}


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"


def write_jsonl(trace: Union[Trace, Tracer], path: _PathLike) -> int:
    """Write the trace as JSONL; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace_records(trace):
            fh.write(_line(record))
            count += 1
    return count


class JsonlSpill(Sink):
    """A sink that appends every record to a JSONL file as it is emitted.

    Spans are written when they *close*, so the file is ordered by
    close-seq rather than the canonical open-seq of :func:`write_jsonl`
    (:func:`read_jsonl` accepts both).  A provisional ``meta`` header is
    written at run start and the final one, followed by the metrics, at
    :meth:`finish` (readers keep the last header seen).  Each record is
    a single ``write`` call, so a run interrupted between two records
    still leaves valid JSONL.
    """

    def __init__(self, path: _PathLike) -> None:
        self._fh: Optional[TextIO] = open(path, "w", encoding="utf-8")
        self._meta: Dict[str, Any] = {}
        self._metrics: Optional[MetricsRegistry] = None
        #: Records written so far.
        self.written = 0

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is not None:
            self._fh.write(_line(record))
            self.written += 1

    def _write_meta(self) -> None:
        self._write({"type": "meta", "schema": TRACE_SCHEMA, "meta": dict(self._meta)})

    def start(self, meta: Dict[str, Any], metrics: Optional[MetricsRegistry] = None) -> None:
        self._meta = meta  # the tracer's live metadata: the final header rereads it
        self._metrics = metrics
        self._write_meta()

    def on_span_close(self, span: SpanRecord) -> None:
        self._write(span.to_record())

    def on_event(self, event: EventRecord) -> None:
        self._write(event.to_record())

    def on_sample_batch(
        self, time: Seconds, samples: List[TimelineSample], machine: Any = None
    ) -> None:
        for sample in samples:
            self._write(sample.to_record())

    def finish(self, end: Seconds) -> None:
        if self._fh is None:
            return
        self._write_meta()
        if self._metrics is not None:
            for name, snap in self._metrics.snapshot().items():
                self._write({"type": "metric", "name": name, **snap})
        self._fh.close()
        self._fh = None


def iter_jsonl(path: _PathLike) -> Iterator[Dict[str, Any]]:
    """Yield a JSONL trace's records one dict at a time.

    The streaming complement of :func:`read_jsonl`: nothing is
    materialized beyond the current line, so a multi-gigabyte trace
    can be analyzed in constant memory (feed the iterator to
    :func:`repro.obs.stream.fold_records`).  Record order is the
    file's order; ``meta`` headers validate their schema tag exactly
    like :func:`read_jsonl`, and later headers supersede earlier ones
    (a :class:`JsonlSpill` file has a provisional header and a final
    one).
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            rtype = record.get("type")
            if rtype == "meta":
                schema = record.get("schema", TRACE_SCHEMA)
                if schema != TRACE_SCHEMA:
                    raise ValueError(
                        f"{path}:{lineno}: unsupported trace schema {schema!r} "
                        f"(this reader understands {TRACE_SCHEMA!r})"
                    )
            elif rtype not in ("span", "event", "sample", "metric"):
                raise ValueError(f"{path}:{lineno}: unknown record type {rtype!r}")
            yield record


def read_jsonl(path: _PathLike) -> Trace:
    """Parse a JSONL trace file back into a :class:`Trace`.

    Materializes everything; prefer :func:`iter_jsonl` plus the
    streaming consumers for large files.
    """
    meta: Dict[str, Any] = {}
    spans: List[SpanRecord] = []
    events: List[EventRecord] = []
    samples: List[TimelineSample] = []
    metrics: Dict[str, Dict[str, Any]] = {}
    for record in iter_jsonl(path):
        rtype = record.get("type")
        if rtype == "meta":
            meta = dict(record["meta"])
        elif rtype == "span":
            spans.append(SpanRecord.from_record(record))
        elif rtype == "event":
            events.append(EventRecord.from_record(record))
        elif rtype == "sample":
            samples.append(TimelineSample.from_record(record))
        else:  # "metric" — iter_jsonl rejects anything else
            name = record["name"]
            metrics[name] = {
                k: v for k, v in record.items() if k not in ("type", "name")
            }
    # Spans and events were merged by seq on export; re-splitting in file
    # order restores each list's original (seq-ascending) order.
    return Trace(meta=meta, spans=spans, events=events, samples=samples, metrics=metrics)


def write_timeline_csv(trace: Union[Trace, Tracer], path: _PathLike) -> int:
    """Write core-timeline samples as CSV; returns the row count."""
    trace = _as_trace(trace)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "core", "speed_ghz", "power_w", "energy_j"])
        for s in trace.samples:
            writer.writerow([f"{s.time:.9g}", s.core, f"{s.speed:.9g}",
                             f"{s.power:.9g}", f"{s.energy:.9g}"])
    return len(trace.samples)


def write_spans_csv(trace: Union[Trace, Tracer], path: _PathLike) -> int:
    """Write spans as CSV (attrs flattened to JSON); returns the row count."""
    trace = _as_trace(trace)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span_id", "parent_id", "name", "start", "end", "attrs"])
        for s in trace.spans:
            writer.writerow([
                s.span_id,
                "" if s.parent_id is None else s.parent_id,
                s.name,
                f"{s.start:.9g}",
                "" if s.end is None else f"{s.end:.9g}",
                json.dumps(s.attrs, sort_keys=True),
            ])
    return len(trace.spans)
