"""Tests for JSONL/CSV export: the round-trip must be exact."""

from __future__ import annotations

import json

from repro.obs.export import (
    SpansCsv,
    TimelineCsv,
    read_jsonl,
    trace_records,
    write_jsonl,
)
from repro.obs.tracer import Buffer, Tracer
from repro.workload.job import Job, JobOutcome


def build_tracer(*sinks) -> Tracer:
    tr = Tracer(sinks=(Buffer(), *sinks))
    tr.run_started(0.0, scheduler="GE", arrival_rate=150.0, seed=7)
    job = Job(jid=1, arrival=0.0, deadline=0.15, demand=192.0)
    tr.job_arrived(job, 0.0)
    tr.job_assigned(job, core=2, time=0.01)
    span = tr.exec_start(job, core=2, speed=1.75, volume=100.0, time=0.01)
    tr.exec_end(span, time=0.067, done=100.0)
    tr.scheduler_event("mode_switch", 0.05, **{"from": "aes", "to": "bq"})
    job.processed = 100.0
    job.settle(JobOutcome.CUT)
    tr.job_settled(job, 0.067)
    tr.metrics.counter("scheduler.rounds").inc(3)
    tr.metrics.histogram("scheduler.batch_size", bound=64).observe(5)
    # A hand-rolled sample avoids needing a machine here.
    from repro.obs.timeline import TimelineSample

    sample = TimelineSample(time=0.5, core=0, speed=1.75, power=15.3125,
                            energy=7.65625)
    for sink in tr.sinks:
        sink.on_sample_batch(0.5, [sample])
    tr.meta["end"] = 0.5
    tr.close()
    return tr


class TestJsonlRoundTrip:
    def test_round_trip_is_identical(self, tmp_path):
        tr = build_tracer()
        trace = tr.to_trace()
        path = tmp_path / "trace.jsonl"
        lines = write_jsonl(trace, path)
        assert lines == len(list(trace_records(trace)))
        restored = read_jsonl(path)
        assert restored == trace
        assert restored.spans == trace.spans
        assert restored.events == trace.events
        assert restored.samples == trace.samples
        assert restored.metrics == trace.metrics
        assert restored.meta == trace.meta

    def test_every_line_is_self_describing_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(build_tracer(), path)
        types = set()
        for line in path.read_text().splitlines():
            record = json.loads(line)
            types.add(record["type"])
        assert types == {"meta", "span", "event", "sample", "metric"}

    def test_spans_and_events_interleaved_by_seq(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(build_tracer(), path)
        seqs = [
            json.loads(line)["seq"]
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] in ("span", "event")
        ]
        assert seqs == sorted(seqs)

    def test_blank_lines_ignored(self, tmp_path):
        tr = build_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tr, path)
        path.write_text(path.read_text() + "\n\n")
        assert read_jsonl(path) == tr.to_trace()

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"mystery"}\n')
        try:
            read_jsonl(path)
        except ValueError as err:
            assert "mystery" in str(err)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_accepts_tracer_directly(self, tmp_path):
        tr = build_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tr, path)  # Tracer, not Trace
        assert read_jsonl(path) == tr.to_trace()


class TestCsvExport:
    def test_timeline_csv(self, tmp_path):
        path = tmp_path / "timeline.csv"
        sink = TimelineCsv(path)
        build_tracer(sink)
        lines = path.read_text().splitlines()
        assert lines == ["time,core,speed_ghz,power_w,energy_j",
                         "0.5,0,1.75,15.3125,7.65625"]
        assert sink.written == 1

    def test_spans_csv(self, tmp_path):
        path = tmp_path / "spans.csv"
        sink = SpansCsv(path)
        build_tracer(sink)
        lines = path.read_text().splitlines()
        assert lines[0] == "span_id,parent_id,name,start,end,attrs"
        assert sink.written == len(lines) - 1 == 2  # one job span, one exec span
        # Close order: the exec slice closes before its job.
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["1", "0", "exec"], ["0", "", "job"],
        ]
