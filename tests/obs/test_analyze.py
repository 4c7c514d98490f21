"""Tests for the run digest of a buffered trace: the stream fold's mode
intervals, utilization and job stats, and the digest text."""

from __future__ import annotations

import pytest

from repro.obs import fold_records, summarize
from repro.obs.spans import EventRecord, SpanRecord
from repro.obs.timeline import TimelineSample
from repro.obs.tracer import Trace


def decision(time, mode, seq):
    return EventRecord(
        time=time, kind="decision", seq=seq,
        attrs={"mode": mode, "policy": "ES", "batch_size": 1,
               "active_jobs": 1, "monitor_quality": 0.9, "caps": [20.0]},
    )


def build_trace() -> Trace:
    job = SpanRecord(span_id=0, name="job", start=0.0, seq=0,
                     attrs={"jid": 1, "demand": 100.0})
    job.close(0.4, outcome="cut", processed=80.0)
    ex0 = SpanRecord(span_id=1, name="exec", start=0.0, seq=1, parent_id=0,
                     attrs={"jid": 1, "core": 0, "speed": 2.0, "volume": 50.0})
    ex0.close(0.2, done=50.0)
    ex1 = SpanRecord(span_id=2, name="exec", start=0.2, seq=2, parent_id=0,
                     attrs={"jid": 1, "core": 1, "speed": 1.0, "volume": 30.0})
    ex1.close(0.5, done=30.0)
    events = [
        decision(0.0, "aes", 3),
        decision(0.25, "aes", 4),
        decision(0.5, "bq", 5),
        decision(0.75, "aes", 6),
    ]
    samples = [
        TimelineSample(time=0.5, core=0, speed=2.0, power=20.0, energy=4.0),
        TimelineSample(time=1.0, core=0, speed=0.0, power=0.0, energy=4.0),
        TimelineSample(time=1.0, core=1, speed=0.0, power=0.0, energy=1.5),
    ]
    return Trace(
        meta={"scheduler": "GE", "start": 0.0, "end": 1.0, "arrival_rate": 150.0,
              "seed": 1},
        spans=[job, ex0, ex1],
        events=events,
        samples=samples,
        metrics={"scheduler.rounds": {"kind": "counter", "value": 4.0}},
    )


class TestModeIntervals:
    def test_intervals_merge_consecutive_modes(self):
        intervals = fold_records(build_trace()).mode_intervals
        assert [(i["start"], i["end"], i["mode"]) for i in intervals] == [
            (0.0, 0.5, "aes"),
            (0.5, 0.75, "bq"),
            (0.75, 1.0, "aes"),  # extends to meta["end"]
        ]

    def test_durations(self):
        intervals = fold_records(build_trace()).mode_intervals
        assert sum(i["end"] - i["start"] for i in intervals) == pytest.approx(1.0)

    def test_empty_trace(self):
        assert fold_records(Trace()).mode_intervals == []


class TestCoreUtilization:
    def test_per_core_breakdown(self):
        cores = fold_records(build_trace()).core_utilization()
        assert set(cores) == {0, 1}
        assert cores[0]["busy"] == pytest.approx(0.2)
        assert cores[0]["utilization"] == pytest.approx(0.2)
        assert cores[0]["volume"] == pytest.approx(50.0)
        assert cores[0]["energy"] == pytest.approx(4.0)  # last sample wins
        assert cores[1]["busy"] == pytest.approx(0.3)
        assert cores[1]["slices"] == 1


class TestJobStats:
    def test_grouped_by_outcome(self):
        stats = fold_records(build_trace()).snapshot()["jobs"]
        assert set(stats) == {"cut"}
        assert stats["cut"]["count"] == 1
        assert stats["cut"]["mean_sojourn_s"] == pytest.approx(0.4)
        assert stats["cut"]["mean_processed_fraction"] == pytest.approx(0.8)


class TestSummarize:
    def test_mentions_every_section(self):
        text = summarize(build_trace())
        assert "scheduler=GE" in text
        assert "jobs (1 settled)" in text
        assert "modes:" in text
        assert "cores:" in text
        assert "scheduler.rounds" in text

    def test_empty_trace_does_not_crash(self):
        assert "records: 0 spans" in summarize(Trace())

    def test_skips_unknown_metric_kinds(self):
        # Older traces carry wall-time ``kind: "phase"`` timers; their
        # other metrics still summarise.
        trace = Trace(metrics={
            "prof.sim.run": {"kind": "phase", "count": 1, "total_s": 0.25,
                             "max_s": 0.25, "mean_s": 0.25},
            "scheduler.rounds": {"kind": "counter", "value": 4.0},
        })
        text = summarize(trace)
        assert "scheduler.rounds" in text
        assert "prof.sim.run" not in text
