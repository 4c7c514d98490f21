"""Tests for metric collection and run results."""

from __future__ import annotations

import pytest

from repro.metrics.collector import MetricsCollector, RunResult
from repro.workload.job import Job, JobOutcome


def settled_job(jid, processed, demand, outcome):
    j = Job(jid=jid, arrival=0.0, deadline=1.0, demand=demand)
    if processed:
        j.add_progress(processed)
    j.settle(outcome)
    return j


def test_collector_counts_outcomes():
    c = MetricsCollector()
    c.record_settle(settled_job(1, 100.0, 100.0, JobOutcome.COMPLETED))
    c.record_settle(settled_job(2, 50.0, 100.0, JobOutcome.CUT))
    c.record_settle(settled_job(3, 0.0, 100.0, JobOutcome.DROPPED))
    assert c.jobs == 3
    assert c.outcomes == {"completed": 1, "cut": 1, "dropped": 1}


def test_collector_rejects_unsettled():
    c = MetricsCollector()
    with pytest.raises(ValueError):
        c.record_settle(Job(jid=1, arrival=0.0, deadline=1.0, demand=10.0))


def make_result(**overrides):
    base = dict(
        scheduler="GE",
        arrival_rate=150.0,
        quality=0.9,
        energy=1000.0,
        jobs=100,
        outcomes={"completed": 60, "cut": 30, "expired": 10},
        aes_fraction=0.7,
        mean_speed=1.5,
        speed_variance=0.1,
        utilization=0.8,
        completed_volume=20000.0,
        duration=10.0,
    )
    base.update(overrides)
    return RunResult(**base)


def test_run_result_derived_metrics():
    r = make_result()
    assert r.energy_per_job == pytest.approx(10.0)
    assert r.completion_ratio == pytest.approx(0.6)


def test_run_result_zero_jobs():
    r = make_result(jobs=0, outcomes={})
    assert r.energy_per_job == 0.0
    assert r.completion_ratio == 0.0


def test_run_result_row_formats():
    row = make_result().row()
    assert "GE" in row
    assert "0.9" in row
    assert "150" in row


def test_run_result_row_without_aes():
    row = make_result(aes_fraction=None).row()
    assert "n/a" in row
