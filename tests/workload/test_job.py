"""Tests for the job lifecycle."""

from __future__ import annotations

import pytest

from repro.workload.job import Job, JobOutcome


def make_job(**kw) -> Job:
    defaults = dict(jid=1, arrival=0.0, deadline=0.15, demand=200.0)
    defaults.update(kw)
    return Job(**defaults)


def test_basic_properties():
    job = make_job()
    assert job.remaining == 200.0
    assert job.window == pytest.approx(0.15)
    assert job.laxity(0.05) == pytest.approx(0.10)
    assert not job.settled


def test_invalid_construction():
    with pytest.raises(ValueError):
        make_job(demand=0.0)
    with pytest.raises(ValueError):
        make_job(deadline=-1.0)
    with pytest.raises(ValueError):
        make_job(processed=-1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        {"demand": nan},
        {"demand": inf},
        {"deadline": nan},
        {"deadline": inf},
        {"arrival": nan},
        {"arrival": -inf},
        {"arrival": nan, "deadline": nan},
    ):
        with pytest.raises(ValueError, match="finite"):
            make_job(**bad)


def test_progress_accumulates_and_clamps():
    job = make_job()
    job.add_progress(120.0)
    assert job.processed == 120.0
    assert job.remaining == 80.0
    job.add_progress(200.0)  # overshoot clamps at demand
    assert job.processed == 200.0
    assert job.remaining == 0.0


def test_negative_progress_rejected():
    job = make_job()
    with pytest.raises(ValueError):
        job.add_progress(-5.0)


def test_assign_pins_core():
    job = make_job()
    job.assign(3)
    assert job.core == 3
    job.assign(3)  # idempotent
    with pytest.raises(ValueError):
        job.assign(4)  # no migration (§II-B)


def test_settle_auto_completed():
    job = make_job()
    job.add_progress(200.0)
    assert job.settle_auto() is JobOutcome.COMPLETED


def test_settle_auto_completed_with_float_noise():
    job = make_job()
    job.add_progress(200.0 - 1e-9)
    assert job.settle_auto() is JobOutcome.COMPLETED
    assert job.processed == job.demand


def test_settle_auto_expired():
    job = make_job()
    job.add_progress(50.0)
    assert job.settle_auto() is JobOutcome.EXPIRED


def test_settle_auto_dropped():
    job = make_job()
    assert job.settle_auto() is JobOutcome.DROPPED


def test_double_settle_rejected():
    job = make_job()
    job.settle(JobOutcome.CUT)
    with pytest.raises(ValueError):
        job.settle(JobOutcome.COMPLETED)
    with pytest.raises(ValueError):
        job.add_progress(1.0)


def test_settle_to_pending_rejected():
    job = make_job()
    with pytest.raises(ValueError):
        job.settle(JobOutcome.PENDING)


def test_outcome_finality_flags():
    assert not JobOutcome.PENDING.is_final
    for outcome in (JobOutcome.COMPLETED, JobOutcome.CUT, JobOutcome.EXPIRED, JobOutcome.DROPPED):
        assert outcome.is_final
