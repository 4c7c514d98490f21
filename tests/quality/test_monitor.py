"""Tests for the online quality monitor."""

from __future__ import annotations

import pytest

from repro.quality.functions import ExponentialQuality
from repro.quality.monitor import QualityMonitor

F = ExponentialQuality(c=0.003, x_max=1000.0)


def make_monitor() -> QualityMonitor:
    return QualityMonitor(F)


def test_starts_at_perfect_quality():
    m = make_monitor()
    assert m.quality == 1.0
    assert m.settled_jobs == 0


def test_record_full_job_keeps_quality_one():
    m = make_monitor()
    assert m.record(500.0, 500.0) == pytest.approx(1.0)


def test_record_partial_job_lowers_quality():
    m = make_monitor()
    q = m.record(100.0, 800.0)
    assert q == pytest.approx(float(F(100.0)) / float(F(800.0)))


def test_cumulative_accounting():
    m = make_monitor()
    m.record(500.0, 500.0)
    m.record(0.0, 500.0)
    expected = float(F(500.0)) / (2 * float(F(500.0)))
    assert m.quality == pytest.approx(expected)
    assert m.settled_jobs == 2


def test_processed_clamped_to_demand():
    m = make_monitor()
    m.record(1000.0, 500.0)  # overshoot is clamped
    assert m.quality == pytest.approx(1.0)


def test_trace_records_time_quality_pairs():
    m = make_monitor()
    m.record(500.0, 500.0, time=1.0)
    m.record(0.0, 500.0, time=2.0)
    trace = m.trace
    assert len(trace) == 2
    assert trace[0] == (1.0, pytest.approx(1.0))
    assert trace[1][0] == 2.0


def test_negative_volumes_rejected():
    m = make_monitor()
    with pytest.raises(ValueError):
        m.record(-1.0, 100.0)
    with pytest.raises(ValueError):
        m.record(1.0, -100.0)
