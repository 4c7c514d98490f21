"""Tests for trace persistence."""

from __future__ import annotations

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.generator import PoissonWorkloadGenerator
from repro.workload.traces import load_trace, loads_trace, save_trace


def test_round_trip_exact(tmp_path):
    gen = PoissonWorkloadGenerator(50.0, horizon=5.0, streams=RandomStreams(seed=2))
    jobs = gen.materialize()
    path = tmp_path / "trace.csv"
    assert save_trace(jobs, path) == len(jobs)
    loaded = load_trace(path)
    assert len(loaded) == len(jobs)
    for a, b in zip(jobs, loaded):
        assert (a.jid, a.arrival, a.deadline, a.demand) == (
            b.jid,
            b.arrival,
            b.deadline,
            b.demand,
        )


def test_loaded_jobs_are_fresh(tmp_path):
    gen = PoissonWorkloadGenerator(50.0, horizon=2.0, streams=RandomStreams(seed=2))
    jobs = gen.materialize()
    jobs[0].add_progress(10.0)
    path = tmp_path / "trace.csv"
    save_trace(jobs, path)
    loaded = load_trace(path)
    assert loaded[0].processed == 0.0


def test_bad_header_rejected():
    with pytest.raises(ValueError, match="bad header"):
        loads_trace("a,b,c,d\n1,0.0,1.0,100.0\n")


def test_empty_file_rejected():
    with pytest.raises(ValueError, match="empty"):
        loads_trace("")


def test_wrong_field_count_rejected():
    with pytest.raises(ValueError, match="expected 4 fields"):
        loads_trace("jid,arrival,deadline,demand\n1,0.0,1.0\n")


def test_invalid_job_values_rejected_with_line():
    with pytest.raises(ValueError, match=":2:"):
        loads_trace("jid,arrival,deadline,demand\n1,0.0,1.0,-5.0\n")
    for row in ("2,0.0,0.15,nan", "2,0.0,0.15,inf", "2,0.0,nan,100.0", "2,nan,0.15,100.0"):
        with pytest.raises(ValueError, match=":3: job 2: .*finite"):
            loads_trace(f"jid,arrival,deadline,demand\n1,0.0,1.0,5.0\n{row}\n")


def test_blank_lines_skipped():
    jobs = loads_trace("jid,arrival,deadline,demand\n\n1,0.0,1.0,100.0\n\n")
    assert len(jobs) == 1
