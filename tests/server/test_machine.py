"""Tests for the multicore server measurements."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.server.core import Segment
from repro.server.machine import MulticoreServer
from repro.sim.engine import Simulator
from repro.workload.job import Job


def job(jid=1, deadline=10.0, demand=4000.0):
    return Job(jid=jid, arrival=0.0, deadline=deadline, demand=demand)


def test_paper_capacity_figures():
    sim = Simulator()
    server = MulticoreServer(sim, m=16, budget=320.0)
    assert server.equal_share_speed == pytest.approx(2.0)
    assert server.equal_share_capacity == pytest.approx(32000.0)


def test_energy_is_sum_of_core_integrals():
    sim = Simulator()
    server = MulticoreServer(sim, m=2, budget=40.0)
    j1, j2 = job(1), job(2)
    # Core 0: 2 GHz for 2 s (20 W) = 40 J; core 1: 1 GHz for 1 s (5 W) = 5 J.
    server.cores[0].set_plan([Segment(job=j1, volume=4000.0, speed=2.0)])
    server.cores[1].set_plan([Segment(job=j2, volume=1000.0, speed=1.0, final=False)])
    sim.run(until=4.0)
    assert server.energy(4.0) == pytest.approx(45.0)


def test_mean_speed_and_variance():
    sim = Simulator()
    server = MulticoreServer(sim, m=2, budget=40.0)
    j1, j2 = job(1), job(2)
    # Both cores busy on [0,1]: speeds (2, 1) -> var 0.25.
    server.cores[0].set_plan([Segment(job=j1, volume=2000.0, speed=2.0, final=False)])
    server.cores[1].set_plan([Segment(job=j2, volume=1000.0, speed=1.0, final=False)])
    sim.run(until=1.0)
    assert server.mean_speed(1.0) == pytest.approx(1.5)
    assert server.speed_variance(1.0) == pytest.approx(0.25)


def test_speed_variance_time_weighted():
    sim = Simulator()
    server = MulticoreServer(sim, m=2, budget=40.0)
    j = job()
    # Core 0 at 2 GHz on [0,1], both idle on [1,2]:
    # var = 1 on [0,1], 0 on [1,2] -> average 0.5.
    server.cores[0].set_plan([Segment(job=j, volume=2000.0, speed=2.0, final=False)])
    sim.run(until=2.0)
    assert server.speed_variance(2.0) == pytest.approx(0.5)


def test_utilization():
    sim = Simulator()
    server = MulticoreServer(sim, m=2, budget=40.0)
    j = job()
    server.cores[0].set_plan([Segment(job=j, volume=2000.0, speed=2.0, final=False)])
    sim.run(until=2.0)
    # One of two cores busy for half the window: 0.25.
    assert server.utilization(2.0) == pytest.approx(0.25)


def test_total_completed_volume():
    sim = Simulator()
    server = MulticoreServer(sim, m=2, budget=40.0)
    j1, j2 = job(1), job(2)
    server.cores[0].set_plan([Segment(job=j1, volume=500.0, speed=1.0)])
    server.cores[1].set_plan([Segment(job=j2, volume=300.0, speed=1.0)])
    sim.run()
    assert server.total_completed_volume() == pytest.approx(800.0)


def test_invalid_configuration():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        MulticoreServer(sim, m=0)
    with pytest.raises(ConfigurationError):
        MulticoreServer(sim, budget=0.0)


def test_zero_span_measurements():
    sim = Simulator()
    server = MulticoreServer(sim, m=2)
    assert server.speed_variance(0.0) == 0.0
    assert server.utilization(0.0) == 0.0
