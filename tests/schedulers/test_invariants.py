"""Property-based end-to-end invariants of the full system.

Hypothesis drives random small workloads through GE (and BE) and checks
the invariants that must hold for *any* input:

* every job settles exactly once, with a final outcome;
* processed volume never exceeds demand; no progress after settlement;
* total dynamic energy never exceeds budget × wall time;
* aggregate quality is in [0, 1] and matches recomputing Σf(c)/Σf(p)
  from the jobs directly.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.core.ge import GEScheduler, make_be, make_ge
from repro.server.harness import SimulationHarness
from repro.workload.generator import StaticWorkload
from repro.workload.job import Job


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    jobs = []
    for i in range(n):
        arrival = draw(st.floats(min_value=0.0, max_value=2.0))
        window = draw(st.floats(min_value=0.02, max_value=0.5))
        demand = draw(st.floats(min_value=1.0, max_value=1000.0))
        jobs.append(
            Job(jid=i, arrival=arrival, deadline=arrival + window, demand=demand)
        )
    return jobs


def check_invariants(jobs, result, config):
    assert result.jobs == len(jobs)
    assert sum(result.outcomes.values()) == len(jobs)
    for job in jobs:
        assert job.settled
        assert 0.0 <= job.processed <= job.demand + 1e-6
    assert 0.0 <= result.quality <= 1.0 + 1e-9
    # Energy can never exceed the budget over the measured window.
    assert result.energy <= config.budget * result.duration * (1 + 1e-6)
    # The reported quality equals direct recomputation from the jobs.
    f = config.quality_function()
    achieved = sum(float(f(j.processed)) for j in jobs)
    potential = sum(float(f(j.demand)) for j in jobs)
    expected = achieved / potential if potential else 1.0
    assert result.quality == pytest.approx(expected, abs=1e-9)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jobs=workloads())
def test_ge_invariants_on_random_workloads(jobs):
    config = SimulationConfig(arrival_rate=100.0, horizon=3.0, m=4, seed=1)
    fresh = [Job(jid=j.jid, arrival=j.arrival, deadline=j.deadline, demand=j.demand) for j in jobs]
    result = SimulationHarness(config, make_ge(), workload=StaticWorkload(fresh)).run()
    check_invariants(fresh, result, config)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jobs=workloads())
def test_be_invariants_on_random_workloads(jobs):
    config = SimulationConfig(arrival_rate=100.0, horizon=3.0, m=4, seed=1)
    fresh = [Job(jid=j.jid, arrival=j.arrival, deadline=j.deadline, demand=j.demand) for j in jobs]
    result = SimulationHarness(config, make_be(), workload=StaticWorkload(fresh)).run()
    check_invariants(fresh, result, config)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jobs=workloads(), seed=st.integers(min_value=0, max_value=2**16))
@example(jobs=[Job(jid=0, arrival=0.0, deadline=0.03125, demand=180.0)], seed=0)
def test_ge_quality_never_below_be_minus_margin(jobs, seed):
    """Under BE's own power split (WF), GE may trade quality for energy,
    but relative to BE on the same jobs it can only give up the cutting
    margin (1 − Q_GE) plus the second-cut loss when a job is
    power-infeasible even uncut — bounded here by an extra 0.15
    allowance on tiny adversarial batches.

    Hybrid GE is not compared: at light load it takes the ES split and
    caps a lone job's core at H/m, which BE's WF split does not (the
    §III-D trade, not a cut loss).  The pinned one-job example gives
    hybrid GE Q = 0.7495 against BE's 1.0.  Hybrid GE keeps its
    invariants in ``test_ge_invariants_on_random_workloads``."""
    config = SimulationConfig(arrival_rate=100.0, horizon=3.0, m=4, seed=1)

    def fresh():
        return [
            Job(jid=j.jid, arrival=j.arrival, deadline=j.deadline, demand=j.demand)
            for j in jobs
        ]

    ge_wf = GEScheduler(name="GE-WF", distribution="wf")
    ge = SimulationHarness(config, ge_wf, workload=StaticWorkload(fresh())).run()
    be = SimulationHarness(config, make_be(), workload=StaticWorkload(fresh())).run()
    assert ge.quality >= be.quality - (1.0 - config.q_ge) - 0.15
