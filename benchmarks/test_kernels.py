"""Microbenchmarks of the algorithmic kernels.

These measure the per-call cost of the pieces that run on every
scheduling round (LF cut, water-filling, Quality-OPT, YDS) and the raw
event-loop throughput — the quantities that bound how far the
simulation scales.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.cutting import lf_cut_waterline
from repro.core.energy_opt import yds_schedule
from repro.core.quality_opt import quality_opt
from repro.power.distribution import water_fill
from repro.quality.functions import ExponentialQuality
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_LOW

F = ExponentialQuality(c=0.003, x_max=1000.0)
RNG = np.random.default_rng(0)

DEMANDS_64 = RNG.uniform(130.0, 1000.0, 64)
DEADLINES_64 = np.sort(RNG.uniform(0.01, 0.15, 64))
POWER_DEMANDS_16 = RNG.uniform(0.0, 60.0, 16)

#: Per-call batch sizes for the size sweeps.  The perfbench workloads plan
#: 2.32 jobs per Quality-OPT call on average under overload (GE at 250/s)
#: and never more than 7, so the small sizes are the ones that occur.
SIZES = (1, 2, 3, 4, 8, 16, 32, 64)


def _batch(n):
    """Seeded EDF batch of ``n`` jobs as lists, the way the planner passes them."""
    rng = np.random.default_rng(n)
    volumes = rng.uniform(130.0, 1000.0, n).tolist()
    deadlines = np.sort(rng.uniform(0.01, 0.15, n)).tolist()
    offsets = rng.uniform(0.0, 300.0, n).tolist()
    return volumes, deadlines, offsets


def test_bench_lf_cut_64_jobs(benchmark):
    out = benchmark(lf_cut_waterline, F, DEMANDS_64, 0.9)
    assert out.shape == (64,)


def test_bench_water_fill_16_cores(benchmark):
    out = benchmark(water_fill, POWER_DEMANDS_16, 320.0)
    assert out.sum() <= 320.0 + 1e-6


def test_bench_quality_opt_32_jobs(benchmark):
    bounds = DEMANDS_64[:32]
    dls = DEADLINES_64[:32]
    out = benchmark(quality_opt, bounds, dls, 0.0, 2000.0)
    assert out.shape == (32,)


@pytest.mark.parametrize("n", SIZES)
def test_bench_quality_opt_sweep(benchmark, n):
    bounds, dls, offsets = _batch(n)
    # Half the work fits by the last deadline, so prefixes bind.
    capacity = 0.5 * sum(bounds) / dls[-1]
    out = benchmark(quality_opt, bounds, dls, 0.0, capacity, offsets)
    assert out.sum() < sum(bounds)


@pytest.mark.parametrize("n", SIZES)
def test_bench_yds_sweep(benchmark, n):
    vols, dls, _ = _batch(n)
    blocks = benchmark(yds_schedule, vols, dls, 0.0)
    assert sum(len(b.jobs) for b in blocks) == n


@pytest.mark.parametrize("n", SIZES)
def test_bench_lf_cut_sweep(benchmark, n):
    demands, _, _ = _batch(n)
    out = benchmark(lf_cut_waterline, F, demands, 0.9)
    assert out.shape == (n,)


def test_bench_yds_32_jobs(benchmark):
    vols = DEMANDS_64[:32]
    dls = np.sort(RNG.uniform(0.05, 2.0, 32))
    blocks = benchmark(yds_schedule, vols, dls, 0.0)
    assert sum(len(b.jobs) for b in blocks) == 32


def test_bench_event_loop_throughput(benchmark):
    """Events per second of the bare DES kernel (chained timers)."""

    def run_10k_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count

    assert benchmark(run_10k_events) == 10_000


#: Seeded event offsets for the churn case (s): deadlines and completions.
_CHURN_RNG = np.random.default_rng(3)
_DEADLINE_OFFSETS = _CHURN_RNG.uniform(0.05, 0.5, 4096).tolist()
_COMPLETION_OFFSETS = _CHURN_RNG.uniform(0.0005, 0.02, 4096).tolist()


def test_bench_event_heap_churn(benchmark):
    """Heap churn shaped like a GE run.

    About 2,000 deadline events stay pending (each one that fires queues
    the next).  Every round of 1 ms replans 16 cores: each core's pending
    completion is cancelled and pushed again, then the events due by the
    end of the round fire.  The heap holds about 2,100 entries, cancelled
    ones included, so every push and pop compares entries.
    """
    pending, cores, rounds = 2000, 16, 500

    def run_rounds():
        sim = Simulator()
        nth = itertools.count().__next__

        def deadline():
            sim.schedule(_DEADLINE_OFFSETS[nth() % 4096], deadline, priority=PRIORITY_LOW)

        for _ in range(pending):
            deadline()
        done = [sim.schedule(1.0, lambda: None, priority=PRIORITY_LOW) for _ in range(cores)]
        for r in range(1, rounds + 1):
            for c in range(cores):
                done[c].cancel()
                offset = _COMPLETION_OFFSETS[(r * cores + c) % 4096]
                done[c] = sim.schedule(offset, lambda: None, priority=PRIORITY_LOW)
            sim.run(until=r * 0.001)
        return sim

    sim = benchmark(run_rounds)
    assert pending <= sim.pending_events <= pending + cores
    assert sim.events_processed > pending


def test_bench_ge_simulated_second(benchmark):
    """Wall-clock cost of one simulated second of GE at λ=150."""
    from repro.config import SimulationConfig
    from repro.core.ge import make_ge
    from repro.server.harness import SimulationHarness

    def run_one_second():
        cfg = SimulationConfig(arrival_rate=150.0, horizon=1.0, seed=5)
        return SimulationHarness(cfg, make_ge()).run()

    result = benchmark.pedantic(run_one_second, rounds=3, iterations=1)
    assert result.jobs > 100
