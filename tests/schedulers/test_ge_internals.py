"""White-box tests of GE's trigger handling and bookkeeping."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.ge import GEScheduler, make_ge
from repro.core.modes import ExecutionMode
from repro.server.harness import SimulationHarness
from repro.workload.generator import StaticWorkload
from repro.workload.job import Job


def harness_with(jobs, scheduler=None, **overrides):
    cfg = SimulationConfig(arrival_rate=100.0, horizon=2.0, m=2, seed=1).with_overrides(
        **overrides
    )
    sched = scheduler or make_ge()
    return SimulationHarness(cfg, sched, workload=StaticWorkload(jobs)), sched


def burst(n, at=0.0, demand=150.0, window=0.15, start_jid=0):
    return [
        Job(jid=start_jid + i, arrival=at + i * 1e-4, deadline=at + i * 1e-4 + window, demand=demand)
        for i in range(n)
    ]


class TestTriggers:
    def test_counter_trigger_fires_at_threshold(self):
        """With all cores busy, the queue must reach the counter
        threshold before a batch reschedule happens."""
        jobs = burst(12, window=0.5)
        h, sched = harness_with(jobs, counter_threshold=8)
        reschedules = []
        original = sched.reschedule

        def spy():
            reschedules.append((h.sim.now, len(h.queue)))
            original()

        sched.reschedule = spy
        h.run()
        assert reschedules, "no reschedule happened"
        # The first trigger is the idle-arrival one (cores start idle).
        assert reschedules[0][1] >= 1

    def test_idle_arrival_trigger(self):
        """A single job arriving to an all-idle machine is scheduled
        immediately, not after the quantum."""
        job = Job(jid=0, arrival=0.3, deadline=0.45, demand=150.0)
        h, sched = harness_with([job])
        h.run()
        # Scheduled at arrival: completed or cut well before deadline.
        assert job.settled
        assert job.processed > 0

    def test_quantum_trigger_reschedules_periodically(self):
        jobs = burst(4, window=1.8)
        h, sched = harness_with(jobs, quantum=0.25)
        h.run()
        # At least horizon/quantum quantum ticks plus arrival triggers.
        assert sched.reschedules >= 6

    def test_jobs_never_migrate(self):
        jobs = burst(20, window=0.4)
        h, _ = harness_with(jobs)
        h.run()
        # Job.assign raises on migration, so reaching the end settled
        # with a core set proves single-core execution.
        for job in jobs:
            assert job.settled
            if job.processed > 0:
                assert job.core is not None

    def test_crr_spreads_batch_across_cores(self):
        jobs = burst(8, window=0.5)
        h, _ = harness_with(jobs, m=4)
        h.run()
        used_cores = {j.core for j in jobs if j.core is not None}
        assert len(used_cores) == 4


class TestCompensation:
    def test_mode_switches_after_quality_crash(self):
        """A burst too large to serve forces expirations; the next
        trigger must switch to BQ."""
        # 30 big jobs into 2 cores with 150 ms deadlines: hopeless.
        jobs = burst(30, demand=900.0, window=0.15)
        # Follow-up trickle the scheduler can complete in BQ mode.
        jobs += burst(10, at=1.0, demand=150.0, window=0.4, start_jid=100)
        ge = make_ge()
        h, sched = harness_with(jobs, scheduler=ge)
        h.run()
        assert sched.controller.switches >= 1
        # After the crash the monitor is below target, so the last jobs
        # ran in BQ mode: the trickle must be fully completed.
        late = [j for j in jobs if j.arrival >= 1.0]
        assert all(j.outcome.value == "completed" for j in late)

    def test_no_compensation_stays_aes_after_crash(self):
        jobs = burst(30, demand=900.0, window=0.15)
        sched = GEScheduler(name="NC", compensated=False)
        h, _ = harness_with(jobs, scheduler=sched)
        h.run()
        assert sched.controller.mode is ExecutionMode.AES
        assert sched.controller.switches == 0


class TestDiscreteGE:
    def test_ge_with_ladder_serves_jobs(self):
        jobs = burst(10, window=0.4)
        h, _ = harness_with(jobs, discrete_levels=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
        result = h.run()
        assert result.quality > 0.8
        # Every executed speed sits on the ladder.
        for core in h.machine.cores:
            for v in core.speed_timeline._values:
                assert v == 0.0 or v in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


class TestReporting:
    def test_describe_mentions_knobs(self):
        sched = GEScheduler(name="X", compensated=False, distribution="wf")
        h, _ = harness_with(burst(1), scheduler=sched)
        text = sched.describe()
        assert "no-comp" in text and "wf" in text

    def test_aes_fraction_none_before_bind(self):
        assert GEScheduler().aes_fraction() is None

    def test_core_loads_tracks_active_jobs(self):
        jobs = burst(6, window=1.0)
        sched = make_ge()
        h, _ = harness_with(jobs, scheduler=sched, m=2)
        h.run()
        # After the run everything settled: loads are zero.
        assert sched._core_loads() == [0.0, 0.0]

    def test_only_a_load_aware_policy_gets_the_loads(self, monkeypatch):
        """C-RR ignores ``loads``, so GE never sums them for it; a policy
        that reads them (``needs_loads``) gets every core's remaining
        volume, as before."""
        from repro.core.assignment import LeastLoaded

        seen = []

        class Spy(LeastLoaded):
            def assign(self, jobs, loads):
                seen.append(list(loads))
                return super().assign(jobs, loads)

        sched = GEScheduler(assignment=Spy(2))
        h, _ = harness_with(burst(6, window=1.0), scheduler=sched)
        h.run()
        assert seen and all(len(loads) == 2 for loads in seen)
        assert any(sum(loads) > 0.0 for loads in seen)

        def unwanted(self):
            raise AssertionError("C-RR does not read the core loads")

        monkeypatch.setattr(GEScheduler, "_core_loads", unwanted)
        h, sched = harness_with(burst(6, window=1.0))
        assert h.run().jobs == 6


class _CacheClearingGE(GEScheduler):
    """GE with every cross-round cache wiped at the top of each round:
    the control experiment proving the caches are pure memoization."""

    def reschedule(self):
        from repro.core.cutting import WaterlineMemo

        self._cap_memo = [None] * len(self._cap_memo)
        self._waterline_memo = WaterlineMemo()
        self._es._cache = None
        super().reschedule()


class TestPlanCacheSoundness:
    """The cap memo, waterline memo and ES decision cache must never
    change a simulated result: a GE whose caches are cleared every round
    produces the identical outcome."""

    def _run(self, scheduler, **overrides):
        from repro.config import SimulationConfig

        cfg = SimulationConfig(arrival_rate=150.0, horizon=5.0, seed=3).with_overrides(
            **overrides
        )
        return SimulationHarness(cfg, scheduler).run()

    @pytest.mark.parametrize("overrides", [
        {},                              # paper defaults (hybrid ES/WF)
        {"arrival_rate": 400.0},         # heavy load -> WF branch
        {"m": 4, "budget": 80.0},        # small machine, tight budget
    ], ids=["nominal", "heavy", "tight"])
    def test_cached_run_matches_cache_free_run(self, overrides):
        cached = self._run(GEScheduler(name="GE"), **overrides)
        cleared = self._run(_CacheClearingGE(name="GE"), **overrides)
        assert cached == cleared

    def test_waterline_memo_engages_under_load(self):
        from repro.config import SimulationConfig

        cfg = SimulationConfig(arrival_rate=150.0, horizon=5.0, seed=3)
        sched = GEScheduler(name="GE")
        SimulationHarness(cfg, sched).run()
        assert sched._waterline_memo.hits > 0
        assert sched._waterline_memo.misses > 0
