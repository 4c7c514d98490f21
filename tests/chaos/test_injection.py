"""Injection mechanics: determinism, null-injector invariance, physics."""

from __future__ import annotations

import pytest

from repro.chaos import DisturbanceSchedule, arrival_burst, budget_dip, core_fail, misestimate
from repro.check.sanitizer import SanitizingTracer
from repro.config import SimulationConfig
from repro.core.ge import make_ge
from repro.experiments.registry import CHAOS_SCENARIOS, chaos_config, get_chaos_scenario
from repro.obs import Tracer
from repro.server.harness import SimulationHarness
from repro.validation import validate_run


def _cfg(**overrides):
    defaults = dict(arrival_rate=120.0, horizon=6.0, seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _run(config, tracer=None):
    return SimulationHarness(config, make_ge(), tracer=tracer).run()


DIP = DisturbanceSchedule.of(budget_dip(2.0, 0.5, 2.0))
FAIL = DisturbanceSchedule.of(core_fail(2.0, 0, duration=2.0))


class TestDeterminism:
    def test_disturbed_run_bit_reproducible(self):
        sched = DisturbanceSchedule.of(
            core_fail(1.5, 0, duration=2.0),
            budget_dip(2.0, 0.6, 1.5),
            arrival_burst(2.5, 2.0, 1.0),
        )
        a = _run(_cfg(disturbances=sched))
        b = _run(_cfg(disturbances=sched))
        assert a == b

    def test_armed_empty_schedule_matches_plain_run(self):
        # The NULL-injector invariant: arming chaos without scheduling
        # any disturbance must not perturb a single event.
        plain = _run(_cfg())
        armed = _run(_cfg(disturbances=DisturbanceSchedule.of()))
        assert plain == armed

    def test_traced_disturbed_run_bit_identical_to_untraced(self):
        cfg = _cfg(disturbances=FAIL)
        untraced = _run(cfg)
        traced = _run(cfg, tracer=Tracer())
        assert untraced == traced

    def test_events_processed_identical_traced_vs_untraced(self):
        # Window markers for burst/misestimate are trace-only emissions
        # riding unconditionally-scheduled events, so the event count
        # cannot depend on whether a tracer is attached.
        sched = DisturbanceSchedule.of(
            arrival_burst(2.0, 2.0, 1.0), misestimate(3.0, 1.5, 1.0)
        )
        h1 = SimulationHarness(_cfg(disturbances=sched), make_ge())
        h1.run()
        h2 = SimulationHarness(_cfg(disturbances=sched), make_ge(), tracer=Tracer())
        h2.run()
        assert h1.sim.events_processed == h2.sim.events_processed


class TestCoreFailure:
    def test_core_fail_shrinks_then_recovers(self):
        cfg = _cfg(disturbances=FAIL)
        harness = SimulationHarness(cfg, make_ge())
        result = harness.run()
        # All jobs settle even though a core died mid-run.
        assert result.jobs > 0
        assert not harness.machine.cores[0].failed
        assert harness.machine.alive_count == cfg.m

    def test_permanent_fail_stays_dead(self):
        cfg = _cfg(disturbances=DisturbanceSchedule.of(core_fail(2.0, 1)))
        harness = SimulationHarness(cfg, make_ge())
        harness.run()
        assert harness.machine.cores[1].failed
        assert harness.machine.alive_count == cfg.m - 1

    def test_kill_policy_differs_from_requeue(self):
        kill = DisturbanceSchedule.of(core_fail(2.0, 0, duration=2.0, policy="kill"))
        requeue = DisturbanceSchedule.of(
            core_fail(2.0, 0, duration=2.0, policy="requeue")
        )
        r_kill = _run(_cfg(disturbances=kill))
        r_requeue = _run(_cfg(disturbances=requeue))
        # Same jobs settle either way; the dispositions differ.
        assert r_kill.jobs == r_requeue.jobs
        assert r_kill != r_requeue

    def test_all_cores_failing_parks_queue(self):
        # Every core dead: arrivals park in the queue until recovery,
        # and the run still settles every job (deadline expiries).
        cfg = SimulationConfig(
            arrival_rate=60.0, horizon=4.0, seed=3, m=2,
            disturbances=DisturbanceSchedule.of(
                core_fail(1.0, 0, duration=1.5), core_fail(1.0, 1, duration=1.5)
            ),
        )
        result = _run(cfg)
        assert result.jobs > 0


class TestBudgetDip:
    def test_budget_restored_after_dip(self):
        cfg = _cfg(disturbances=DIP)
        harness = SimulationHarness(cfg, make_ge())
        harness.run()
        assert harness.machine.budget == pytest.approx(cfg.budget)

    def test_dip_costs_quality_or_energy(self):
        disturbed = _run(_cfg(disturbances=DIP))
        twin = _run(_cfg())
        # Halving H for a third of the run must show up somewhere.
        assert disturbed != twin
        assert disturbed.energy < twin.energy or disturbed.quality < twin.quality

    def test_sanitizer_clean_across_dip(self):
        # The sanitizer reads H from the machine's budget timeline, and
        # the GE redistribution keeps every instant of the dip inside
        # 0.5·H.
        cfg = _cfg(disturbances=DIP)
        scheduler = make_ge()
        tracer = SanitizingTracer.for_run(cfg, scheduler)
        result = SimulationHarness(cfg, scheduler, tracer=tracer).run()
        assert result == _run(cfg)
        assert tracer.checks_run > 0

    def test_overlapping_dips_compose(self):
        sched = DisturbanceSchedule.of(
            budget_dip(1.0, 0.8, 3.0), budget_dip(2.0, 0.5, 1.0)
        )
        cfg = _cfg(disturbances=sched)
        scheduler = make_ge()
        tracer = SanitizingTracer.for_run(cfg, scheduler)
        harness = SimulationHarness(cfg, scheduler, tracer=tracer)
        harness.run()
        assert harness.machine.budget == pytest.approx(cfg.budget)


class TestWorkloadDisturbances:
    def test_burst_adds_jobs(self):
        burst = _run(
            _cfg(disturbances=DisturbanceSchedule.of(arrival_burst(2.0, 3.0, 2.0)))
        )
        twin = _run(_cfg())
        assert burst.jobs > twin.jobs

    def test_burst_preserves_base_draws(self):
        # Superposition: the base arrivals are untouched, only extra
        # jobs appear inside the window.
        base = _cfg().workload().materialize()
        sched = DisturbanceSchedule.of(arrival_burst(2.0, 3.0, 2.0))
        merged = _cfg(disturbances=sched).workload().materialize()
        base_times = {j.arrival for j in base}
        merged_times = {j.arrival for j in merged}
        assert base_times <= merged_times
        extras = sorted(merged_times - base_times)
        assert extras
        assert all(2.0 <= t < 4.0 for t in extras)

    def test_misestimate_inflates_demands_in_window(self):
        sched = DisturbanceSchedule.of(misestimate(2.0, 1.5, 2.0))
        base = _cfg().workload().materialize()
        inflated = _cfg(disturbances=sched).workload().materialize()
        assert len(base) == len(inflated)
        for b, i in zip(base, inflated):
            assert b.arrival == i.arrival
            if 2.0 <= b.arrival < 4.0:
                assert i.demand >= b.demand
            else:
                assert i.demand == b.demand

    def test_misestimate_caps_at_support_max(self):
        cfg = _cfg(disturbances=DisturbanceSchedule.of(misestimate(1.0, 10.0, 4.0)))
        x_max = cfg.demand_distribution().x_max
        for job in cfg.workload().materialize():
            assert job.demand <= x_max + 1e-9


@pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
def test_catalog_scenario_passes_both_checkers(name):
    """Power within the live H, failed cores idle, speeds allowed, volume
    and settlement exact: online (sanitizer) and post hoc (validate_run)."""
    cfg = chaos_config(get_chaos_scenario(name), scale=0.02, seed=1)
    scheduler = make_ge()
    tracer = SanitizingTracer.for_run(cfg, scheduler)
    harness = SimulationHarness(cfg, scheduler, tracer=tracer)
    harness.run()
    validate_run(harness).raise_if_failed()
