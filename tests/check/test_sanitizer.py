"""The runtime invariant sanitizer: clean runs pass, corrupted runs trip."""

from __future__ import annotations

import pytest

from repro.check.sanitizer import SanitizerViolation, SanitizingTracer, audit_machine
from repro.config import SimulationConfig
from repro.core.ge import GEScheduler, make_ge
from repro.power.dvfs import DiscreteSpeedScale
from repro.power.models import PowerModel
from repro.server.core import Segment
from repro.server.harness import SimulationHarness
from repro.server.machine import MulticoreServer
from repro.server.scheduler import Scheduler
from repro.sim.engine import Simulator
from repro.workload.job import Job


def make_job(jid=1, arrival=0.0, deadline=10.0, demand=100.0) -> Job:
    return Job(jid=jid, arrival=arrival, deadline=deadline, demand=demand)


class TestForRun:
    def test_ge_arms_quality_floor(self):
        config = SimulationConfig(horizon=1.0)
        tracer = SanitizingTracer.for_run(config, make_ge())
        assert tracer.q_floor == config.q_ge

    def test_uncompensated_scheduler_disarms_floor(self):
        config = SimulationConfig(horizon=1.0)
        scheduler = GEScheduler(name="GE-NoComp", compensated=False)
        tracer = SanitizingTracer.for_run(config, scheduler)
        assert tracer.q_floor is None

    def test_non_cutting_scheduler_disarms_floor(self):
        config = SimulationConfig(horizon=1.0)
        tracer = SanitizingTracer.for_run(config, GEScheduler(cutting=False))
        assert tracer.q_floor is None


class TestCleanRun:
    def test_seeded_ten_second_scenario_passes(self):
        config = SimulationConfig(arrival_rate=150.0, horizon=10.0, seed=3)
        scheduler = make_ge()
        tracer = SanitizingTracer.for_run(config, scheduler)
        result = SimulationHarness(config, scheduler, tracer=tracer).run()
        assert result.jobs > 0
        assert tracer.checks_run > 1000

    def test_sanitized_result_matches_untraced(self):
        config = SimulationConfig(arrival_rate=120.0, horizon=5.0, seed=7)
        plain = SimulationHarness(config, make_ge()).run()
        scheduler = make_ge()
        tracer = SanitizingTracer.for_run(config, scheduler)
        sanitized = SimulationHarness(config, scheduler, tracer=tracer).run()
        assert sanitized == plain


class TestClockMonotonic:
    def test_backwards_event_trips(self):
        tr = SanitizingTracer()
        tr.begin_span("round", 1.0)
        with pytest.raises(SanitizerViolation) as err:
            tr.event("decision", 0.5)
        assert err.value.invariant == "clock_monotonic"
        assert err.value.context["time"] == 0.5

    def test_equal_times_are_fine(self):
        tr = SanitizingTracer()
        tr.begin_span("round", 1.0)
        tr.event("decision", 1.0)


class TestVolumeInvariants:
    def test_exec_slice_above_demand_trips(self):
        tr = SanitizingTracer()
        job = make_job(demand=50.0)
        tr.job_arrived(job, 0.0)
        span = tr.exec_start(job, core=0, speed=1.0, volume=200.0, time=0.0)
        with pytest.raises(SanitizerViolation) as err:
            tr.exec_end(span, 1.0, 200.0)
        assert err.value.invariant == "volume_bounded"
        assert err.value.context["jid"] == job.jid

    def test_negative_slice_trips(self):
        tr = SanitizingTracer()
        job = make_job()
        tr.job_arrived(job, 0.0)
        span = tr.exec_start(job, core=0, speed=1.0, volume=10.0, time=0.0)
        with pytest.raises(SanitizerViolation) as err:
            tr.exec_end(span, 1.0, -5.0)
        assert err.value.invariant == "volume_monotone"

    def test_cumulative_slices_cannot_exceed_demand(self):
        tr = SanitizingTracer()
        job = make_job(demand=100.0)
        tr.job_arrived(job, 0.0)
        for k in range(2):
            span = tr.exec_start(job, core=0, speed=1.0, volume=60.0, time=float(k))
            if k == 0:
                tr.exec_end(span, k + 0.5, 60.0)
            else:
                with pytest.raises(SanitizerViolation):
                    tr.exec_end(span, k + 0.5, 60.0)

    def test_within_demand_passes(self):
        tr = SanitizingTracer()
        job = make_job(demand=100.0)
        tr.job_arrived(job, 0.0)
        span = tr.exec_start(job, core=0, speed=1.0, volume=100.0, time=0.0)
        tr.exec_end(span, 1.0, 100.0)


class TestQualityInvariants:
    def test_quality_above_one_trips(self):
        tr = SanitizingTracer()
        with pytest.raises(SanitizerViolation) as err:
            tr.event("decision", 0.0, mode="bq", monitor_quality=1.5)
        assert err.value.invariant == "quality_bounds"

    def test_aes_below_floor_trips(self):
        tr = SanitizingTracer(q_floor=0.9)
        with pytest.raises(SanitizerViolation) as err:
            tr.event("decision", 0.0, mode="aes", monitor_quality=0.5)
        assert err.value.invariant == "quality_floor"
        assert err.value.context["q_floor"] == 0.9

    def test_bq_below_floor_is_legal(self):
        # BQ *is* the compensation response to a dip — never a violation.
        tr = SanitizingTracer(q_floor=0.9)
        tr.event("decision", 0.0, mode="bq", monitor_quality=0.5)

    def test_unarmed_floor_ignores_aes_dips(self):
        tr = SanitizingTracer(q_floor=None)
        tr.event("decision", 0.0, mode="aes", monitor_quality=0.5)


class _OverBudgetScheduler(Scheduler):
    """A corrupted policy: plans every core at top speed, ignoring H."""

    name = "BAD"
    quantum = 0.5

    def on_arrival(self, job: Job) -> None:
        harness = self.harness
        harness.take_from_queue(job)
        core = harness.machine.cores[job.jid % harness.machine.m]
        job.assign(core.index)
        # 4 GHz under the default 5·s² model is 80 W/core — way past an
        # equal share of any sane budget.
        core.enqueue(Segment(job=job, volume=job.demand, speed=4.0))

    def on_core_idle(self, core_index: int) -> None:
        pass


class TestEndToEndTrip:
    @pytest.mark.parametrize("quantum", [0.5, None])
    def test_over_budget_plan_trips_power_check(self, quantum):
        # Each busy core draws 80 W against H = 40 W.  The breach is
        # named at the instant it starts, with or without a quantum.
        config = SimulationConfig(
            arrival_rate=80.0, horizon=4.0, seed=5, m=2, budget=40.0
        )
        scheduler = _OverBudgetScheduler()
        scheduler.quantum = quantum
        tracer = SanitizingTracer.for_run(config, scheduler)
        with pytest.raises(SanitizerViolation) as err:
            SimulationHarness(config, scheduler, tracer=tracer).run()
        assert err.value.invariant == "power_budget"
        assert err.value.context["total_power"] > 40.0
        assert err.value.context["budget"] == 40.0
        assert err.value.context["time"] == pytest.approx(0.012527, abs=1e-6)

    def test_same_plan_passes_with_roomy_budget(self):
        config = SimulationConfig(
            arrival_rate=80.0, horizon=4.0, seed=5, m=2, budget=400.0
        )
        scheduler = _OverBudgetScheduler()
        tracer = SanitizingTracer.for_run(config, scheduler)
        SimulationHarness(config, scheduler, tracer=tracer).run()


class TestEnergyCrossCheck:
    def test_corrupted_cumulative_energy_trips(self):
        config = SimulationConfig(arrival_rate=100.0, horizon=2.0, seed=2)
        scheduler = make_ge()
        tracer = SanitizingTracer.for_run(config, scheduler)
        harness = SimulationHarness(config, scheduler, tracer=tracer)
        original = tracer._sampler.sample

        def corrupting(machine, time):
            samples = original(machine, time)
            if time > 1.0:
                samples[0].energy += 100.0  # inject drift
            return samples

        tracer._sampler.sample = corrupting
        with pytest.raises(SanitizerViolation) as err:
            harness.run()
        assert err.value.invariant == "energy_conservation"


class _DriftingCapScheduler(Scheduler):
    """Plans every core exactly at its water-filling cap times a drift
    factor — a stand-in for the pre-renormalization bug where float
    rounding let Σ caps creep past H across rounds."""

    name = "DRIFT"
    quantum = 0.5

    def __init__(self, drift: float) -> None:
        super().__init__()
        self.drift = drift

    def on_arrival(self, job: Job) -> None:
        import numpy as np

        from repro.power.distribution import water_fill

        harness = self.harness
        harness.take_from_queue(job)
        m = harness.machine.m
        core = harness.machine.cores[job.jid % m]
        job.assign(core.index)
        # Every core demands 3/4 of the budget -> scarce branch: the
        # water level splits the budget exactly evenly.
        budget = harness.config.budget
        caps = water_fill(np.full(m, 0.75 * budget), budget)
        target_power = float(caps[core.index]) * self.drift
        speed = (target_power / 5.0) ** 0.5  # invert P(s) = 5 s^2
        core.enqueue(Segment(job=job, volume=job.demand, speed=speed))

    def on_core_idle(self, core_index: int) -> None:
        pass


class TestCapDriftTrip:
    """S2 regression: caps amplified by more than the sanitizer's 1e-6
    relative slack trip the power_budget invariant, while exact
    water-filling caps saturate the budget and pass.  Before water_fill
    renormalized its closed-form level, cumulative rounding produced
    exactly this kind of over-budget plan."""

    def _config(self):
        return SimulationConfig(
            arrival_rate=80.0, horizon=4.0, seed=5, m=2, budget=40.0
        )

    def test_drifted_caps_trip_power_check(self):
        scheduler = _DriftingCapScheduler(drift=1.0 + 5e-6)
        tracer = SanitizingTracer.for_run(self._config(), scheduler)
        with pytest.raises(SanitizerViolation) as err:
            SimulationHarness(self._config(), scheduler, tracer=tracer).run()
        assert err.value.invariant == "power_budget"
        assert err.value.context["total_power"] > 40.0

    def test_exact_caps_saturate_budget_and_pass(self):
        scheduler = _DriftingCapScheduler(drift=1.0)
        tracer = SanitizingTracer.for_run(self._config(), scheduler)
        SimulationHarness(self._config(), scheduler, tracer=tracer).run()
        assert tracer.checks_run > 0


class TestAuditMachine:
    def test_failed_core_drawing_power_is_flagged(self):
        server = MulticoreServer(Simulator(), m=2, budget=40.0)
        server.cores[0].speed_timeline.set_value(0.0, 1.0)
        server.cores[0].failed_timeline.set_value(0.5, 1.0)
        (violation,) = audit_machine(server, 0.0, 1.0).violations
        assert violation.invariant == "failed_core_idle"
        assert (violation.context["time"], violation.context["core"]) == (0.5, 0)
        # Windows are right-open: the breach belongs to the next one.
        assert audit_machine(server, 0.0, 0.5).violations == []

    def test_speed_off_the_ladder_is_flagged(self):
        ladder = DiscreteSpeedScale(PowerModel(), levels=[1.0, 2.0])
        server = MulticoreServer(Simulator(), m=2, budget=40.0, scale=ladder)
        server.cores[0].speed_timeline.set_value(0.0, 1.0)
        server.cores[1].speed_timeline.set_value(0.25, 1.5)
        audit = audit_machine(server, 0.0, 1.0)
        (violation,) = audit.violations
        assert violation.invariant == "speed_allowed"
        assert (violation.context["time"], violation.context["core"]) == (0.25, 1)
        assert audit.peak_power == pytest.approx(5.0 + 5.0 * 1.5**2)
        assert audit.segments == 3
