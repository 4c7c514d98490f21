"""Tests for the post-hoc run validator — and, through it, a sweeping
physical audit of every scheduler in the library."""

from __future__ import annotations

import pytest

from repro.baselines.queue_order import FCFS, FDFS, LJF, SJF
from repro.chaos import DisturbanceSchedule, budget_dip
from repro.check.sanitizer import SanitizerViolation, SanitizingTracer
from repro.config import SimulationConfig
from repro.core.ge import GEScheduler, make_be, make_ge, make_oq
from repro.experiments.runner import scaled_config
from repro.server.harness import SimulationHarness
from repro.validation import validate_run

ALL_POLICIES = {
    "GE": make_ge,
    "BE": make_be,
    "OQ": make_oq,
    "GE-ES": lambda: GEScheduler(name="GE-ES", distribution="es"),
    "GE-WF": lambda: GEScheduler(name="GE-WF", distribution="wf"),
    "FCFS": FCFS,
    "FDFS": FDFS,
    "LJF": LJF,
    "SJF": SJF,
}


@pytest.mark.parametrize("name", sorted(ALL_POLICIES))
def test_every_policy_passes_physical_audit(name):
    cfg = SimulationConfig(arrival_rate=140.0, horizon=4.0, seed=5)
    scheduler = ALL_POLICIES[name]()
    tracer = SanitizingTracer.for_run(cfg, scheduler)
    harness = SimulationHarness(cfg, scheduler, tracer=tracer)
    harness.run()
    report = validate_run(harness)
    report.raise_if_failed()
    assert report.checked_jobs > 300
    assert report.checked_segments > 0
    assert report.peak_power <= cfg.budget * (1 + 1e-6)


def test_audit_under_overload():
    cfg = SimulationConfig(arrival_rate=240.0, horizon=3.0, seed=5)
    harness = SimulationHarness(cfg, make_ge())
    harness.run()
    report = validate_run(harness)
    report.raise_if_failed()
    # Overloaded: the budget should actually be reached at some instant.
    assert report.peak_power > 0.9 * cfg.budget


def test_audit_discrete_ladder():
    cfg = SimulationConfig(
        arrival_rate=140.0, horizon=3.0, seed=5,
        discrete_levels=tuple(0.25 * k for k in range(1, 13)),
    )
    harness = SimulationHarness(cfg, make_ge())
    harness.run()
    validate_run(harness).raise_if_failed()


def test_audit_heterogeneous_machine():
    cfg = SimulationConfig(
        arrival_rate=120.0, horizon=3.0, seed=5,
        core_power_scales=tuple([0.6] * 8 + [1.0] * 8),
    )
    harness = SimulationHarness(cfg, make_ge())
    harness.run()
    validate_run(harness).raise_if_failed()


def test_report_detects_tampering():
    """Sanity: the validator is not a rubber stamp."""
    cfg = SimulationConfig(arrival_rate=120.0, horizon=2.0, seed=5)
    harness = SimulationHarness(cfg, make_ge())
    harness.run()
    job = harness._workload.materialize()[0]
    job.processed = job.demand * 2  # corrupt a record
    report = validate_run(harness)
    assert not report.ok
    assert any("processed" in v for v in report.violations)
    with pytest.raises(AssertionError):
        report.raise_if_failed()


def _dipped(dip):
    cfg = scaled_config(0.01, 1, arrival_rate=150.0)
    return cfg.with_overrides(disturbances=DisturbanceSchedule.of(dip))


def test_budget_checked_against_h_before_a_dip():
    """Power before a dip is judged against the H then in force, not the
    dipped H still in force when the run ends."""
    cfg = _dipped(budget_dip(3.0, 0.5, 1e6))
    scheduler = make_ge()
    harness = SimulationHarness(
        cfg, scheduler, tracer=SanitizingTracer.for_run(cfg, scheduler)
    )
    harness.run()
    assert harness.machine.budget == 0.5 * cfg.budget
    report = validate_run(harness)
    report.raise_if_failed()
    assert report.peak_power > 0.5 * cfg.budget


class _IgnoresBudget(GEScheduler):
    def on_budget_change(self, budget):
        pass


def test_overdraw_during_a_dip_is_caught():
    """A scheduler that ignores a dip overdraws the dipped H, even though
    H is restored before the run ends."""
    cfg = _dipped(budget_dip(2.05, 0.5, 1.0))
    harness = SimulationHarness(cfg, _IgnoresBudget())
    harness.run()
    assert harness.machine.budget == cfg.budget
    report = validate_run(harness)
    assert not report.ok
    assert "exceeds budget 160.0 W at t=2.05" in report.violations[0]
    # The sanitizer names the same instant while the run is going, before
    # the next quantum sample and against the live H.
    scheduler = _IgnoresBudget()
    tracer = SanitizingTracer.for_run(cfg, scheduler)
    with pytest.raises(SanitizerViolation) as err:
        SimulationHarness(cfg, scheduler, tracer=tracer).run()
    assert err.value.invariant == "power_budget"
    assert err.value.context["time"] == pytest.approx(2.05)
    assert err.value.context["budget"] == 160.0
