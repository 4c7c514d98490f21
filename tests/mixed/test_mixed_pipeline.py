"""End-to-end tests of the mixed-class scheduler pipeline."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.ge import make_ge
from repro.errors import ConfigurationError
from repro.mixed import ClassAwareMonitor, MixedClassWorkload, make_mixed_ge
from repro.mixed.scheduler import MixedGEScheduler
from repro.quality.functions import ExponentialQuality, LinearQuality
from repro.server.harness import SimulationHarness
from repro.sim.rng import RandomStreams
from repro.validation import validate_run

F_SEARCH = ExponentialQuality(c=0.009, x_max=1000.0)
F_LINEAR = LinearQuality(x_max=1000.0)
FUNCTIONS = [F_SEARCH, F_LINEAR]

CFG = SimulationConfig(arrival_rate=120.0, horizon=5.0, seed=5)


def mixed_workload(fractions=(0.5, 0.5)):
    return MixedClassWorkload(
        CFG.workload(), list(fractions), streams=RandomStreams(seed=99)
    )


def run_mixed(**kwargs):
    scheduler, monitor = make_mixed_ge(FUNCTIONS, **kwargs)
    harness = SimulationHarness(CFG, scheduler, workload=mixed_workload(), monitor=monitor)
    return harness, harness.run()


@pytest.fixture(scope="module")
def mixed_run():
    """One mixed-class GE run shared by the pipeline tests below."""
    return run_mixed()


class TestWorkloadStamping:
    def test_fractions_respected(self):
        wl = mixed_workload((0.25, 0.75))
        counts = wl.class_counts()
        total = sum(counts)
        assert counts[1] / total == pytest.approx(0.75, abs=0.1)

    def test_stamping_is_deterministic(self):
        a = [j.klass for j in mixed_workload().materialize()]
        b = [j.klass for j in mixed_workload().materialize()]
        assert a == b

    def test_invalid_fractions(self):
        with pytest.raises(ConfigurationError):
            MixedClassWorkload(CFG.workload(), [0.5, 0.6])


class TestMonitor:
    def test_uses_class_function(self):
        from repro.workload.job import Job, JobOutcome

        monitor = ClassAwareMonitor(FUNCTIONS)
        job = Job(jid=1, arrival=0.0, deadline=1.0, demand=500.0, klass=1)
        job.add_progress(250.0)
        job.settle(JobOutcome.CUT)
        monitor.record_job(job)
        # Linear class: 250/500 of f(500)=0.5 potential -> quality 0.5.
        assert monitor.quality == pytest.approx(0.5)

    def test_unknown_class_rejected(self):
        from repro.workload.job import Job

        monitor = ClassAwareMonitor(FUNCTIONS)
        job = Job(jid=1, arrival=0.0, deadline=1.0, demand=100.0, klass=7)
        with pytest.raises(ValueError):
            monitor.record_job(job)

    def test_needs_at_least_one_function(self):
        with pytest.raises(ValueError):
            ClassAwareMonitor([])


class TestScheduler:
    def test_meets_mixed_target(self, mixed_run):
        _, result = mixed_run
        assert result.quality == pytest.approx(0.9, abs=0.02)
        assert sum(result.outcomes.values()) == result.jobs

    def test_passes_physical_audit(self, mixed_run):
        harness, _ = mixed_run
        validate_run(harness).raise_if_failed()

    def test_beats_class_blind_ge(self, mixed_run):
        """Class-blind GE cannot target the true mixed aggregate: it
        either over-delivers (wasting energy) or undershoots.  The
        class-aware scheduler lands on target with no more energy."""
        _, aware = mixed_run
        blind_harness = SimulationHarness(
            CFG, make_ge(), workload=mixed_workload(),
            monitor=ClassAwareMonitor(FUNCTIONS),
        )
        blind = blind_harness.run()
        assert abs(aware.quality - 0.9) <= abs(blind.quality - 0.9) + 5e-3
        assert aware.energy <= blind.energy * 1.05

    def test_requires_class_aware_monitor(self):
        scheduler = MixedGEScheduler(FUNCTIONS)
        with pytest.raises(ConfigurationError):
            SimulationHarness(CFG, scheduler, workload=mixed_workload())

    def test_needs_functions(self):
        with pytest.raises(ConfigurationError):
            MixedGEScheduler([])

    def test_deterministic(self, mixed_run):
        _, a = mixed_run
        _, b = run_mixed()
        assert (a.quality, a.energy) == (b.quality, b.energy)
