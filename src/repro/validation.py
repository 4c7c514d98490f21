"""Post-hoc validation of a finished simulation run.

:func:`validate_run` re-derives the physical invariants of a completed
:class:`repro.server.harness.SimulationHarness` from raw artefacts (the
per-core speed timelines and the job records), independently of the
bookkeeping the run itself maintained:

1. **Power budget** — at *every instant*, Σ_i P_i(s_i(t)) ≤ H(t), the
   budget in force at that instant (chaos dips change H mid-run).
2. **Speed legality** — every executed speed is allowed by the core's
   speed scale (on the DVFS ladder when discrete).
3. **Volume conservation** — Σ processed volumes equals the volume the
   cores executed (within float tolerance).
4. **Settlement** — every job settled exactly once with a final
   outcome; processed ≤ demand.
5. **Quality accounting** — the monitor's aggregate equals direct
   recomputation from the jobs.

Integration tests run every scheduler through this; it is also public
API so downstream policy authors can check their own schedulers
(see ``examples/custom_policy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.power.dvfs import DiscreteSpeedScale
from repro.server.harness import SimulationHarness
from repro.sim.timeline import StepTimeline
from repro.workload.job import Job

__all__ = ["ValidationReport", "validate_run"]

#: Relative tolerance on power-budget excursions (float noise).
_POWER_TOL = 1e-6
#: Absolute tolerance on volume conservation, per job.
_VOLUME_TOL = 1e-5


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_run`."""

    violations: List[str] = field(default_factory=list)
    peak_power: float = 0.0
    checked_jobs: int = 0
    checked_segments: int = 0

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def raise_if_failed(self) -> None:
        """Raise ``AssertionError`` listing all violations."""
        if self.violations:
            raise AssertionError(
                "run validation failed:\n  " + "\n  ".join(self.violations)
            )


def validate_run(
    harness: SimulationHarness, jobs: Optional[Sequence[Job]] = None
) -> ValidationReport:
    """Check all physical invariants of a finished harness.

    Parameters
    ----------
    harness:
        A harness whose :meth:`run` has completed.
    jobs:
        The job list to audit; defaults to the harness workload's
        materialized jobs.
    """
    report = ValidationReport()
    machine = harness.machine
    end = harness.sim.now

    # 1-2. Power budget at every instant + speed legality -----------------
    # Vectorized over the merged breakpoints of the speed and budget
    # timelines (paper-scale runs have millions; one searchsorted per
    # timeline instead of a Python loop).
    budget = machine.budget_timeline
    merged = np.unique(
        np.concatenate(
            [np.asarray(core.speed_timeline._times) for core in machine.cores]
            + [np.asarray(budget._times), np.array([0.0])]
        )
    )
    merged = merged[merged < end]

    def value_at(timeline: StepTimeline) -> np.ndarray:
        times = np.asarray(timeline._times)
        values = np.asarray(timeline._values)
        idx = np.clip(np.searchsorted(times, merged, side="right") - 1, 0, values.size - 1)
        return values[idx]

    power_at = np.zeros(merged.size)
    for core, model in zip(machine.cores, machine.models):
        power_at += np.asarray(model.power(value_at(core.speed_timeline)), dtype=float)
    budget_at = value_at(budget)
    if power_at.size:
        report.peak_power = float(np.max(power_at))
        over = np.nonzero(power_at > budget_at * (1.0 + _POWER_TOL))[0]
        for i in over[:20]:  # cap the report length
            report.violations.append(
                f"power {power_at[i]:.3f} W exceeds budget {budget_at[i]} W "
                f"at t={merged[i]:.6f}"
            )
    for core, scale in zip(machine.cores, machine.scales):
        _, values = core.speed_timeline.as_arrays(end)
        report.checked_segments += len(values)
        for v in values:
            if v == 0.0:
                continue
            if isinstance(scale, DiscreteSpeedScale):
                on_ladder = any(abs(v - level) < 1e-9 for level in scale.levels)
                if not on_ladder:
                    report.violations.append(
                        f"core {core.index} ran at {v:.6f} GHz, not on the DVFS ladder"
                    )
            elif v > scale.top_speed * (1.0 + 1e-9):
                report.violations.append(
                    f"core {core.index} ran at {v:.6f} GHz above the top speed"
                )

    # 3. Volume conservation -------------------------------------------------
    jobs = jobs if jobs is not None else harness._workload.materialize()
    processed_total = sum(j.processed for j in jobs)
    executed_total = machine.total_completed_volume()
    if abs(processed_total - executed_total) > _VOLUME_TOL * max(1.0, len(jobs)):
        report.violations.append(
            f"volume mismatch: jobs record {processed_total:.4f} units, "
            f"cores executed {executed_total:.4f}"
        )

    # 4. Settlement -----------------------------------------------------------
    for job in jobs:
        report.checked_jobs += 1
        if not job.settled:
            report.violations.append(f"job {job.jid} never settled")
        if job.processed > job.demand * (1.0 + 1e-9) + 1e-9:
            report.violations.append(
                f"job {job.jid} processed {job.processed} > demand {job.demand}"
            )

    # 5. Quality accounting ----------------------------------------------------
    # The monitor recomputes from first principles (class-aware monitors
    # apply each job's own quality function).
    expected = harness.monitor.expected_quality(jobs)
    if abs(harness.monitor.quality - expected) > 1e-9:
        report.violations.append(
            f"monitor quality {harness.monitor.quality:.9f} differs from "
            f"recomputed {expected:.9f}"
        )
    return report
