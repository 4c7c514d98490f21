"""Post-hoc validation of a finished simulation run.

:func:`validate_run` re-derives the physical invariants of a completed
:class:`repro.server.harness.SimulationHarness` from raw artefacts (the
per-core speed and failed-state timelines, the machine's budget
timeline and the job records), independently of the bookkeeping the
run itself maintained:

1. **Power, speeds, failed cores** — at *every instant*, Σ_i P_i(s_i(t))
   ≤ H(t), the budget in force then (chaos dips change H mid-run);
   every executed speed is allowed by the core's speed scale; failed
   cores run at speed 0.  This is :func:`repro.check.sanitizer.audit_machine`,
   which the runtime sanitizer runs window by window during the run.
2. **Volume conservation** — Σ processed volumes equals the volume the
   cores executed (within float tolerance).
3. **Settlement** — every job settled exactly once with a final
   outcome; 0 ≤ processed ≤ demand.
4. **Quality accounting** — the monitor's aggregate equals direct
   recomputation from the jobs.

Integration tests run every scheduler through this; it is also public
API so downstream policy authors can check their own schedulers
(see ``examples/custom_policy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.check.sanitizer import audit_machine, volume_within_demand
from repro.server.harness import SimulationHarness

__all__ = ["ValidationReport", "validate_run"]

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


def validate_run(harness: SimulationHarness) -> ValidationReport:
    """Check all physical invariants of a finished harness.

    Parameters
    ----------
    harness:
        A harness whose :meth:`run` has completed; its workload's
        materialized jobs are the records audited.
    """
    report = ValidationReport()
    machine = harness.machine

    # 1. Power budget, speed legality, failed cores at every instant ------
    audit = audit_machine(machine, 0.0, harness.sim.now)
    report.peak_power = audit.peak_power
    report.checked_segments = audit.segments
    report.violations.extend(v.message for v in audit.violations[:20])  # cap the report length

    # 2. Volume conservation -------------------------------------------------
    jobs = harness._workload.materialize()
    processed_total = sum(j.processed for j in jobs)
    executed_total = machine.total_completed_volume()
    if abs(processed_total - executed_total) > _VOLUME_TOL * max(1.0, len(jobs)):
        report.violations.append(
            f"volume mismatch: jobs record {processed_total:.4f} units, "
            f"cores executed {executed_total:.4f}"
        )

    # 3. Settlement -----------------------------------------------------------
    for job in jobs:
        report.checked_jobs += 1
        if not job.settled:
            report.violations.append(f"job {job.jid} never settled")
        if not volume_within_demand(job.processed, job.demand):
            report.violations.append(
                f"job {job.jid} processed {job.processed} outside [0, demand {job.demand}]"
            )

    # 4. Quality accounting ----------------------------------------------------
    # The monitor recomputes from first principles (class-aware monitors
    # apply each job's own quality function).
    expected = harness.monitor.expected_quality(jobs)
    if abs(harness.monitor.quality - expected) > 1e-9:
        report.violations.append(
            f"monitor quality {harness.monitor.quality:.9f} differs from "
            f"recomputed {expected:.9f}"
        )
    return report
