"""Run-level metric collection.

:class:`MetricsCollector` receives every job settlement during a run
and, at the end, is combined with machine- and scheduler-level signals
into a :class:`RunResult` — the unit of data every figure in the paper
is built from (service quality, energy, AES-mode share, speed mean and
variance, outcome counts).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

from repro.units import Gigahertz, Joules, PerSecond, QualityFrac, Seconds, Volume
from repro.workload.job import Job, JobOutcome

__all__ = ["MetricsCollector", "RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Summary of one simulation run.

    Attributes
    ----------
    scheduler:
        Name of the policy that produced the run.
    arrival_rate:
        Workload λ in requests/second.
    quality:
        Final aggregate service quality ``Q`` in [0, 1].
    energy:
        Total dynamic energy in joules over the run.
    jobs:
        Number of jobs settled.
    outcomes:
        Count per :class:`JobOutcome` value name.
    aes_fraction:
        Fraction of time spent in AES mode (GE-family only, else None).
    mean_speed:
        Time-average per-core speed in GHz.
    speed_variance:
        Time-averaged across-core speed variance (Fig. 6b statistic).
    utilization:
        Fraction of core-time spent executing.
    completed_volume:
        Total processing units executed.
    duration:
        Measured horizon in seconds (energy integration window).
    """

    scheduler: str
    arrival_rate: PerSecond
    quality: QualityFrac
    energy: Joules
    jobs: int
    outcomes: Dict[str, int]
    aes_fraction: Optional[float]
    mean_speed: Gigahertz
    speed_variance: float
    utilization: float
    completed_volume: Volume
    duration: Seconds
    #: Static energy in joules (0 unless the config enables static power;
    #: the paper's accounting is dynamic-only, see §IV-B).
    static_energy: Joules = 0.0

    @property
    def total_energy(self) -> Joules:
        """Dynamic + static energy in joules."""
        return self.energy + self.static_energy

    @property
    def energy_per_job(self) -> Joules:
        """Average joules per settled job."""
        return self.energy / self.jobs if self.jobs else 0.0

    @property
    def completion_ratio(self) -> float:
        """Fraction of jobs that ran to full completion."""
        done = self.outcomes.get(JobOutcome.COMPLETED.value, 0)
        return done / self.jobs if self.jobs else 0.0

    def row(self) -> str:
        """One formatted report line (used by the CLI and benches)."""
        aes = f"{self.aes_fraction:6.3f}" if self.aes_fraction is not None else "   n/a"
        return (
            f"{self.scheduler:<8} λ={self.arrival_rate:7.1f}  Q={self.quality:6.4f}  "
            f"E={self.energy:12.1f} J  aes={aes}  s̄={self.mean_speed:5.3f} GHz  "
            f"var={self.speed_variance:6.4f}  jobs={self.jobs}"
        )


class MetricsCollector:
    """Accumulates job settlements during a simulation run."""

    def __init__(self) -> None:
        self._outcomes: Counter = Counter()
        self._jobs = 0

    # ------------------------------------------------------------------
    def record_settle(self, job: Job) -> None:
        """Record one settled job (called by the harness)."""
        if not job.settled:
            raise ValueError(f"job {job.jid} recorded before settlement")
        self._outcomes[job.outcome.value] += 1
        self._jobs += 1

    @property
    def jobs(self) -> int:
        """Number of settlements recorded so far."""
        return self._jobs

    @property
    def outcomes(self) -> Dict[str, int]:
        """Outcome-name → count mapping (copy)."""
        return dict(self._outcomes)
