"""Online quality monitor (paper §III-A / §III-C).

GE "monitors the overall quality continuously upon each scheduled job"
and compares it against the user-specified level to decide between AES
and BQ modes.  :class:`QualityMonitor` maintains the cumulative sums
``Σ f(c_j)`` and ``Σ f(p_j)`` over *settled* jobs — jobs whose outcome
is final because they completed, were cut short deliberately, or
expired at their deadline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from repro.quality.aggregate import quality_ratio
from repro.quality.functions import QualityFunction
from repro.units import Dimensionless, QualityFrac, Seconds, Volume

if TYPE_CHECKING:  # type-only: repro.quality stays a leaf layer at runtime
    from repro.workload.job import Job

__all__ = ["QualityMonitor"]


class QualityMonitor:
    """Tracks cumulative achieved/potential quality of settled jobs.

    Parameters
    ----------
    f:
        The quality function shared by all jobs.
    """

    def __init__(self, f: QualityFunction) -> None:
        self.f = f
        self._achieved: Dimensionless = 0.0
        self._potential: Dimensionless = 0.0
        self._settled_jobs = 0
        self._trace: list[Tuple[Seconds, QualityFrac]] = []

    # ------------------------------------------------------------------
    @property
    def achieved(self) -> Dimensionless:
        """Cumulative Σ f(c_j) over settled jobs."""
        return self._achieved

    @property
    def potential(self) -> Dimensionless:
        """Cumulative Σ f(p_j) over settled jobs."""
        return self._potential

    @property
    def settled_jobs(self) -> int:
        """Number of jobs whose outcome has been recorded."""
        return self._settled_jobs

    @property
    def quality(self) -> QualityFrac:
        """Current cumulative quality ``Q`` (1.0 before any job settles)."""
        return quality_ratio(self._achieved, self._potential)

    # ------------------------------------------------------------------
    def record(self, processed: Volume, demand: Volume, time: Optional[Seconds] = None) -> QualityFrac:
        """Settle one job; returns the updated cumulative quality.

        Parameters
        ----------
        processed:
            Final processed volume ``c_j`` (clamped to ``demand``).
        demand:
            Full processing demand ``p_j``.
        time:
            Simulated time, recorded in the quality trace if given.
        """
        if demand < 0 or processed < 0:
            raise ValueError("volumes must be non-negative")
        processed = min(processed, demand)
        self._achieved += float(self.f(processed))
        self._potential += float(self.f(demand))
        self._settled_jobs += 1
        q = self.quality
        if time is not None:
            self._trace.append((float(time), q))
        return q

    def record_job(self, job: Job, time: Optional[Seconds] = None) -> QualityFrac:
        """Settle one job object (hook point for class-aware monitors).

        The base implementation delegates to :meth:`record` with the
        job's volumes; subclasses that map jobs to different quality
        functions override this (see :mod:`repro.mixed`).
        """
        return self.record(job.processed, job.demand, time=time)

    def expected_quality(self, jobs: Iterable[Job]) -> QualityFrac:
        """Aggregate quality recomputed directly from job records.

        Used by :func:`repro.validation.validate_run` to audit the
        monitor's bookkeeping against first principles.
        """
        achieved = sum(float(self.f(j.processed)) for j in jobs)
        potential = sum(float(self.f(j.demand)) for j in jobs)
        return quality_ratio(achieved, potential)

    @property
    def trace(self) -> list[Tuple[Seconds, QualityFrac]]:
        """Chronological ``(time, quality)`` samples (when times given)."""
        return list(self._trace)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QualityMonitor(q={self.quality:.4f}, settled={self._settled_jobs}, "
            f"achieved={self._achieved:.3f}, potential={self._potential:.3f})"
        )
