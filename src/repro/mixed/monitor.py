"""A quality monitor for mixed application classes.

Each job's contribution to the cumulative sums uses *its class's*
quality function, so the compensation policy defends the true mixed
aggregate ``Σ f_{k(j)}(c_j) / Σ f_{k(j)}(p_j)``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.quality.functions import QualityFunction
from repro.quality.monitor import QualityMonitor
from repro.units import Dimensionless, QualityFrac, Seconds
from repro.workload.job import Job

__all__ = ["ClassAwareMonitor"]


class ClassAwareMonitor(QualityMonitor):
    """Cumulative monitor applying each job's own quality function.

    Parameters
    ----------
    functions:
        Quality function per class index; ``job.klass`` selects one.
        Class 0's function doubles as the fallback ``f`` for the base
        class's volume-based API (used only by code unaware of classes).
    """

    def __init__(self, functions: Sequence[QualityFunction]) -> None:
        if not functions:
            raise ValueError("need at least one class quality function")
        super().__init__(functions[0])
        self.functions = list(functions)

    def function_for(self, job: Job) -> QualityFunction:
        """The quality function of ``job``'s class."""
        try:
            return self.functions[job.klass]
        except IndexError:
            raise ValueError(
                f"job {job.jid} has class {job.klass} but only "
                f"{len(self.functions)} classes are configured"
            ) from None

    def record_job(self, job: Job, time: Optional[Seconds] = None) -> QualityFrac:
        """Settle one job using its class's quality function."""
        f = self.function_for(job)
        processed = min(job.processed, job.demand)
        self._achieved += float(f(processed))
        self._potential += float(f(job.demand))
        self._settled_jobs += 1
        q = self.quality
        if time is not None:
            self._trace.append((float(time), q))
        return q

    def expected_quality(self, jobs: Iterable[Job]) -> QualityFrac:
        """True mixed aggregate recomputed from the job records."""
        achieved: Dimensionless = 0.0
        potential: Dimensionless = 0.0
        for job in jobs:
            f = self.function_for(job)
            achieved += float(f(job.processed))
            potential += float(f(job.demand))
        return achieved / potential if potential > 0 else 1.0
