"""Batch job-to-core assignment (paper §III-E).

When a trigger fires, the jobs waiting in the queue are assigned to
cores in a batch.  The paper uses **Cumulative Round-Robin (C-RR)**: a
plain round-robin whose pointer persists across batches, "assigning
jobs to the core where the last job distribution cycle stops" for a
more balanced long-run distribution.  Plain :class:`RoundRobin`
(pointer reset each batch) is provided for comparison, as is a
least-loaded heuristic used by ablation benchmarks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.units import VolumeSeq
from repro.workload.job import Job

__all__ = ["AssignmentPolicy", "CumulativeRoundRobin", "RoundRobin", "LeastLoaded"]


class AssignmentPolicy(ABC):
    """Maps a batch of queued jobs onto core indices."""

    def __init__(self, m: int) -> None:
        if m <= 0:
            raise ConfigurationError(f"core count must be positive, got {m!r}")
        self.m = int(m)

    @abstractmethod
    def assign(self, jobs: Sequence[Job], loads: VolumeSeq) -> List[Tuple[Job, int]]:
        """Return ``(job, core_index)`` pairs for the whole batch.

        ``loads`` is the current per-core remaining volume, provided
        for load-aware policies; round-robin variants ignore it.
        """


class RoundRobin(AssignmentPolicy):
    """RR: each batch starts again from core 0."""

    def assign(self, jobs: Sequence[Job], loads: VolumeSeq) -> List[Tuple[Job, int]]:
        return [(job, i % self.m) for i, job in enumerate(jobs)]


class CumulativeRoundRobin(AssignmentPolicy):
    """C-RR: the round-robin pointer survives across batches."""

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self._next = 0

    @property
    def pointer(self) -> int:
        """Core index the next job will land on."""
        return self._next

    def assign(self, jobs: Sequence[Job], loads: VolumeSeq) -> List[Tuple[Job, int]]:
        out: List[Tuple[Job, int]] = []
        for job in jobs:
            out.append((job, self._next))
            self._next = (self._next + 1) % self.m
        return out


class LeastLoaded(AssignmentPolicy):
    """Greedy: each job goes to the core with the least remaining volume.

    Not part of the paper's design; used by the assignment ablation
    benchmark to quantify what C-RR's simplicity costs.
    """

    def assign(self, jobs: Sequence[Job], loads: VolumeSeq) -> List[Tuple[Job, int]]:
        if len(loads) != self.m:
            raise ConfigurationError(f"expected {self.m} load entries, got {len(loads)}")
        current = list(loads)
        out: List[Tuple[Job, int]] = []
        for job in jobs:
            idx = min(range(self.m), key=lambda i: (current[i], i))
            out.append((job, idx))
            current[idx] += job.remaining
        return out
