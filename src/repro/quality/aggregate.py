"""Aggregate quality of a set of jobs (paper §II-A).

The average quality achieved by executing a job set is

    Q(J) = Σ_j f(c_j) / Σ_j f(p_j)

where ``c_j`` is the processed volume and ``p_j`` the full demand of
job ``J_j``.  The denominator is the quality that *would* have been
achieved by full processing, so ``Q ∈ [0, 1]``.
"""

from __future__ import annotations

import numpy as np

from repro.quality.functions import QualityFunction
from repro.units import Dimensionless, QualityFrac, VolumeArray, VolumeSeq

__all__ = ["aggregate_quality", "quality_ratio"]


def quality_ratio(achieved: Dimensionless, potential: Dimensionless) -> QualityFrac:
    """Safe ratio ``achieved / potential`` treating an empty set as perfect.

    With no jobs (``potential == 0``) there is no quality to lose, so
    the ratio is defined as 1.0 — this matches the monitor's start-up
    behaviour (GE begins in AES mode).
    """
    if potential <= 0.0:
        return 1.0
    return achieved / potential


def aggregate_quality(
    f: QualityFunction,
    processed: VolumeSeq | VolumeArray,
    demands: VolumeSeq | VolumeArray,
) -> QualityFrac:
    """Compute ``Q = Σ f(c_j) / Σ f(p_j)`` for paired volumes/demands."""
    processed_arr = np.asarray(processed, dtype=float)
    demands_arr = np.asarray(demands, dtype=float)
    if processed_arr.shape != demands_arr.shape:
        raise ValueError(
            f"processed {processed_arr.shape} and demands {demands_arr.shape} differ"
        )
    if processed_arr.size == 0:
        return 1.0
    if np.any(processed_arr - demands_arr > 1e-9):
        raise ValueError("processed volume exceeds demand for some job")
    achieved = float(np.sum(f(processed_arr)))
    potential = float(np.sum(f(demands_arr)))
    return quality_ratio(achieved, potential)

