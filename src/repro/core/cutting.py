"""Longest-First (LF) job cutting (paper §III-B).

In AES mode, GE discards the tail of the longest jobs first: by the law
of diminishing returns (concave quality), a job's head contributes more
quality per unit of work than its tail, and the *longest* job has the
cheapest tail.  The procedure levels the longest jobs down to a common
value until the aggregate quality would drop to the user target
``Q_GE``, then binary-searches the final common level so the target is
hit exactly.

Two equivalent implementations are provided:

* :func:`lf_cut_waterline` — observes that the paper's loop produces
  targets of the form ``min(p_j, L)`` for a single level ``L``, and
  binary-searches ``L`` directly on the (monotone) aggregate quality.
  This is the fast path used by the scheduler.
* :func:`lf_cut_stepwise` — follows the paper's five steps literally
  (iterative levelling, then the ``f(c) = (Q_GE(F_U + F_C) − F_U)/|C|``
  fractional step solved by binary search on ``f``).  Used to
  cross-validate the waterline form in tests.

Both accept ``base_achieved``/``base_potential`` so the target applies
to the *cumulative* quality the monitor tracks, not just the batch.

GE cuts all active jobs in every AES round: 18.2 jobs per call over the
7,221 calls of the four perfbench workloads (14.2 on ``ge_light``), 42
at the 99th percentile, 56 at most.  On such batches NumPy's dispatch
outweighs the arithmetic, so the waterline bisection runs on Python
floats with the NumPy original's IEEE-754 operations in the same order,
and every target keeps its bits (``quality_opt._sum`` replays ``np.sum``).
f at each midpoint takes an ``np.float64`` to keep NumPy's ufunc
numerics: ``QualityFunction``'s float fast path uses ``math``, whose
``exp`` differs from ``np.exp`` on a few percent of inputs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.quality_opt import _sum
from repro.quality.aggregate import quality_ratio
from repro.quality.functions import QualityFunction
from repro.units import Dimensionless, QualityFrac, VolumeArray, VolumeSeq

__all__ = ["WaterlineMemo", "lf_cut_waterline", "lf_cut_stepwise"]

#: The bisection stops at a ``_TOL·max(1, longest demand)`` bracket or after ``_MAX_ITER`` steps.
_TOL: Dimensionless = 1e-6
_MAX_ITER = 60
_INF = float("inf")


def _checked(
    demands: VolumeArray, q_target: QualityFrac, base_a: Dimensionless, base_p: Dimensionless
) -> VolumeSeq:
    """The demands as a list, after the checks both cutters share; NaN fails each."""
    d: VolumeSeq = demands.tolist()
    for dj in d:
        if not 0.0 < dj < _INF:
            raise ValueError(f"demands must be positive and finite, got {dj!r}")
    if not 0.0 < q_target <= 1.0:
        raise ValueError(f"q_target must be in (0, 1], got {q_target!r}")
    if not (-_INF < base_a < _INF and -_INF < base_p < _INF):
        raise ValueError(f"history terms must be finite, got {base_a!r}, {base_p!r}")
    return d


def _batch_quality(
    f: QualityFunction,
    targets: VolumeArray,
    demands: VolumeArray,
    base_achieved: Dimensionless,
    base_potential: Dimensionless,
) -> QualityFrac:
    """Aggregate quality of a batch cut to ``targets``, on top of history.

    An empty batch with zero history has ``potential == 0``; the ratio
    is then defined as 1.0 — the cut is vacuously satisfied, matching
    :func:`repro.quality.aggregate.quality_ratio` and the monitor's
    start-up convention (GE begins in AES mode).  The BQ compensation
    switch is driven by the *monitor's* cumulative quality, which only
    reports 1.0 while nothing has settled, so the convention cannot
    mask a genuine quality deficit.
    """
    achieved = base_achieved + float(np.sum(f(targets)))
    potential = base_potential + float(np.sum(f(demands)))
    return quality_ratio(achieved, potential)


class WaterlineMemo:
    """Single-entry cross-round cache for :func:`lf_cut_waterline`.

    The GE scheduler re-cuts the *same* demand vector whenever a round
    fires without the active set changing (quantum ticks between
    arrivals).  The memo keys on the exact demand bytes plus the target
    and history terms, so any change — membership, order, target, or
    monitor history — invalidates it.  Stored and returned arrays are
    copies; callers may mutate their result freely.
    """

    __slots__ = ("_key", "_targets", "hits", "misses")

    def __init__(self) -> None:
        self._key: Optional[Tuple[bytes, float, float, float]] = None
        self._targets: Optional[np.ndarray] = None
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[bytes, float, float, float]) -> Optional[np.ndarray]:
        if self._key == key and self._targets is not None:
            self.hits += 1
            return self._targets.copy()
        self.misses += 1
        return None

    def put(self, key: Tuple[bytes, float, float, float], targets: np.ndarray) -> None:
        self._key = key
        self._targets = targets.copy()


def lf_cut_waterline(
    f: QualityFunction,
    demands: VolumeSeq,
    q_target: QualityFrac,
    *,
    base_achieved: Dimensionless = 0.0,
    base_potential: Dimensionless = 0.0,
    memo: Optional[WaterlineMemo] = None,
) -> VolumeArray:
    """LF cut as a waterline: targets are ``min(p_j, L)``.

    Finds the smallest level ``L`` such that the aggregate quality of
    the batch (on top of the monitor history) is at least ``q_target``.
    The aggregate quality is non-decreasing in ``L``, so binary search
    applies.  Returns per-job target volumes in the input order.

    If even full processing cannot reach the target (the history is too
    far underwater), no cutting is performed (targets = demands); the
    mode controller will be in BQ mode in that situation anyway.

    Feasibility guarantee: whenever cutting happens (full processing
    would exceed the target), the returned targets satisfy
    ``_batch_quality(f, targets, demands, ...) >= q_target`` — the
    binary search keeps ``hi`` on the feasible side of the bracket at
    every step, so the returned level is never the infeasible ``lo``.

    ``memo`` optionally caches the last result across rounds; see
    :class:`WaterlineMemo`.
    """
    demands_arr = np.asarray(demands, dtype=float)
    if demands_arr.size == 0:
        return demands_arr.copy()
    d = _checked(demands_arr, q_target, base_achieved, base_potential)
    key = (demands_arr.tobytes(), q_target, base_achieved, base_potential)
    cached = None if memo is None else memo.get(key)
    if cached is not None:
        return cached

    # f over the demands once; each step maps min(d_j, mid) to f(d_j) or
    # f(mid) in input order, so it sums f over the clipped vector as NumPy did.
    f_d = np.asarray(f(demands_arr), dtype=float).tolist()
    f_zero = [float(f(np.float64(0.0)))] * len(d)
    sum_f_d = _sum(f_d)
    potential = base_potential + sum_f_d
    if quality_ratio(base_achieved + sum_f_d, potential) <= q_target:
        targets = demands_arr.copy()  # cannot afford any cutting
    elif quality_ratio(base_achieved + _sum(f_zero), potential) >= q_target:
        targets = np.zeros_like(demands_arr)  # history surplus covers the batch
    else:
        top = max(d)
        lo, hi = 0.0, top
        for _ in range(_MAX_ITER):
            mid = 0.5 * (lo + hi)
            f_mid = float(f(np.float64(mid)))
            achieved = base_achieved + _sum([fj if dj <= mid else f_mid for dj, fj in zip(d, f_d)])
            if quality_ratio(achieved, potential) < q_target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _TOL * max(1.0, top):
                break
        targets = np.array([dj if dj < hi else hi for dj in d])
    if memo is not None:
        memo.put(key, targets)
    return targets


def lf_cut_stepwise(
    f: QualityFunction,
    demands: VolumeSeq,
    q_target: QualityFrac,
    *,
    base_achieved: Dimensionless = 0.0,
    base_potential: Dimensionless = 0.0,
) -> VolumeArray:
    """The paper's §III-B procedure, step by step.

    1. Sort jobs by demand (descending).
    2. Level the longest job(s) down to the second-longest; recompute Q.
    3. Repeat while ``Q > Q_GE``.
    4. Stop if ``Q = Q_GE`` exactly.
    5. Otherwise (overshot): with ``U`` the uncut and ``C`` the cut set,
       give every cut job the volume ``c`` solving
       ``f(c) = (Q_GE·(F_U + F_C + F_base) − F_U − A_base)/|C|``
       via binary search on the concave quality function.

    Returns per-job target volumes in the *input* order.
    """
    demands_arr = np.asarray(demands, dtype=float)
    if demands_arr.size == 0:
        return demands_arr.copy()
    _checked(demands_arr, q_target, base_achieved, base_potential)

    potential = base_potential + float(np.sum(f(demands_arr)))
    full_q = (base_achieved + float(np.sum(f(demands_arr)))) / potential
    if full_q <= q_target:
        return demands_arr.copy()

    order = np.argsort(-demands_arr, kind="stable")
    sorted_d = demands_arr[order]
    levels = np.unique(sorted_d)[::-1]  # distinct demands, descending
    targets_sorted = sorted_d.copy()

    chosen_cut = 0  # number of leading (longest) jobs in the cut set
    for level_idx in range(1, levels.size + 1):
        # Level everything above `next_level` down to it (step 2); after
        # the last distinct level, the floor is 0 (cut everything).
        next_level = levels[level_idx] if level_idx < levels.size else 0.0
        candidate = np.minimum(sorted_d, next_level)
        q = _batch_quality(f, candidate, sorted_d, base_achieved, base_potential)
        cut_count = int(np.sum(sorted_d > next_level))
        if q > q_target:  # step 3: keep cutting
            targets_sorted = candidate
            chosen_cut = cut_count
            continue
        if q == q_target:  # step 4: exact hit
            targets_sorted = candidate
            chosen_cut = cut_count
            break
        # Step 5: this iteration overshot — solve the fractional level
        # for the current cut set.
        chosen_cut = cut_count
        cut_mask = np.zeros(sorted_d.size, dtype=bool)
        cut_mask[:chosen_cut] = True
        f_uncut = float(np.sum(f(sorted_d[~cut_mask]))) if np.any(~cut_mask) else 0.0
        desired_fc = (q_target * potential - f_uncut - base_achieved) / float(chosen_cut)
        desired_fc = min(max(desired_fc, 0.0), 1.0)
        c = f.inverse(desired_fc)
        targets_sorted = sorted_d.copy()
        targets_sorted[cut_mask] = np.minimum(sorted_d[cut_mask], c)
        break

    targets = np.empty_like(targets_sorted)
    targets[order] = targets_sorted
    return targets
