"""Quality-OPT: best quality under a per-core capacity limit.

The paper (§III-E) applies "the existing Quality-OPT algorithm [14] ...
to calculate the most efficient part of the jobs to achieve the highest
possible quality with limited power (a second cut)".  [14] is Tians
scheduling (He, Elnikety, Sun — ICDCS'11): given jobs that may be
partially processed and a limited processing capacity, choose per-job
volumes maximizing total quality.

Formally, for one core at time ``now`` with speed cap ``s`` running its
jobs sequentially in EDF order, a volume vector ``(x_1..x_n)`` is
feasible iff every prefix fits the capacity available before its
deadline:

    Σ_{i≤k} x_i ≤ C_k := s·(d_k − now)        for all k,
    0 ≤ x_i ≤ bound_i.

Maximizing ``Σ f(offset_i + x_i)`` for one shared concave ``f`` (where
``offset_i`` is volume already processed) is solved exactly by a
*nested water-filling*: the binding prefix is the one whose waterline
is lowest; its jobs are levelled at that waterline and the procedure
recurses on the suffix with the consumed capacity subtracted.  This is
the quality-domain mirror of YDS's critical-interval argument.  Every
block re-solves a waterline for every remaining prefix, and each solve
scans O(k) breakpoints at O(k) each, so the worst case is O(n⁴).  The
batches a core plans are tiny: 2.32 jobs per call on average on the
overloaded perfbench workload (GE at 250/s), and never more than 7 on
any of them.  The code therefore runs on Python scalars, because NumPy's
per-call dispatch would cost more than the arithmetic, and it returns
the list it builds: its caller, the planner, works on lists too.

The scalar code performs the same IEEE-754 operations in the same order
as the original NumPy formulation (kept verbatim in
``tests/core/test_quality_opt.py`` as the bitwise oracle): ``_sum``
replays ``np.sum``'s pairwise order, and ``np.clip(x, 0, b)`` is
``max`` then ``min`` with NumPy's sign-of-zero behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InfeasibleError
from repro.units import Seconds, SecondsSeq, Speed, Volume, VolumeArray, VolumeSeq

__all__ = ["quality_opt", "prefix_feasible"]

_EPS = 1e-12
_INF = float("inf")


def prefix_feasible(
    volumes: VolumeArray, capacities: VolumeArray, rel_tol: float = 1e-9
) -> bool:
    """Check ``Σ_{i≤k} volumes_i ≤ capacities_k`` for every prefix k."""
    prefix = np.cumsum(volumes)
    slack = capacities - prefix
    return bool(np.all(slack >= -rel_tol * np.maximum(1.0, capacities)))


def _sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))``, bit for bit, on a list of floats.

    NumPy sums float64 pairwise from a +0.0 start: left to right below 8
    elements, eight interleaved accumulators up to 128, and above that
    the two halves (split at a multiple of 8) summed recursively.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _sum(values[:half]) + _sum(values[half:])
    acc = list(values[:8])
    stop = n - n % 8
    for i in range(8, stop, 8):
        for j in range(8):
            acc[j] += values[i + j]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for v in values[stop:]:
        total += v
    return total + 0.0  # the +0.0 start turns a -0.0 total into 0.0


def _levelled(level: Volume, offsets: VolumeSeq, bounds: VolumeSeq) -> List[Volume]:
    """``np.clip(level - offsets, 0.0, bounds)`` as a list: a max, then a
    min, with NumPy's sign-of-zero results."""
    out = []
    for o, b in zip(offsets, bounds):
        x = level - o
        x = x if x > 0.0 else 0.0
        out.append(x if x < b else b)
    return out


def _waterline(offsets: VolumeSeq, bounds: VolumeSeq, budget: Volume) -> Volume:
    """Water level ``w`` with ``Σ clip(w − offset_i, 0, bound_i) = budget``.

    Returns ``inf`` when the budget covers every bound.  The allocation
    is piecewise linear and non-decreasing in ``w``, with breakpoints at
    the offsets and tops (offset + bound): the first breakpoint whose
    allocation reaches the budget closes the bracket, and the linear
    piece below it is solved for ``w``.
    """
    if _sum(bounds) <= budget + _EPS:
        return _INF
    tops = [o + b for o, b in zip(offsets, bounds)]
    points = sorted(set(offsets).union(tops))  # == np.unique
    need = budget - _EPS
    # The lowest breakpoint is the lowest offset, where nothing is
    # allocated; budget > _EPS, so the scan can start past it.
    lo = points[0]
    hi = points[-1]
    alloc_lo = 0.0
    for p in points[1:]:
        alloc = _sum(_levelled(p, offsets, bounds))
        if alloc >= need:
            hi = p
            break
        lo = p
        alloc_lo = alloc
    # On (lo, hi] the slope is the number of jobs with offset <= lo < top.
    lo_eps = lo + _EPS
    active = 0
    for o, t in zip(offsets, tops):
        if o <= lo_eps and t > lo_eps:
            active += 1
    if active == 0:
        return hi
    return lo + (budget - alloc_lo) / active


def quality_opt(
    bounds: VolumeSeq,
    deadlines: SecondsSeq,
    now: Seconds,
    capacity_per_second: Speed,
    offsets: Optional[VolumeSeq] = None,
) -> List[Volume]:
    """Optimal extra volumes under prefix capacity constraints.

    Parameters
    ----------
    bounds:
        Maximum extra volume each job may receive (remaining demand, or
        the AES cut target minus already-processed volume), EDF order.
    deadlines:
        Absolute deadlines, non-decreasing.
    now:
        Current time; capacity before deadline k is
        ``capacity_per_second · (deadlines[k] − now)``.
    capacity_per_second:
        The core's throughput at its power cap (units/second).
    offsets:
        Volume already processed per job (shifts the marginal quality);
        defaults to zero.

    Returns
    -------
    Extra volumes ``x`` as a list of floats, with ``0 ≤ x ≤ bounds``,
    prefix-feasible, maximizing ``Σ f(offset + x)`` for any common
    concave ``f``.

    Raises
    ------
    ValueError
        Mismatched lengths, a negative or NaN bound or offset, or
        deadlines that are NaN or not in EDF order.
    InfeasibleError
        A negative or NaN capacity, or a deadline in the past (a NaN
        ``now`` or lone NaN deadline counts as one).

    Notes
    -----
    The returned allocation is *f-independent*: levelling total volumes
    is optimal simultaneously for every shared non-decreasing concave
    quality function, so the caller does not pass ``f`` at all.  (With
    per-job quality functions this would no longer hold.)
    """
    # Checks are written ``not (x >= 0)`` so that NaN fails them too.
    blist = list(map(float, bounds))
    dlist = list(map(float, deadlines))
    n = len(blist)
    if n != len(dlist):
        raise ValueError("bounds and deadlines must have equal length")
    if n == 0:
        return []
    for b in blist:
        if not (b >= 0.0):
            raise ValueError("bounds must be non-negative")
    for i in range(n - 1):
        if not (dlist[i + 1] - dlist[i] >= 0.0):
            raise ValueError("deadlines must be non-decreasing (EDF order)")
    if not (capacity_per_second >= 0.0):
        raise InfeasibleError(f"negative capacity {capacity_per_second!r}")
    if offsets is None:
        olist = [0.0] * n
    else:
        olist = list(map(float, offsets))
        if len(olist) != n:
            raise ValueError("offsets must be non-negative and match bounds")
        for o in olist:
            if not (o >= 0.0):
                raise ValueError("offsets must be non-negative and match bounds")
    caps: List[float] = []
    for d in dlist:
        c = capacity_per_second * (d - now)
        if not (c >= -_EPS):
            raise InfeasibleError("a deadline lies in the past")
        caps.append(c if c > 0.0 else 0.0)  # == np.maximum(c, 0.0)
    if n == 1:
        return [min(blist[0], caps[0])]

    out: List[float] = []
    start = 0
    consumed = 0.0
    while start < n:
        # The lowest waterline over every prefix of the remaining jobs.
        best_end = start
        best_w = _INF
        has_work = False  # a bound > _EPS among blist[start:end]
        for end in range(start + 1, n + 1):
            has_work = has_work or blist[end - 1] > _EPS
            budget = caps[end - 1] - consumed
            if budget <= _EPS:
                # No capacity before this deadline: its prefix gets 0.
                w = -_INF if has_work else _INF
                if w < best_w:
                    best_w = w
                    best_end = end
                continue
            w = _waterline(olist[start:end], blist[start:end], budget)
            if w < best_w - _EPS:
                best_w = w
                best_end = end
        if best_w == _INF:
            # No prefix binds: every remaining job is fully served.
            out.extend(blist[start:])
            break
        if best_w == -_INF:
            alloc = [0.0] * (best_end - start)
        else:
            alloc = _levelled(best_w, olist[start:best_end], blist[start:best_end])
        out.extend(alloc)
        consumed += _sum(alloc)
        start = best_end
    return out
