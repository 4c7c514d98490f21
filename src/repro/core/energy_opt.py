"""Energy-OPT: minimum-energy speed scheduling (Yao–Demers–Shenker).

The paper's final per-core step "executes the jobs in order of their
deadlines by the existing Energy-OPT algorithm [28] to achieve the
least power consumption".  [28] is the classic YDS result: with a
convex power function, the minimum-energy feasible schedule runs each
*critical interval* at its constant intensity.

Two implementations are provided:

* :func:`yds_schedule` — the specialization GE actually needs: all jobs
  are available *now* (a core plans only work already in hand) and are
  executed sequentially in EDF order.  The optimal speed profile is a
  non-increasing staircase found by repeatedly taking the prefix with
  the maximum intensity ``Σ volume / (deadline − now)``.  O(n²) worst
  case, linear in practice for agreeable batches.
* :func:`yds_schedule_general` — the textbook algorithm for arbitrary
  release times and deadlines (preemptive EDF), used to cross-validate
  the specialization in tests and available as library functionality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.errors import InfeasibleError
from repro.units import Seconds, SecondsSeq, Speed, SpeedArray, VolumeSeq

__all__ = ["BlockSpeed", "yds_schedule", "yds_schedule_general"]


@dataclass(slots=True)
class BlockSpeed:
    """One staircase step of the YDS profile.

    ``jobs`` are indices into the input arrays; every job in the block
    runs at the same constant ``speed`` (units/second).  A slotted
    record: the planner builds one per block on every replan.
    """

    jobs: Tuple[int, ...]
    speed: Speed


def yds_schedule(
    volumes: VolumeSeq,
    deadlines: SecondsSeq,
    now: Seconds,
    *,
    max_speed: Speed = math.inf,
) -> List[BlockSpeed]:
    """Minimum-energy speeds for jobs all released at ``now``.

    Parameters
    ----------
    volumes:
        Remaining volume of each job (units), in EDF order.
    deadlines:
        Absolute deadlines, non-decreasing, all > ``now``.
    now:
        Current time.
    max_speed:
        Cap in units/second; intensities above it raise
        :class:`InfeasibleError` (callers run Quality-OPT first to
        guarantee feasibility).  A 1e-9 relative slack absorbs float
        noise.

    Returns
    -------
    list of :class:`BlockSpeed` with strictly decreasing speeds.

    Notes
    -----
    Correctness: with every job released at ``now`` and agreeable
    deadlines, the YDS critical interval is always a prefix
    ``[now, d_k]`` maximizing ``Σ_{i≤k} v_i / (d_k − now)``; jobs of the
    prefix run at exactly that intensity and finish at ``d_k``, after
    which the argument repeats on the suffix starting at ``d_k``.

    The staircase runs on Python lists: sequential prefix sums are
    bitwise equal to ``np.cumsum``, and the max/threshold selection uses
    the same float comparisons, so the blocks equal, bit for bit, those
    of the vectorized NumPy oracle in ``tests/core/test_energy_opt.py``.
    """
    vlist = volumes.tolist() if isinstance(volumes, np.ndarray) else list(map(float, volumes))
    dlist = (
        deadlines.tolist() if isinstance(deadlines, np.ndarray) else list(map(float, deadlines))
    )
    n = len(vlist)
    if n != len(dlist):
        raise ValueError("volumes and deadlines must have equal length")
    if n == 1:
        # Single-job fast path: the monotonicity check is vacuous for
        # one job; one block at the exact intensity.
        v0 = vlist[0]
        if v0 <= 0:
            raise ValueError(
                "volumes must be positive (filter zero work before calling)"
            )
        d0 = dlist[0]
        if d0 <= now:
            raise InfeasibleError(f"first deadline {d0!r} is not after now={now!r}")
        speed = v0 / (d0 - now)
        if speed > max_speed * (1.0 + 1e-9):
            raise InfeasibleError(
                f"required speed {speed:.6g} exceeds cap {max_speed:.6g} units/s"
            )
        return [BlockSpeed((0,), min(speed, max_speed))]
    for v in vlist:
        if v <= 0:
            raise ValueError(
                "volumes must be positive (filter zero work before calling)"
            )
    for i in range(n - 1):
        if dlist[i + 1] - dlist[i] < 0:
            raise ValueError("deadlines must be non-decreasing (EDF order)")
    if n and dlist[0] <= now:
        raise InfeasibleError(f"first deadline {dlist[0]!r} is not after now={now!r}")

    prefix = [0.0] * (n + 1)
    acc = 0.0
    for i, v in enumerate(vlist):
        acc += v
        prefix[i + 1] = acc
    blocks: List[BlockSpeed] = []
    start = 0
    t = now
    cap_slack = max_speed * (1.0 + 1e-9)
    while start < n:
        # Intensity of each candidate prefix of the remaining jobs.
        base = prefix[start]
        peak = -math.inf
        intensities = []
        for k in range(start, n):
            span = dlist[k] - t
            if span <= 0:
                raise InfeasibleError(
                    "deadline at or before block start — infeasible batch"
                )
            intensity = (prefix[k + 1] - base) / span
            intensities.append(intensity)
            if intensity > peak:
                peak = intensity
        # Prefer the longest prefix achieving the peak so equal-intensity
        # jobs merge into one maximal critical block (canonical YDS).
        threshold = peak * (1.0 - 1e-12)
        k_sel = 0
        for i, intensity in enumerate(intensities):
            if intensity >= threshold:
                k_sel = i
        speed = intensities[k_sel]
        if speed > cap_slack:
            raise InfeasibleError(
                f"required speed {speed:.6g} exceeds cap {max_speed:.6g} units/s"
            )
        speed = min(speed, max_speed)
        blocks.append(BlockSpeed(tuple(range(start, start + k_sel + 1)), speed))
        t = t + (prefix[start + k_sel + 1] - base) / speed
        start += k_sel + 1
    return blocks


def per_job_speeds(
    blocks: List[BlockSpeed], n: int
) -> SpeedArray:
    """Flatten a staircase into a per-job speed array of length ``n``."""
    speeds = np.zeros(n)
    for block in blocks:
        for j in block.jobs:
            speeds[j] = block.speed
    return speeds


def yds_schedule_general(
    releases: SecondsSeq,
    deadlines: SecondsSeq,
    volumes: VolumeSeq,
) -> List[Tuple[Seconds, Seconds, Speed]]:
    """Textbook YDS for arbitrary release times (preemptive, one core).

    Returns the optimal speed profile as ``(start, end, speed)``
    critical intervals in the order they were peeled off (speeds are
    non-increasing).  O(n³) — intended for validation and small inputs,
    not the simulation hot path.
    """
    rel = [float(r) for r in releases]
    dls = [float(d) for d in deadlines]
    vols = [float(v) for v in volumes]
    if not len(rel) == len(dls) == len(vols):
        raise ValueError("releases, deadlines, volumes must have equal length")
    for r, d, v in zip(rel, dls, vols):
        if d <= r:
            raise ValueError(f"deadline {d} not after release {r}")
        if v <= 0:
            raise ValueError("volumes must be positive")

    jobs = list(range(len(vols)))
    profile: List[Tuple[float, float, float]] = []
    while jobs:
        # Candidate interval endpoints are the remaining jobs' releases
        # and deadlines.
        points = sorted({rel[j] for j in jobs} | {dls[j] for j in jobs})
        best = None  # (speed, z, d, members)
        for zi, z in enumerate(points):
            for d in points[zi + 1 :]:
                members = [j for j in jobs if rel[j] >= z and dls[j] <= d]
                if not members:
                    continue
                speed = sum(vols[j] for j in members) / (d - z)
                if best is None or speed > best[0] + 1e-15:
                    best = (speed, z, d, members)
        assert best is not None
        speed, z, d, members = best
        profile.append((z, d, speed))
        member_set = set(members)
        jobs = [j for j in jobs if j not in member_set]
        # Collapse the critical interval: times inside [z, d] are no
        # longer available, so shift the remaining jobs' windows.
        span = d - z
        for j in jobs:
            if rel[j] >= d:
                rel[j] -= span
            elif rel[j] > z:
                rel[j] = z
            if dls[j] >= d:
                dls[j] -= span
            elif dls[j] > z:
                dls[j] = z
    return profile


def energy_of_blocks(
    blocks: List[BlockSpeed],
    volumes: Sequence[float],
    power_of_speed: Callable[[float], float],
) -> float:
    """Energy of a staircase given ``power_of_speed`` in units/second.

    Each job contributes ``P(s) · v / s`` at its block speed; helper for
    tests comparing YDS against alternatives.
    """
    vols = np.asarray(volumes, dtype=float)
    total = 0.0
    for block in blocks:
        for j in block.jobs:
            total += power_of_speed(block.speed) * vols[j] / block.speed
    return total
