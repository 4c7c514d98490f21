"""Per-core plan construction for the GE scheduler family (§III-E).

Given the jobs pinned to one core and their *target* total volumes
(full demands in BQ mode; LF-cut targets in AES mode), this module
produces the executable segment list:

1. jobs whose target is already reached are settled immediately
   (their tails are discarded — the first cut);
2. **Quality-OPT** trims the batch to what the core's power cap can
   actually deliver before each deadline (the second cut);
3. **Energy-OPT** (YDS) assigns the minimum-energy speed staircase to
   the surviving volumes, quantized onto the DVFS ladder when the
   machine uses discrete speed scaling.

The module also computes the per-core *power demand* used by the
Water-Filling distribution: the power of the critical YDS intensity,
i.e. the smallest constant speed at which the core meets every
deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.energy_opt import yds_schedule
from repro.core.quality_opt import quality_opt
from repro.power.dvfs import SpeedScale
from repro.power.models import PowerModel
from repro.units import Gigahertz, Seconds, Speed, Volume, VolumeSeq, Watts
from repro.server.core import Segment
from repro.workload.job import Job, JobOutcome

__all__ = ["CorePlan", "build_core_plan", "core_power_demand", "edf_sort"]

#: Work below this volume (units) is considered "no work".
_WORK_EPS = 1e-6


def edf_sort(jobs: Sequence[Job]) -> List[Job]:
    """Jobs in Earliest-Deadline-First order (jid tie-break)."""
    return sorted(jobs, key=lambda j: (j.deadline, j.jid))


def core_power_demand(
    jobs: Sequence[Job],
    extras: VolumeSeq,
    now: Seconds,
    model: PowerModel,
) -> Watts:
    """Power (W) this core needs to deliver ``extras`` by the deadlines.

    The need is the *critical intensity* ``max_k Σ_{i≤k} v_i/(d_k−now)``
    over EDF prefixes — exactly the top step of the YDS staircase, and
    therefore the smallest constant-speed power that keeps the plan
    feasible.  Jobs must already be EDF-sorted and have deadlines > now.

    Implemented as a plain Python scan: batches are a handful of jobs,
    where the interpreter loop beats numpy's per-call overhead several
    times over, and a sequential running sum is bitwise equal to the
    ``np.cumsum``/``np.max`` formulation it replaced.
    """
    cumulative = 0.0
    peak = -float("inf")
    for job, extra in zip(jobs, extras):
        if extra > _WORK_EPS:
            cumulative += extra
            intensity = cumulative / (job.deadline - now)
            if intensity > peak:
                peak = intensity
    if peak == -float("inf"):
        return 0.0
    return model.power(model.speed_for_throughput(float(peak)))


@dataclass(slots=True)
class CorePlan:
    """Outcome of planning one core at one trigger.

    Attributes
    ----------
    segments:
        Ordered executable segments for :meth:`Core.set_plan`.
    settle_now:
        ``(job, outcome)`` pairs the scheduler must settle immediately
        (first- or second-cut discards and already-finished targets).
    """

    segments: List[Segment]
    settle_now: List[Tuple[Job, JobOutcome]]


def _immediate_outcome(job: Job) -> JobOutcome:
    """Outcome for a job whose planning target is already reached."""
    if job.remaining <= max(1e-9, 1e-7 * job.demand):
        return JobOutcome.COMPLETED
    if job.processed > _WORK_EPS:
        return JobOutcome.CUT
    return JobOutcome.DROPPED


def build_core_plan(
    jobs: Sequence[Job],
    targets: VolumeSeq,
    now: Seconds,
    power_cap: Watts,
    model: PowerModel,
    scale: SpeedScale,
    allocator: Optional[Callable[..., np.ndarray]] = None,
    *,
    speed_cap: Optional[Gigahertz] = None,
    capacity: Optional[Speed] = None,
) -> CorePlan:
    """Plan one core: first cut → Quality-OPT → Energy-OPT → segments.

    Parameters
    ----------
    jobs:
        Unsettled jobs pinned to this core, EDF-sorted, deadlines > now.
    targets:
        Per-job *total* target volume (same order as ``jobs``).  BQ mode
        passes full demands, AES passes LF-cut targets.
    power_cap:
        The core's power allocation from the distribution policy (W).
    allocator:
        The second-cut routine; signature of
        :func:`repro.core.quality_opt.quality_opt` plus a leading
        ``jobs`` argument.  Defaults to the shared-quality-function
        Quality-OPT; the mixed-class extension substitutes a
        marginal-levelling variant (see :mod:`repro.mixed`).
    speed_cap, capacity:
        Optional precomputed ``scale.max_speed_at_power(power_cap)`` and
        ``model.throughput(speed_cap)``.  Both are pure functions of
        ``power_cap``, so schedulers that replan the same cap every
        round memoize them per core; when omitted they are computed
        here.

    Raises
    ------
    ValueError
        ``targets`` and ``jobs`` differ in length.
    """
    if not jobs:
        return CorePlan([], [])
    if len(targets) != len(jobs):
        raise ValueError("targets must match jobs")
    # The hot path walks the batch once on Python lists: per-element
    # scalar arithmetic is bitwise equal to the elementwise numpy
    # expressions it replaced and several times cheaper on the small
    # per-core batches planned here.  Only the custom-allocator branch
    # builds arrays (its implementations expect them).
    processed: List[Volume] = []
    extras: List[Volume] = []
    deadlines: List[Seconds] = []
    for job, t in zip(jobs, targets):
        p = job.processed
        e = float(t) - p
        processed.append(p)
        extras.append(e if e > 0.0 else 0.0)  # == np.maximum(0.0, t - p)
        deadlines.append(job.deadline)

    if speed_cap is None:
        speed_cap = scale.max_speed_at_power(power_cap)
    if capacity is None:
        capacity = model.throughput(speed_cap)  # units/second at the cap

    # Second cut: fit the extras into the capacity before each deadline.
    if allocator is None:
        granted: List[Volume] = quality_opt(
            extras, deadlines, now, capacity, offsets=processed
        )
    else:
        custom = allocator(
            jobs,
            np.asarray(extras, dtype=float),
            np.asarray(deadlines, dtype=float),
            now,
            capacity,
            np.asarray(processed, dtype=float),
        )
        granted = custom.tolist() if isinstance(custom, np.ndarray) else list(map(float, custom))

    settle_now: List[Tuple[Job, JobOutcome]] = []
    live_jobs: List[Job] = []
    live_vols: List[Volume] = []
    live_dls: List[Seconds] = []
    for job, g, d in zip(jobs, granted, deadlines):
        if g > _WORK_EPS:
            live_jobs.append(job)
            live_vols.append(g)
            live_dls.append(d)
        else:
            settle_now.append((job, _immediate_outcome(job)))
    if not live_jobs:
        return CorePlan([], settle_now)

    segments: List[Segment] = []
    discrete = scale.discrete
    for block in yds_schedule(live_vols, live_dls, now, max_speed=capacity * (1 + 1e-9)):
        speed_ghz = model.speed_for_throughput(block.speed)
        if discrete:
            # Round the staircase step up to the ladder (finishing early
            # is always deadline-safe) but never beyond the rectified cap.
            speed_ghz = min(scale.ceil(speed_ghz), speed_cap)
            speed_ghz = max(speed_ghz, 1e-12)
        else:
            speed_ghz = min(speed_ghz, speed_cap)
        for k in block.jobs:
            segments.append(Segment(live_jobs[k], live_vols[k], speed_ghz))
    return CorePlan(segments, settle_now)
