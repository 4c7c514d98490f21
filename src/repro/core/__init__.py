"""The paper's primary contribution: the Good Enough (GE) scheduler.

Sub-modules, matching the paper's §III structure:

* :mod:`repro.core.cutting` — Longest-First job cutting (§III-B).
* :mod:`repro.core.modes` — AES/BQ mode controller with the quality
  compensation policy (§III-C).
* :mod:`repro.core.assignment` — Round-Robin and Cumulative
  Round-Robin batch job assignment (§III-E).
* :mod:`repro.core.energy_opt` — the Energy-OPT per-core speed
  schedule, i.e. Yao–Demers–Shenker speed scaling [28].
* :mod:`repro.core.quality_opt` — the Quality-OPT partial-processing
  allocator of He et al. [14], used as the "second cut" when a core's
  power cap cannot complete its workload.
* :mod:`repro.core.load` — online load estimation for the hybrid
  power-distribution switch (§III-D).
* :mod:`repro.core.planner` — per-core plan construction shared by the
  GE family (mode → cut → Quality-OPT → Energy-OPT → segments).
* :mod:`repro.core.ge` — the GE scheduler itself, plus its BE and OQ
  siblings expressed as parameterizations.
"""

from repro.core.assignment import CumulativeRoundRobin, RoundRobin
from repro.core.cutting import lf_cut_stepwise, lf_cut_waterline
from repro.core.cutting_general import lf_cut_mixed
from repro.core.decisions import Decision, DecisionLog
from repro.core.energy_opt import yds_schedule, yds_schedule_general
from repro.core.ge import GEScheduler, make_be, make_ge, make_oq
from repro.core.load import ArrivalRateEstimator
from repro.core.modes import ExecutionMode, ModeController
from repro.core.quality_opt import quality_opt

__all__ = [
    "ArrivalRateEstimator",
    "CumulativeRoundRobin",
    "Decision",
    "DecisionLog",
    "ExecutionMode",
    "GEScheduler",
    "ModeController",
    "RoundRobin",
    "lf_cut_mixed",
    "lf_cut_stepwise",
    "lf_cut_waterline",
    "make_be",
    "make_ge",
    "make_oq",
    "quality_opt",
    "yds_schedule",
    "yds_schedule_general",
]
