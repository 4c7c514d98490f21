"""The multicore server (paper §II-B).

:class:`MulticoreServer` bundles ``m`` :class:`repro.server.core.Core`
objects with the shared power model, the speed scale (continuous or
discrete DVFS) and the dynamic power budget ``H``.  It provides the
machine-level measurements the evaluation needs:

* total energy ``E = ∫ Σ_i P(s_i(t)) dt`` (exact, from the per-core
  piecewise-constant speed timelines);
* time-average speed and time-weighted speed variance across cores
  (Fig. 6);
* capacity figures used to place the critical-load and overload points.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.tracer import TracerLike
from repro.power.dvfs import ContinuousSpeedScale, SpeedScale
from repro.power.models import PowerModel
from repro.server.core import Core
from repro.sim.engine import Simulator
from repro.sim.timeline import StepTimeline
from repro.units import Gigahertz, Joules, PowerBudget, Seconds, Speed, Volume, Watts
from repro.workload.job import Job

__all__ = ["MulticoreServer"]


class MulticoreServer:
    """An ``m``-core DVFS server with a shared dynamic power budget.

    Parameters
    ----------
    sim:
        The driving simulator.
    m:
        Number of cores (paper default 16).
    budget:
        Total dynamic power budget ``H`` in watts (paper default 320).
    model:
        The speed→power model (paper default ``5·s²``).
    scale:
        Speed scale; continuous by default, or a
        :class:`repro.power.dvfs.DiscreteSpeedScale` for Fig. 12.
    """

    def __init__(
        self,
        sim: Simulator,
        m: int = 16,
        budget: PowerBudget = 320.0,
        model: Optional[PowerModel] = None,
        scale: Optional[SpeedScale] = None,
        on_idle: Optional[Callable[[int], None]] = None,
        on_settle: Optional[Callable[[Job], None]] = None,
        models: Optional[List[PowerModel]] = None,
        scales: Optional[List[SpeedScale]] = None,
        tracer: Optional[TracerLike] = None,
    ) -> None:
        if m <= 0:
            raise ConfigurationError(f"core count must be positive, got {m!r}")
        if budget <= 0:
            raise ConfigurationError(f"power budget must be positive, got {budget!r}")
        self.sim = sim
        self.m = int(m)
        self.budget = float(budget)
        #: H over time; ``budget`` is the value in force now.
        self.budget_timeline = StepTimeline(start_time=sim.now, initial_value=self.budget)
        self.model = model or PowerModel()
        self.scale = scale or ContinuousSpeedScale(self.model)
        # Per-core models/scales: identical to the reference pair unless
        # the machine is heterogeneous (config.core_power_scales).
        if models is not None and len(models) != self.m:
            raise ConfigurationError(f"need {self.m} per-core models, got {len(models)}")
        if scales is not None and len(scales) != self.m:
            raise ConfigurationError(f"need {self.m} per-core scales, got {len(scales)}")
        self.models: List[PowerModel] = list(models) if models else [self.model] * self.m
        self.scales: List[SpeedScale] = list(scales) if scales else [self.scale] * self.m
        self.cores: List[Core] = [
            Core(
                i,
                sim,
                units_per_ghz_second=self.models[i].units_per_ghz_second,
                on_idle=on_idle,
                on_settle=on_settle,
                tracer=tracer,
            )
            for i in range(self.m)
        ]

    # ------------------------------------------------------------------
    # Chaos: failures and budget changes (repro.chaos)
    # ------------------------------------------------------------------
    @property
    def alive_count(self) -> int:
        """Number of non-failed cores (== ``m`` in an undisturbed run)."""
        return sum(1 for core in self.cores if not core.failed)

    def fail_core(self, index: int) -> List[Job]:
        """Fail one core; returns the jobs that were planned on it."""
        return self.cores[index].fail()

    def recover_core(self, index: int) -> None:
        """Recover a previously failed core (idle, empty plan)."""
        self.cores[index].recover()

    def set_budget(self, budget: PowerBudget) -> None:
        """Change the dynamic power budget ``H`` mid-run (chaos dips).

        The new value takes effect at the next power distribution; the
        caller (the chaos injector) is responsible for triggering a
        reschedule so caps shrink at the same instant.  The change is
        recorded in :attr:`budget_timeline` at the current simulated
        time, so audits compare power with the ``H`` then in force.
        """
        if budget <= 0:
            raise ConfigurationError(f"power budget must be positive, got {budget!r}")
        self.budget = float(budget)
        self.budget_timeline.set_value(self.sim.now, self.budget)

    # ------------------------------------------------------------------
    # Capacity figures
    # ------------------------------------------------------------------
    @property
    def equal_share_speed(self) -> Gigahertz:
        """Mean core speed at an equal budget share (GHz).

        Paper defaults: 320 W / 16 cores = 20 W → 2 GHz.  On a
        heterogeneous machine this is the across-core mean.
        """
        share = self.budget / self.m
        return float(
            np.mean([scale.max_speed_at_power(share) for scale in self.scales])
        )

    @property
    def equal_share_capacity(self) -> Speed:
        """Total units/second with the budget split equally."""
        share = self.budget / self.m
        return float(
            sum(
                model.throughput(scale.max_speed_at_power(share))
                for model, scale in zip(self.models, self.scales)
            )
        )

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def energy(self, until: Optional[Seconds] = None) -> Joules:
        """Total dynamic energy (J) consumed up to ``until`` (default now)."""
        end = self.sim.now if until is None else until
        return sum(
            core.speed_timeline.integral(end, transform=model.power)
            for core, model in zip(self.cores, self.models)
        )

    def instantaneous_power(self) -> Watts:
        """Total dynamic power draw right now (W)."""
        return float(
            sum(model.power(core.speed) for core, model in zip(self.cores, self.models))
        )

    def mean_speed(self, until: Optional[Seconds] = None) -> Gigahertz:
        """Time-average of the across-core mean speed (GHz)."""
        end = self.sim.now if until is None else until
        return float(
            np.mean([core.speed_timeline.time_average(end) for core in self.cores])
        )

    def speed_variance(self, until: Optional[Seconds] = None) -> float:
        """Time-averaged across-core variance of core speeds.

        This is the Fig. 6b statistic: at each instant compute the
        variance of the m core speeds, then average over time.  By the
        law of total variance it equals
        E_t[ E_i[s²] ] − E_t[ (E_i[s])² ], evaluated exactly from the
        step timelines.
        """
        end = self.sim.now if until is None else until
        start = min(core.speed_timeline.start_time for core in self.cores)
        span = end - start
        if span <= 0:
            return 0.0
        # Merge all breakpoints; between consecutive breakpoints every
        # core speed is constant, so the instantaneous variance is too.
        # Vectorized: one searchsorted per core over the merged axis
        # (paper-scale runs have millions of breakpoints).
        merged = np.unique(
            np.concatenate(
                [
                    np.asarray(core.speed_timeline._times)
                    for core in self.cores
                ]
                + [np.array([start, end])]
            )
        )
        merged = merged[merged <= end]
        lefts = merged[:-1]
        widths = np.diff(merged)
        speeds = np.empty((self.m, lefts.size))
        for i, core in enumerate(self.cores):
            times = np.asarray(core.speed_timeline._times)
            values = np.asarray(core.speed_timeline._values)
            idx = np.searchsorted(times, lefts, side="right") - 1
            speeds[i] = values[np.clip(idx, 0, values.size - 1)]
        inst_var = np.var(speeds, axis=0)
        return float(np.sum(inst_var * widths)) / span

    def utilization(self, until: Optional[Seconds] = None) -> float:
        """Fraction of core-time spent executing (speed > 0)."""
        end = self.sim.now if until is None else until
        start = min(core.speed_timeline.start_time for core in self.cores)
        span = end - start
        if span <= 0:
            return 0.0
        busy = sum(
            core.speed_timeline.integral(end, transform=lambda v: (np.asarray(v) > 0).astype(float))
            for core in self.cores
        )
        return busy / (span * self.m)

    def total_completed_volume(self) -> Volume:
        """Processing units executed across all cores."""
        return sum(core.completed_volume for core in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MulticoreServer(m={self.m}, H={self.budget}W, {self.model!r})"
