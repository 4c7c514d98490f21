"""Simulation configuration (paper §IV-B defaults).

:class:`SimulationConfig` is the single source of truth for every knob
the evaluation sweeps.  The defaults reproduce the paper's setup:

* web-search server with m=16 cores, dynamic power budget H=320 W;
* power model ``P = 5·s²`` (so the equal-share speed is 2 GHz and one
  core at 1 GHz processes 1000 units/s);
* Poisson arrivals, bounded-Pareto demands (α=3, 130..1000, mean 192);
* deadline = arrival + 150 ms (Fig. 4 uses a 150–500 ms window);
* good-enough quality Q_GE = 0.9, quality concavity c = 0.003;
* quantum trigger 500 ms, counter trigger 8 requests, 10-min horizon;
* critical load at 154 requests/s at these defaults.

On the critical load: the paper states 154 r/s "consumes 77.8 % of the
server's total processing capacity".  Relative to the equal-share
capacity (16 cores × 2000 units/s = 32 000 units/s ≈ 166.7 r/s of mean
demand), 154 r/s is a fraction 0.924; we store that fraction so the
threshold scales when m, H or the demand distribution change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.chaos.schedule import DisturbanceSchedule
from repro.errors import ConfigurationError
from repro.power.dvfs import ContinuousSpeedScale, DiscreteSpeedScale, SpeedScale
from repro.power.models import PowerModel
from repro.quality.functions import ExponentialQuality, QualityFunction
from repro.sim.rng import RandomStreams
from repro.units import (
    Dimensionless,
    Gigahertz,
    PerSecond,
    PowerBudget,
    QualityFrac,
    Seconds,
    Speed,
    UnitsPerGhzSecond,
    Volume,
    Watts,
)
from repro.workload.distributions import BoundedPareto, UniformDeadlineWindow
from repro.workload.generator import PoissonWorkloadGenerator

__all__ = ["SimulationConfig", "PAPER_DEFAULTS"]


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulation run.  Frozen: derive variants via
    :meth:`with_overrides`."""

    # Workload ---------------------------------------------------------
    arrival_rate: PerSecond = 150.0  # λ, requests/second
    horizon: Seconds = 600.0  # seconds of arrivals (paper: 10 minutes)
    demand_alpha: float = 3.0
    demand_min: Volume = 130.0
    demand_max: Volume = 1000.0
    window_low: Seconds = 0.150  # deadline window (s)
    window_high: Seconds = 0.150

    # Machine ------------------------------------------------------------
    m: int = 16
    budget: PowerBudget = 320.0  # H, watts
    power_a: float = 5.0
    power_beta: float = 2.0
    units_per_ghz_second: UnitsPerGhzSecond = 1000.0
    discrete_levels: Optional[Tuple[float, ...]] = None  # None = continuous DVFS
    top_speed: Optional[Gigahertz] = None  # per-core speed cap (BE-S policy)

    # Quality --------------------------------------------------------------
    quality_c: float = 0.003
    quality_shape: str = "exponential"  # or "log" / "power" / "linear"
    q_ge: QualityFrac = 0.9

    # Extension: static power (the paper excludes it, §IV-B).  When
    # non-zero, every core draws this many watts for the whole run and
    # RunResult.static_energy/total_energy report the consequence —
    # used by the static-power ablation of the Fig. 11 caveat.
    static_power_per_core: Watts = 0.0

    # Extension: heterogeneous cores (the paper's many-core future-work
    # direction).  When set, entry i multiplies ``power_a`` for core i
    # (length must equal ``m``); e.g. 8×0.6 + 8×1.0 models a
    # big.LITTLE-style mix of efficient and performance cores.  None =
    # the paper's homogeneous machine.
    core_power_scales: Optional[Tuple[float, ...]] = None

    # GE scheduler ----------------------------------------------------------
    quantum: Seconds = 0.5  # seconds
    counter_threshold: int = 8  # queued requests
    critical_load_fraction: Dimensionless = 0.924  # × equal-share capacity (≈154 r/s)

    # Robustness: deterministic disturbance injection (repro.chaos).
    # None (the default) means an undisturbed run on the exact pre-chaos
    # code path; a schedule perturbs the run via seeded event-heap
    # injection and is content-addressed into the fingerprint.
    disturbances: Optional[DisturbanceSchedule] = None

    # Reproducibility ---------------------------------------------------------
    seed: int = 1

    def __post_init__(self) -> None:
        # Written so that NaN fails every check (all comparisons with
        # NaN are false).
        for name in ("arrival_rate", "horizon", "budget", "quantum"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite: {value!r}")
        if not self.m >= 1:
            raise ConfigurationError(f"m must be >= 1: {self.m!r}")
        if not 0.0 < self.q_ge <= 1.0:
            raise ConfigurationError(f"q_ge must be in (0, 1]: {self.q_ge!r}")
        if self.counter_threshold < 1:
            raise ConfigurationError("counter_threshold must be >= 1")
        if not 0.0 < self.critical_load_fraction:
            raise ConfigurationError("critical_load_fraction must be positive")
        if self.static_power_per_core < 0:
            raise ConfigurationError("static_power_per_core must be non-negative")
        if self.quality_shape not in ("exponential", "log", "power", "linear"):
            raise ConfigurationError(f"unknown quality_shape {self.quality_shape!r}")
        if self.core_power_scales is not None:
            if len(self.core_power_scales) != self.m:
                raise ConfigurationError(
                    f"core_power_scales has {len(self.core_power_scales)} entries "
                    f"for m={self.m} cores"
                )
            if any(s <= 0 for s in self.core_power_scales):
                raise ConfigurationError("core_power_scales entries must be positive")
        if self.disturbances is not None:
            self.disturbances.validate_for(m=self.m, horizon=self.horizon)

    # -- factories --------------------------------------------------------
    def with_overrides(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Short stable digest of every field of this configuration.

        Two configs share a fingerprint iff all their fields are equal,
        so an artifact stamped with the fingerprint (a trace header, a
        stored run) identifies the exact run setup without embedding
        the whole config.  The digest is the first 12 hex chars of the
        SHA-256 of the canonical (sorted-key, repr-exact) JSON of the
        dataclass fields.

        A ``disturbances`` schedule is part of the payload — two runs
        differing only in their chaos schedule must never be conflated
        by the run store or fleet rollups — but the key is dropped
        entirely when no schedule is set, so every pre-chaos fingerprint
        is preserved verbatim.
        """
        import hashlib
        import json
        from dataclasses import asdict

        fields = asdict(self)
        if fields.get("disturbances") is None:
            del fields["disturbances"]
        payload = json.dumps(fields, sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def power_model(self) -> PowerModel:
        """The speed→power model of this configuration."""
        return PowerModel(
            a=self.power_a,
            beta=self.power_beta,
            units_per_ghz_second=self.units_per_ghz_second,
        )

    def core_models(self) -> Tuple[PowerModel, ...]:
        """Per-core power models (all identical unless heterogeneous)."""
        base = self.power_model()
        if self.core_power_scales is None:
            return tuple(base for _ in range(self.m))
        return tuple(
            PowerModel(
                a=self.power_a * s,
                beta=self.power_beta,
                units_per_ghz_second=self.units_per_ghz_second,
            )
            for s in self.core_power_scales
        )

    def speed_scale(self, model: Optional[PowerModel] = None) -> SpeedScale:
        """Continuous or discrete speed scale per ``discrete_levels``."""
        model = model or self.power_model()
        if self.discrete_levels is None:
            top = self.top_speed if self.top_speed is not None else float("inf")
            return ContinuousSpeedScale(model, top_speed=top)
        if self.top_speed is not None:
            levels = tuple(v for v in self.discrete_levels if v <= self.top_speed)
            return DiscreteSpeedScale(model, levels=levels)
        return DiscreteSpeedScale(model, levels=self.discrete_levels)

    def quality_function(self) -> QualityFunction:
        """The quality function of this configuration.

        "exponential" is the paper's Eq. (1) with this config's
        concavity and x_max; the alternative concave shapes model other
        error-tolerant applications (the paper's future-work direction).
        For shapes without a ``c`` parameter, ``quality_c`` is reused as
        the shape parameter where one exists.
        """
        from repro.quality.functions import LinearQuality, LogQuality, PowerQuality

        if self.quality_shape == "exponential":
            return ExponentialQuality(c=self.quality_c, x_max=self.demand_max)
        if self.quality_shape == "log":
            return LogQuality(k=self.quality_c, x_max=self.demand_max)
        if self.quality_shape == "power":
            gamma = min(1.0, max(self.quality_c, 1e-6))
            return PowerQuality(gamma=gamma, x_max=self.demand_max)
        if self.quality_shape == "linear":
            return LinearQuality(x_max=self.demand_max)
        raise ConfigurationError(f"unknown quality_shape {self.quality_shape!r}")

    def demand_distribution(self) -> BoundedPareto:
        """Bounded-Pareto service demand distribution."""
        return BoundedPareto(
            alpha=self.demand_alpha, x_min=self.demand_min, x_max=self.demand_max
        )

    def deadline_window(self) -> UniformDeadlineWindow:
        """Response-window distribution."""
        return UniformDeadlineWindow(low=self.window_low, high=self.window_high)

    def workload(self) -> PoissonWorkloadGenerator:
        """The arrival process for this configuration (seeded).

        Arrival-burst and mis-estimation disturbances modulate the
        generator (superposed Poisson streams / demand inflation
        windows); with no schedule the generator is parameterized
        exactly as before, drawing the identical arrival sequence.
        """
        sched = self.disturbances
        return PoissonWorkloadGenerator(
            self.arrival_rate,
            demand=self.demand_distribution(),
            window=self.deadline_window(),
            horizon=self.horizon,
            streams=RandomStreams(seed=self.seed),
            rate_bursts=sched.burst_windows() if sched is not None else (),
            demand_inflations=sched.misestimate_windows() if sched is not None else (),
        )

    # -- derived operating points ---------------------------------------------
    def equal_share_speed(self) -> Gigahertz:
        """Per-core speed at an equal budget split (GHz); 2.0 at defaults."""
        model = self.power_model()
        return self.speed_scale(model).max_speed_at_power(self.budget / self.m)

    def equal_share_capacity(self) -> Speed:
        """Server throughput at equal split (units/s); 32 000 at defaults."""
        model = self.power_model()
        return self.m * model.throughput(self.equal_share_speed())

    def saturation_rate(self) -> PerSecond:
        """Arrival rate (r/s) at which mean offered demand equals the
        equal-share capacity; ≈166.7 at defaults."""
        return self.equal_share_capacity() / self.demand_distribution().mean

    def critical_load_rate(self) -> PerSecond:
        """Arrival rate of the light/heavy switch; 154 r/s at defaults."""
        return self.critical_load_fraction * self.saturation_rate()


#: The exact configuration of §IV-B.
PAPER_DEFAULTS = SimulationConfig()
