"""Speed scaling models: continuous and discrete DVFS.

The main experiments use *continuous* per-core DVFS (any non-negative
speed).  §IV-A-5/Fig. 12 studies *discrete* speed scaling: cores only
run at levels from a fixed ladder.  A core's power cap maps down to a
level (:meth:`SpeedScale.max_speed_at_power`), and the planner rounds
each YDS step **up** to the nearest level (:meth:`SpeedScale.ceil`)
without exceeding that cap.

:class:`SpeedScale` is the shared interface; the server's executor only
calls :meth:`quantize` and :meth:`max_speed_at_power`, so schedulers
are agnostic to which model is active.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.power.models import PowerModel
from repro.units import Gigahertz, GigahertzSeq, Watts

__all__ = ["SpeedScale", "ContinuousSpeedScale", "DiscreteSpeedScale"]


class SpeedScale(ABC):
    """Which speeds a core may run at, given the power model."""

    #: Whether speeds are restricted to a finite ladder, so the planner
    #: rounds each staircase step up with :meth:`ceil` (a class constant:
    #: an attribute read is cheaper than an ABC ``isinstance`` per plan).
    discrete: bool = False

    def __init__(self, model: PowerModel) -> None:
        self.model = model

    @abstractmethod
    def quantize(self, speed: Gigahertz) -> Gigahertz:
        """Largest *allowed* speed ≤ ``speed`` (0 is always allowed)."""

    @abstractmethod
    def ceil(self, speed: Gigahertz) -> Gigahertz:
        """Smallest allowed speed ≥ ``speed`` (or the max level)."""

    @abstractmethod
    def max_speed_at_power(self, power: Watts) -> Gigahertz:
        """Largest allowed speed whose power draw is ≤ ``power``."""

    @property
    @abstractmethod
    def top_speed(self) -> Gigahertz:
        """The largest representable speed (may be ``inf``)."""


class ContinuousSpeedScale(SpeedScale):
    """Idealized continuous DVFS: any speed in [0, top] is allowed."""

    def __init__(self, model: PowerModel, top_speed: Gigahertz = math.inf) -> None:
        super().__init__(model)
        if top_speed <= 0:
            raise ConfigurationError(f"top_speed must be positive, got {top_speed!r}")
        self._top = float(top_speed)

    def quantize(self, speed: Gigahertz) -> Gigahertz:
        if speed < 0:
            raise ValueError("speed must be non-negative")
        return min(speed, self._top)

    def ceil(self, speed: Gigahertz) -> Gigahertz:
        if speed < 0:
            raise ValueError("speed must be non-negative")
        return min(speed, self._top)

    def max_speed_at_power(self, power: Watts) -> Gigahertz:
        return min(self.model.speed(power), self._top)

    @property
    def top_speed(self) -> Gigahertz:
        return self._top


class DiscreteSpeedScale(SpeedScale):
    """DVFS restricted to a finite ascending ladder of speed levels.

    Parameters
    ----------
    model:
        The power model (used for power↔speed conversions).
    levels:
        Allowed speeds in GHz.  0 is implicitly allowed (idle).  The
        paper does not publish its ladder; the default 0.25 GHz steps
        up to 3 GHz bracket the 2 GHz average speed of the setup.
    """

    discrete = True

    def __init__(
        self,
        model: PowerModel,
        levels: GigahertzSeq | None = None,
    ) -> None:
        super().__init__(model)
        if levels is None:
            levels = np.arange(0.25, 3.0 + 1e-9, 0.25)
        arr = np.asarray(sorted(set(float(v) for v in levels)), dtype=float)
        if arr.size == 0:
            raise ConfigurationError("discrete ladder needs at least one level")
        if np.any(arr <= 0):
            raise ConfigurationError("ladder levels must be positive (0 = idle is implicit)")
        self.levels = arr

    def quantize(self, speed: Gigahertz) -> Gigahertz:
        """Largest level ≤ ``speed``, or 0 if below the lowest level."""
        if speed < 0:
            raise ValueError("speed must be non-negative")
        idx = int(np.searchsorted(self.levels, speed + 1e-12, side="right")) - 1
        return 0.0 if idx < 0 else float(self.levels[idx])

    def ceil(self, speed: Gigahertz) -> Gigahertz:
        """Smallest level ≥ ``speed`` (top level if beyond the ladder)."""
        if speed < 0:
            raise ValueError("speed must be non-negative")
        if speed == 0:
            return 0.0
        idx = int(np.searchsorted(self.levels, speed - 1e-12, side="left"))
        idx = min(idx, self.levels.size - 1)
        return float(self.levels[idx])

    def max_speed_at_power(self, power: Watts) -> Gigahertz:
        return self.quantize(self.model.speed(power))

    @property
    def top_speed(self) -> Gigahertz:
        return float(self.levels[-1])

