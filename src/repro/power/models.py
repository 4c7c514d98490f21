"""The dynamic power model (paper §II-B).

Each core's dynamic power is the convex function ``P(s) = a·s^β`` of
its speed ``s`` (GHz), with ``a > 0`` and ``β > 1`` [Yao et al. '95;
Bansal et al. '07].  The paper's experiments use ``a = 5, β = 2`` so a
core at 2 GHz draws 20 W.  Static power is a common constant offset and
is deliberately excluded (§IV-B).

Speeds map to throughput via ``units_per_ghz_second``: the paper
defines the capacity of a 1 GHz core as 1000 processing units/second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.units import (
    Gigahertz,
    GigahertzLike,
    Joules,
    Seconds,
    SpeedLike,
    UnitsPerGhzSecond,
    WattsLike,
)

__all__ = ["PowerModel"]

ArrayOrFloat = Union[float, np.ndarray]


@dataclass(frozen=True)
class PowerModel:
    """Convex speed→power map ``P(s) = a·s^β`` with its inverse.

    Parameters
    ----------
    a:
        Scaling factor (W per GHz^β).  Paper default: 5.
    beta:
        Convexity exponent (> 1).  Paper default: 2.
    units_per_ghz_second:
        Throughput of a 1 GHz core in processing units per second.
        Paper default: 1000.
    """

    a: float = 5.0
    beta: float = 2.0
    units_per_ghz_second: UnitsPerGhzSecond = 1000.0

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ConfigurationError(f"power scale a must be positive, got {self.a!r}")
        if self.beta <= 1:
            raise ConfigurationError(f"beta must exceed 1 for convexity, got {self.beta!r}")
        if self.units_per_ghz_second <= 0:
            raise ConfigurationError("units_per_ghz_second must be positive")

    # -- speed <-> power ---------------------------------------------------
    # A Python float takes a scalar path only where it returns the bits
    # the NumPy path returns; numpy's vectorized ``**`` and C's libm
    # ``pow`` differ by an ulp on a few percent of inputs, so which one
    # the NumPy path hits decides what the float path may compute:
    #
    # * ``speed``: the division ``arr / a`` of a 0-d array demotes to
    #   ``np.float64``, whose ``**`` is libm ``pow`` — exactly Python's
    #   float ``**``, for every β.  ``math.sqrt`` is no stand-in for
    #   ``** 0.5``: the two differ on about 0.1% of inputs.
    # * ``power``: ``arr ** beta`` stays a 0-d ufunc call.  NumPy
    #   evaluates ``** 2.0`` as ``np.square`` (its fast scalar-power
    #   path), i.e. one correctly rounded ``s * s``; any other β keeps
    #   the vectorized ``pow`` and therefore the NumPy path.
    #
    # ``np.float64`` values, ints and arrays always take the NumPy path.
    # The mul/div-only methods below take scalar fast paths for floats
    # and ints: IEEE ``*`` and ``/`` are correctly rounded in every
    # implementation.  Every path is pinned bitwise against the array
    # path in tests/power/test_models.py.
    def power(self, speed: GigahertzLike) -> WattsLike:
        """Dynamic power (W) at ``speed`` (GHz)."""
        # Exactly NumPy's own test for its square fast path.
        if type(speed) is float and self.beta == 2.0:  # simlint: ignore[SIM003]
            if speed < 0:
                raise ValueError("speed must be non-negative")
            return self.a * (speed * speed)
        arr = np.asarray(speed, dtype=float)
        if np.any(arr < 0):
            raise ValueError("speed must be non-negative")
        out = self.a * arr**self.beta
        return float(out) if np.isscalar(speed) or arr.ndim == 0 else out

    def speed(self, power: WattsLike) -> GigahertzLike:
        """Highest speed (GHz) sustainable at ``power`` (W): inverse of P."""
        if type(power) is float:
            if power < 0:
                raise ValueError("power must be non-negative")
            return (power / self.a) ** (1.0 / self.beta)
        arr = np.asarray(power, dtype=float)
        if np.any(arr < 0):
            raise ValueError("power must be non-negative")
        out = (arr / self.a) ** (1.0 / self.beta)
        return float(out) if np.isscalar(power) or arr.ndim == 0 else out

    # -- speed <-> throughput ----------------------------------------------
    def throughput(self, speed: GigahertzLike) -> SpeedLike:
        """Processing units per second at ``speed`` (GHz)."""
        if type(speed) is float or type(speed) is int:
            return float(speed) * self.units_per_ghz_second
        arr = np.asarray(speed, dtype=float)
        out = arr * self.units_per_ghz_second
        return float(out) if np.isscalar(speed) or arr.ndim == 0 else out

    def speed_for_throughput(self, units_per_second: SpeedLike) -> GigahertzLike:
        """Speed (GHz) needed to process ``units_per_second``."""
        if type(units_per_second) is float or type(units_per_second) is int:
            return float(units_per_second) / self.units_per_ghz_second
        arr = np.asarray(units_per_second, dtype=float)
        out = arr / self.units_per_ghz_second
        return float(out) if np.isscalar(units_per_second) or arr.ndim == 0 else out

    # -- derived quantities --------------------------------------------------
    def energy(self, speed: Gigahertz, duration: Seconds) -> Joules:
        """Energy (J) of running at ``speed`` GHz for ``duration`` s."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration!r}")
        return self.power(speed) * duration

