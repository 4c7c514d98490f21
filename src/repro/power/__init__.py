"""Power modelling: dynamic power, DVFS speed scaling, budget division.

* :mod:`repro.power.models` — the convex dynamic-power model
  ``P = a·s^β`` of §II-B with its inverse, and energy helpers.
* :mod:`repro.power.dvfs` — continuous and discrete speed scaling
  (speed ladders and the rounding of the paper's §IV-A-5 rectification).
* :mod:`repro.power.distribution` — the Equal-Sharing and
  Water-Filling policies of §III-D (GE switches between them).
"""

from repro.power.distribution import (
    DistributionDecision,
    EqualSharing,
    PowerDistributionPolicy,
    WaterFilling,
    water_fill,
)
from repro.power.dvfs import ContinuousSpeedScale, DiscreteSpeedScale, SpeedScale
from repro.power.models import PowerModel

__all__ = [
    "ContinuousSpeedScale",
    "DiscreteSpeedScale",
    "DistributionDecision",
    "EqualSharing",
    "PowerDistributionPolicy",
    "PowerModel",
    "SpeedScale",
    "WaterFilling",
    "water_fill",
]
