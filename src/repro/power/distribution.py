"""Power distribution among cores (paper §III-D).

A *power distribution policy* divides the server's dynamic power budget
``H`` into per-core power **caps**.  A cap limits how fast the core may
run; the core only draws the power its actual speed requires, so unused
headroom costs nothing.

* **Equal-Sharing (ES)** gives every core ``H/m``.  Under light load
  this keeps core speeds close together and prevents the core-speed
  thrashing that the AES↔BQ compensation switching would otherwise
  cause (the convex power curve penalizes speed variance).
* **Water-Filling (WF)** [Du et al., IPDPS'13] satisfies small power
  demands first: every core receives ``min(demand, level)`` where the
  water ``level`` is chosen so allocations sum to the budget.  Under
  heavy load this funnels spare power to overloaded cores and improves
  quality.

The paper's hybrid — ES below the *critical load*, WF above it — is
the GE scheduler's branch choice (:meth:`repro.core.ge.GEScheduler._policy_for`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import InfeasibleError
from repro.units import PowerBudget, WattsArray

__all__ = [
    "DistributionDecision",
    "EqualSharing",
    "PowerDistributionPolicy",
    "WaterFilling",
    "water_fill",
]


def water_fill(demands: WattsArray, budget: PowerBudget) -> WattsArray:
    """Water-filling allocation of ``budget`` across ``demands``.

    Each entry receives ``min(demand, level)``; if the total demand fits
    within the budget every demand is fully satisfied (the surplus is
    left unallocated — drawing it would waste energy).  Otherwise the
    common ``level`` is the water line at which the budget is exactly
    exhausted.

    Runs in O(n log n) via a sorted prefix scan; the level itself is the
    closed form ``(budget − Σ_{i<k} d_i) / (n − k)`` of the first sort
    position ``k`` whose candidate falls inside its bracket, evaluated
    for every position at once.

    The scarce branch guarantees ``Σ caps ≤ budget`` exactly: the
    closed-form level exhausts the budget only up to float rounding, so
    any accumulated excess (observed up to ~7e-13 on 16 cores) is
    subtracted from the largest allocation.
    """
    demands = np.asarray(demands, dtype=float)
    if budget < 0:
        raise InfeasibleError(f"negative power budget {budget!r}")
    if np.any(demands < 0):
        raise ValueError("power demands must be non-negative")
    if demands.size == 0:
        return demands.copy()
    total = float(np.sum(demands))
    if total <= budget:
        return demands.copy()

    # Find the water level L with sum(min(d_i, L)) == budget: with the
    # k smallest demands fully satisfied and the rest capped at
    # L >= sorted_d[k-1], solve prefix[k-1] + (n-k)L = budget.  The
    # candidate levels for every k come from one vectorized expression;
    # the valid k is the first whose candidate sits inside its bracket.
    order = np.argsort(demands, kind="stable")
    sorted_d = demands[order]
    prefix = np.cumsum(sorted_d)
    n = demands.size
    below = np.concatenate([[0.0], prefix[:-1]])
    lo_bounds = np.concatenate([[0.0], sorted_d[:-1]])
    candidates = (budget - below) / (n - np.arange(n))
    valid = (lo_bounds - 1e-12 <= candidates) & (candidates <= sorted_d + 1e-12)
    if np.any(valid):
        level = float(candidates[int(np.argmax(valid))])
    else:  # pragma: no cover - unreachable given total > budget
        level = budget / n
    caps = np.minimum(demands, level)
    # Rounding in the level can overshoot the budget by a few ulps;
    # charge the excess to the largest allocation so the cap-sum
    # invariant (Σ caps ≤ budget) holds exactly.
    _renormalize_caps(caps, budget)
    return caps


def _renormalize_caps(caps: WattsArray, budget: PowerBudget) -> None:
    """Shave ulp overshoot off the largest cap until ``Σ caps ≤ budget``.

    A single subtraction is not always enough: ``caps[top] - excess``
    itself rounds, so the new sum can still sit one ulp over budget
    (found by the hypothesis case in tests/power/test_distribution.py).
    The loop forces at least one-ulp progress per step and terminates
    after a handful of iterations at most.
    """
    excess = float(np.sum(caps)) - budget
    while excess > 0.0:
        top = int(np.argmax(caps))
        reduced = caps[top] - excess
        if reduced == caps[top]:  # excess below the cap's ulp: step down
            reduced = np.nextafter(caps[top], -np.inf)
        caps[top] = reduced
        excess = float(np.sum(caps)) - budget


@dataclass(frozen=True)
class DistributionDecision:
    """Result of a power-distribution step.

    Attributes
    ----------
    caps:
        Per-core power caps (W); ``caps.sum() <= budget`` always holds
        for WF (the allocator renormalizes float drift away), and
        ``caps`` may sum to exactly the budget for ES.  ES returns a
        *cached* decision when its inputs repeat, so callers must treat
        ``caps`` as read-only.
    policy:
        Short name of the policy that produced the caps ("ES"/"WF").
    """

    caps: WattsArray
    policy: str


class PowerDistributionPolicy(ABC):
    """Strategy interface: demands + budget → per-core power caps."""

    name: str = "?"
    #: Whether :meth:`distribute` reads the demand values at all.  ES
    #: only uses their count, so the scheduler can skip computing the
    #: per-core power demands entirely on the light-load branch.
    needs_demands: bool = True

    @abstractmethod
    def distribute(self, demands: WattsArray, budget: PowerBudget) -> DistributionDecision:
        """Return per-core power caps for the given per-core demands."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class EqualSharing(PowerDistributionPolicy):
    """ES: every core is capped at ``budget / m`` regardless of demand.

    The decision depends only on ``(m, budget)``, so consecutive calls
    with the same shape and budget return one cached decision object.
    """

    name = "ES"
    needs_demands = False

    def __init__(self) -> None:
        self._cache: tuple[int, float, DistributionDecision] | None = None

    def distribute(self, demands: WattsArray, budget: PowerBudget) -> DistributionDecision:
        demands = np.asarray(demands, dtype=float)
        if budget < 0:
            raise InfeasibleError(f"negative power budget {budget!r}")
        if demands.size == 0:
            return DistributionDecision(caps=demands.copy(), policy=self.name)
        cached = self._cache
        if cached is not None and cached[0] == demands.size and cached[1] == budget:
            return cached[2]
        caps = np.full(demands.shape, budget / demands.size)
        decision = DistributionDecision(caps=caps, policy=self.name)
        self._cache = (demands.size, budget, decision)
        return decision


class WaterFilling(PowerDistributionPolicy):
    """WF: satisfy low demands first, pool the rest for loaded cores.

    When total demand exceeds the budget, demands are capped at the
    water level.  When it does not, surplus budget is granted as *extra
    headroom* spread equally — matching the policy's role in BE-style
    schedulers where a core may later need to exceed its estimate.  In
    both branches the caps are renormalized so their sum never exceeds
    the budget by float rounding.
    """

    name = "WF"

    def distribute(self, demands: WattsArray, budget: PowerBudget) -> DistributionDecision:
        base = water_fill(demands, budget)
        if base.size:
            surplus = budget - float(np.sum(base))
            if surplus > 1e-12:
                base = base + surplus / base.size
                # The equal spread can re-introduce a few ulps of
                # overshoot; charge them to the largest cap so
                # Σ caps ≤ budget stays exact.
                _renormalize_caps(base, budget)
        return DistributionDecision(caps=base, policy=self.name)
