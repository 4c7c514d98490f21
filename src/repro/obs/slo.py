"""Online SLO monitors: the paper's invariants, checked during the run.

The GE scheduler's contract is operational, not retrospective: keep
aggregate quality at or above ``Q_GE`` while total power stays inside
the budget ``H``.  These monitors evaluate that contract *while the
simulation runs*, from the same record streams the tracer already
emits — no trace buffering, no post-hoc pass:

* ``quality_floor`` — fraction of decided time with monitor quality at
  or above the floor (piecewise-constant between rounds, left value);
* ``power_budget`` — per-sample headroom ``H − ΣP(t)`` with
  constant-memory P² percentiles and a compliant-sample fraction;
* ``deadline_miss`` — expired + dropped jobs as a fraction of settled
  jobs, against a maximum rate;
* ``bq_dwell`` — fraction of decided time spent in BQ (compensation)
  mode, against a maximum dwell.

Each spec records its first violation once, at the first observation
that breaches it, and :meth:`SLOTracker.summary` renders a
machine-readable compliance summary (with each first violation's time,
value and threshold) that lands in the trace metadata under
``meta["slo"]``.

Everything here is a pure fold over the observation sequence — no wall
clock, no randomness — so an offline replay of the exported JSONL
reproduces the online summary bit-for-bit (pinned by
``tests/obs/test_slo.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry, QuantileSketch
from repro.units import QualityFrac, Seconds, Watts

__all__ = [
    "SLO_KINDS",
    "SLOSpec",
    "SLOTracker",
    "default_slos",
]

#: Schema tag for the compliance summary (``meta["slo"]["schema"]``).
SLO_SCHEMA = "repro.slo/1"

#: The monitor kinds :class:`SLOTracker` can evaluate.
SLO_KINDS: Tuple[str, ...] = (
    "quality_floor", "power_budget", "deadline_miss", "bq_dwell",
)

#: Job outcomes that count as a deadline miss.
_MISS_OUTCOMES = frozenset({"expired", "dropped"})

#: Relative tolerance on the power budget: overshoots smaller than
#: ``eps * max(1, H)`` are float noise from the water-filling planner,
#: not violations (mirrors the runtime sanitizer's tolerance).
_REL_EPS = 1e-6

@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    Attributes
    ----------
    name:
        Unique key in the compliance summary.
    kind:
        One of :data:`SLO_KINDS`; selects the evaluation rule.
    threshold:
        The bound: quality floor (``>=``), power budget in watts
        (``<=``), maximum miss rate (``<=``) or maximum BQ dwell
        fraction (``<=``).
    min_samples:
        Rate-style monitors (``deadline_miss``, ``bq_dwell``) only
        report a violation once this many observations (settled jobs /
        decision rounds) have been folded, so the first unlucky job of
        a run does not trip a rate SLO.
    description:
        Free-text note carried into the summary.
    """

    name: str
    kind: str
    threshold: float
    min_samples: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"SLO {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(SLO_KINDS)})"
            )
        if self.min_samples < 0:
            raise ValueError(f"SLO {self.name!r}: min_samples must be >= 0")

    def to_record(self) -> Dict[str, Any]:
        """JSON-native spec (embedded in the compliance summary)."""
        return {
            "kind": self.kind,
            "threshold": self.threshold,
            "min_samples": self.min_samples,
            "description": self.description,
        }


def default_slos(meta: Dict[str, Any]) -> List[SLOSpec]:
    """The paper's standard objectives, parameterized by run metadata.

    ``quality_floor`` comes from ``meta["q_ge"]`` and ``power_budget``
    from ``meta["budget"]`` (each omitted when absent or null, e.g.
    unbudgeted baselines).  ``deadline_miss`` (max 10 %) and
    ``bq_dwell`` (max 50 % of decided time) are always installed; on
    schedulers that emit no decisions they report ``no_data`` and count
    as vacuously compliant.
    """
    specs: List[SLOSpec] = []
    q_ge = meta.get("q_ge")
    if q_ge is not None:
        specs.append(SLOSpec(
            name="quality_floor", kind="quality_floor", threshold=float(q_ge),
            description="aggregate quality stays at or above Q_GE",
        ))
    budget = meta.get("budget")
    if budget is not None:
        specs.append(SLOSpec(
            name="power_budget", kind="power_budget", threshold=float(budget),
            description="total dynamic power stays within the budget H",
        ))
    specs.append(SLOSpec(
        name="deadline_miss", kind="deadline_miss", threshold=0.1,
        min_samples=20,
        description="expired+dropped jobs stay under 10% of settled",
    ))
    specs.append(SLOSpec(
        name="bq_dwell", kind="bq_dwell", threshold=0.5, min_samples=20,
        description="BQ (compensation) mode holds under 50% of decided time",
    ))
    return specs


class SLOTracker:
    """Folds decision / sample / settle streams into SLO compliance.

    One instance per run.  Entry points mirror the trace streams
    (:meth:`on_decision`, :meth:`on_power`, :meth:`on_settle`); call
    :meth:`finish` once at run end to close the time-weighted
    accumulators, then :meth:`summary` for the machine-readable result.

    The fold is deterministic: state depends only on the observation
    sequence, never on wall time, so online evaluation during a run and
    offline replay of its exported trace agree exactly.
    """

    def __init__(
        self,
        specs: List[SLOSpec],
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        seen: Dict[str, SLOSpec] = {}
        by_kind: Dict[str, SLOSpec] = {}
        for spec in specs:
            if spec.name in seen:
                raise ValueError(f"duplicate SLO name {spec.name!r}")
            if spec.kind in by_kind:
                raise ValueError(
                    f"SLOs {by_kind[spec.kind].name!r} and {spec.name!r} "
                    f"share kind {spec.kind!r} (one monitor per kind)"
                )
            seen[spec.name] = spec
            by_kind[spec.kind] = spec
        self.specs = list(specs)
        self._by_kind = by_kind
        self._violations: Dict[str, Dict[str, Any]] = {}
        self._finished = False
        # Decision-stream state (quality_floor + bq_dwell share it).
        self._decisions = 0
        self._last_time: Optional[float] = None
        self._last_quality = 0.0
        self._last_mode = ""
        self._decided = 0.0
        self._quality_ok = 0.0
        self._bq_time = 0.0
        # Sample-stream state (power_budget).
        self._power_samples = 0
        self._power_ok = 0
        self._headroom: Optional[QuantileSketch] = None
        if "power_budget" in by_kind:
            reg = registry if registry is not None else MetricsRegistry()
            self._headroom = reg.quantiles(
                "slo.power_headroom_w", qs=(0.5, 0.9, 0.99)
            )
        # Settle-stream state (deadline_miss).
        self._settled = 0
        self._missed = 0

    # ------------------------------------------------------------------
    # Violation bookkeeping
    # ------------------------------------------------------------------
    def _violate(self, spec: SLOSpec, time: Seconds, value: float) -> None:
        if spec.name in self._violations:
            return
        self._violations[spec.name] = {
            "time": float(time),
            "value": float(value),
            "threshold": spec.threshold,
        }

    # ------------------------------------------------------------------
    # Stream entry points
    # ------------------------------------------------------------------
    def on_decision(self, time: Seconds, *, mode: str, quality: QualityFrac) -> None:
        """Fold one scheduling round (``decision`` event)."""
        if self._last_time is not None:
            self._accumulate(time)
        self._decisions += 1
        self._last_time = float(time)
        self._last_quality = float(quality)
        self._last_mode = mode
        spec = self._by_kind.get("quality_floor")
        if spec is not None and quality < spec.threshold:
            self._violate(spec, time, quality)
        spec = self._by_kind.get("bq_dwell")
        if (
            spec is not None
            and self._decisions >= max(1, spec.min_samples)
            and self._decided > 0.0
        ):
            fraction = self._bq_time / self._decided
            if fraction > spec.threshold:
                self._violate(spec, time, fraction)

    def _accumulate(self, until: Seconds) -> None:
        assert self._last_time is not None
        dt = float(until) - self._last_time
        if dt <= 0.0:
            return
        self._decided += dt
        quality_spec = self._by_kind.get("quality_floor")
        if quality_spec is None or self._last_quality >= quality_spec.threshold:
            self._quality_ok += dt
        if self._last_mode == "bq":
            self._bq_time += dt

    def on_power(self, time: Seconds, total_power: Watts) -> None:
        """Fold one quantum boundary's total power draw (all cores)."""
        spec = self._by_kind.get("power_budget")
        if spec is None:
            return
        headroom = spec.threshold - float(total_power)
        assert self._headroom is not None
        self._headroom.observe(headroom)
        self._power_samples += 1
        eps = _REL_EPS * max(1.0, abs(spec.threshold))
        if headroom >= -eps:
            self._power_ok += 1
        else:
            self._violate(spec, time, float(total_power))

    def on_settle(self, time: Seconds, *, outcome: str) -> None:
        """Fold one settled job (``settle`` event)."""
        self._settled += 1
        if outcome in _MISS_OUTCOMES:
            self._missed += 1
        spec = self._by_kind.get("deadline_miss")
        if spec is not None and self._settled >= max(1, spec.min_samples):
            rate = self._missed / self._settled
            if rate > spec.threshold:
                self._violate(spec, time, rate)

    def finish(self, end: Seconds) -> None:
        """Close the time-weighted accumulators at simulated ``end``."""
        if self._finished:
            return
        self._finished = True
        if self._last_time is not None:
            self._accumulate(end)
            spec = self._by_kind.get("bq_dwell")
            if spec is not None and self._decided > 0.0:
                fraction = self._bq_time / self._decided
                if fraction > spec.threshold:
                    self._violate(spec, end, fraction)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def _observed(self, spec: SLOSpec) -> Tuple[Optional[float], Dict[str, Any], bool]:
        """(compliance, observed-detail, no_data) for one spec."""
        if spec.kind == "quality_floor":
            if self._decided <= 0.0:
                return None, {"decided_time_s": 0.0}, True
            return (
                self._quality_ok / self._decided,
                {"decided_time_s": self._decided, "ok_time_s": self._quality_ok},
                False,
            )
        if spec.kind == "power_budget":
            if self._power_samples == 0:
                return None, {"samples": 0}, True
            sketch = self._headroom
            assert sketch is not None
            detail: Dict[str, Any] = {
                "samples": self._power_samples,
                "headroom_min_w": sketch.min,
                "headroom_max_w": sketch.max,
            }
            for q in sketch.qs:
                detail[f"headroom_p{q * 100:g}_w"] = sketch.estimate(q)
            return self._power_ok / self._power_samples, detail, False
        if spec.kind == "deadline_miss":
            if self._settled == 0:
                return None, {"settled": 0, "missed": 0}, True
            rate = self._missed / self._settled
            return (
                1.0 - rate,
                {"settled": self._settled, "missed": self._missed,
                 "miss_rate": rate},
                False,
            )
        # bq_dwell
        if self._decided <= 0.0:
            return None, {"decided_time_s": 0.0}, True
        fraction = self._bq_time / self._decided
        return (
            1.0 - fraction,
            {"decided_time_s": self._decided, "bq_time_s": self._bq_time,
             "bq_fraction": fraction},
            False,
        )

    def summary(self) -> Dict[str, Any]:
        """Machine-readable compliance summary (JSON-native).

        ``slos`` maps each spec name to its record: the spec itself,
        a ``compliant`` verdict (no violation fired; vacuous on
        ``no_data``), a kind-specific ``compliance`` fraction (e.g.
        fraction of decided time at or above the quality floor) and an
        ``observed`` detail block.  The top level carries the overall
        verdict and the violation count.
        """
        slos: Dict[str, Any] = {}
        for spec in self.specs:
            compliance, observed, no_data = self._observed(spec)
            violation = self._violations.get(spec.name)
            slos[spec.name] = {
                **spec.to_record(),
                "compliant": violation is None,
                "compliance": compliance,
                "no_data": no_data,
                "first_violation": dict(violation) if violation is not None else None,
                "observed": observed,
            }
        return {
            "schema": SLO_SCHEMA,
            "compliant": not self._violations,
            "violations": len(self._violations),
            "slos": slos,
        }
