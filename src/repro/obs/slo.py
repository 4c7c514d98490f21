"""Online SLO monitors: the paper's invariants, checked during the run.

The GE scheduler's contract is operational, not retrospective: keep
aggregate quality at or above ``Q_GE`` while total power stays inside
the budget ``H``.  :class:`SLOTracker` evaluates that contract *while
the simulation runs*, from the same record streams the tracer already
emits — no trace buffering, no post-hoc pass — as four fixed
objectives, in summary order:

* ``quality_floor`` — fraction of decided time with monitor quality at
  or above ``meta["q_ge"]`` (piecewise-constant between rounds, left
  value);
* ``power_budget`` — per-sample headroom ``H − ΣP(t)`` against
  ``meta["budget"]``, with constant-memory P² percentiles and a
  compliant-sample fraction;
* ``deadline_miss`` — expired + dropped jobs as a fraction of settled
  jobs, at most :data:`MAX_MISS_RATE`;
* ``bq_dwell`` — fraction of decided time spent in BQ (compensation)
  mode, at most :data:`MAX_BQ_DWELL`.

The first two are armed only when the run metadata holds ``q_ge`` /
``budget`` (unbudgeted baselines leave them out).  Each objective
records its first violation once, at the first observation that
breaches it, and :meth:`SLOTracker.summary` renders a machine-readable
compliance summary (with each first violation's time, value and
threshold) that lands in the trace metadata under ``meta["slo"]``.

Everything here is a pure fold over the observation sequence — no wall
clock, no randomness — so an offline replay of the exported JSONL
reproduces the online summary bit-for-bit (pinned by
``tests/obs/test_slo.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.registry import MetricsRegistry, QuantileSketch
from repro.units import QualityFrac, Seconds, Watts

__all__ = ["SLOTracker"]

#: Schema tag for the compliance summary (``meta["slo"]["schema"]``).
SLO_SCHEMA = "repro.slo/1"

#: Each objective's description, in summary order (the HTML SLO table
#: iterates ``meta["slo"]["slos"]``).
DESCRIPTIONS: Dict[str, str] = {
    "quality_floor": "aggregate quality stays at or above Q_GE",
    "power_budget": "total dynamic power stays within the budget H",
    "deadline_miss": "expired+dropped jobs stay under 10% of settled",
    "bq_dwell": "BQ (compensation) mode holds under 50% of decided time",
}

#: Maximum fraction of settled jobs that expire or are dropped.
MAX_MISS_RATE = 0.1

#: Maximum fraction of decided time spent in BQ mode.
MAX_BQ_DWELL = 0.5

#: The rate objectives (``deadline_miss``, ``bq_dwell``) fire only once
#: this many settled jobs / decision rounds have been folded, so the
#: first unlucky job of a run does not trip them.
RATE_MIN_SAMPLES = 20

#: Job outcomes that count as a deadline miss.
_MISS_OUTCOMES = frozenset({"expired", "dropped"})

#: Relative tolerance on the power budget: overshoots smaller than
#: ``eps * max(1, H)`` are float noise from the water-filling planner,
#: not violations (mirrors the runtime sanitizer's tolerance).
_REL_EPS = 1e-6


class SLOTracker:
    """Folds decision / sample / settle streams into SLO compliance.

    One instance per run, armed from the run metadata: ``q_ge`` and
    ``budget`` (each optional) set the quality floor and the power
    budget, and the headroom sketch ``slo.power_headroom_w`` is
    registered in ``registry`` when a budget is armed.  Entry points
    mirror the trace streams (:meth:`on_decision`, :meth:`on_power`,
    :meth:`on_settle`); call :meth:`finish` once at run end to close the
    time-weighted accumulators, then :meth:`summary` for the
    machine-readable result.

    The fold is deterministic: state depends only on the observation
    sequence, never on wall time, so online evaluation during a run and
    offline replay of its exported trace agree exactly.
    """

    def __init__(self, meta: Dict[str, Any], registry: MetricsRegistry) -> None:
        q_ge = meta.get("q_ge")
        budget = meta.get("budget")
        # Quality floor Q_GE and power budget H (None: not armed).
        self._q_ge = None if q_ge is None else float(q_ge)
        self._budget = None if budget is None else float(budget)
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
        if self._budget is not None:
            self._headroom = registry.quantiles("slo.power_headroom_w")
        # Settle-stream state (deadline_miss).
        self._settled = 0
        self._missed = 0

    def _violate(self, name: str, threshold: float, time: Seconds, value: float) -> None:
        if name in self._violations:
            return
        self._violations[name] = {
            "time": float(time),
            "value": float(value),
            "threshold": threshold,
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
        if self._q_ge is not None and quality < self._q_ge:
            self._violate("quality_floor", self._q_ge, time, quality)
        if self._decisions >= RATE_MIN_SAMPLES and self._decided > 0.0:
            fraction = self._bq_time / self._decided
            if fraction > MAX_BQ_DWELL:
                self._violate("bq_dwell", MAX_BQ_DWELL, time, fraction)

    def _accumulate(self, until: Seconds) -> None:
        assert self._last_time is not None
        dt = float(until) - self._last_time
        if dt <= 0.0:
            return
        self._decided += dt
        if self._q_ge is None or self._last_quality >= self._q_ge:
            self._quality_ok += dt
        if self._last_mode == "bq":
            self._bq_time += dt

    def on_power(self, time: Seconds, total_power: Watts) -> None:
        """Fold one quantum boundary's total power draw (all cores)."""
        budget = self._budget
        if budget is None:
            return
        headroom = budget - float(total_power)
        assert self._headroom is not None
        self._headroom.observe(headroom)
        self._power_samples += 1
        eps = _REL_EPS * max(1.0, abs(budget))
        if headroom >= -eps:
            self._power_ok += 1
        else:
            self._violate("power_budget", budget, time, float(total_power))

    def on_settle(self, time: Seconds, *, outcome: str) -> None:
        """Fold one settled job (``settle`` event)."""
        self._settled += 1
        if outcome in _MISS_OUTCOMES:
            self._missed += 1
        if self._settled >= RATE_MIN_SAMPLES:
            rate = self._missed / self._settled
            if rate > MAX_MISS_RATE:
                self._violate("deadline_miss", MAX_MISS_RATE, time, rate)

    def finish(self, end: Seconds) -> None:
        """Close the time-weighted accumulators at simulated ``end``."""
        if self._finished:
            return
        self._finished = True
        if self._last_time is not None:
            self._accumulate(end)
            if self._decided > 0.0:
                fraction = self._bq_time / self._decided
                if fraction > MAX_BQ_DWELL:
                    self._violate("bq_dwell", MAX_BQ_DWELL, end, fraction)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def _row(
        self,
        name: str,
        threshold: float,
        min_samples: int,
        compliance: Optional[float],
        observed: Dict[str, Any],
    ) -> Dict[str, Any]:
        violation = self._violations.get(name)
        return {
            "kind": name,
            "threshold": threshold,
            "min_samples": min_samples,
            "description": DESCRIPTIONS[name],
            "compliant": violation is None,
            "compliance": compliance,
            "no_data": compliance is None,
            "first_violation": dict(violation) if violation is not None else None,
            "observed": observed,
        }

    def summary(self) -> Dict[str, Any]:
        """Machine-readable compliance summary (JSON-native).

        ``slos`` maps each armed objective to its record: threshold,
        ``min_samples`` and description, a ``compliant`` verdict (no
        violation fired; vacuous on ``no_data``), an objective-specific
        ``compliance`` fraction (e.g. fraction of decided time at or
        above the quality floor) and an ``observed`` detail block.  The
        top level carries the overall verdict and the violation count.
        """
        slos: Dict[str, Any] = {}
        decided = self._decided
        if self._q_ge is not None:
            if decided <= 0.0:
                slos["quality_floor"] = self._row(
                    "quality_floor", self._q_ge, 0, None, {"decided_time_s": 0.0}
                )
            else:
                slos["quality_floor"] = self._row(
                    "quality_floor", self._q_ge, 0, self._quality_ok / decided,
                    {"decided_time_s": decided, "ok_time_s": self._quality_ok},
                )
        if self._budget is not None:
            samples = self._power_samples
            if samples == 0:
                slos["power_budget"] = self._row(
                    "power_budget", self._budget, 0, None, {"samples": 0}
                )
            else:
                sketch = self._headroom
                assert sketch is not None
                observed: Dict[str, Any] = {
                    "samples": samples,
                    "headroom_min_w": sketch.min,
                    "headroom_max_w": sketch.max,
                }
                for label, value in sketch.estimates().items():
                    observed[f"headroom_{label}_w"] = value
                slos["power_budget"] = self._row(
                    "power_budget", self._budget, 0, self._power_ok / samples, observed
                )
        settled = self._settled
        if settled == 0:
            slos["deadline_miss"] = self._row(
                "deadline_miss", MAX_MISS_RATE, RATE_MIN_SAMPLES, None,
                {"settled": 0, "missed": 0},
            )
        else:
            rate = self._missed / settled
            slos["deadline_miss"] = self._row(
                "deadline_miss", MAX_MISS_RATE, RATE_MIN_SAMPLES, 1.0 - rate,
                {"settled": settled, "missed": self._missed, "miss_rate": rate},
            )
        if decided <= 0.0:
            slos["bq_dwell"] = self._row(
                "bq_dwell", MAX_BQ_DWELL, RATE_MIN_SAMPLES, None,
                {"decided_time_s": 0.0},
            )
        else:
            fraction = self._bq_time / decided
            slos["bq_dwell"] = self._row(
                "bq_dwell", MAX_BQ_DWELL, RATE_MIN_SAMPLES, 1.0 - fraction,
                {"decided_time_s": decided, "bq_time_s": self._bq_time,
                 "bq_fraction": fraction},
            )
        return {
            "schema": SLO_SCHEMA,
            "compliant": not self._violations,
            "violations": len(self._violations),
            "slos": slos,
        }
