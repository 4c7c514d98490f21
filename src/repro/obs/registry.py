"""A small metrics registry: counters, gauges and histograms.

The tracer carries one :class:`MetricsRegistry`; instrumented code
requests named instruments lazily (``registry.counter("scheduler.rounds")``)
so the set of metrics is defined by what actually ran.  Instruments are
deliberately minimal — the registry is for *simulation* telemetry
(queue depth, batch size, cut fraction), not a general monitoring
system:

* :class:`Counter` — monotone count;
* :class:`Gauge` — last-written value;
* :class:`Histogram` — streaming count/sum/min/max plus fixed linear
  buckets over ``[0, bound)`` for cheap shape inspection (with explicit
  overflow/underflow counts for values outside the bucket range);
* :class:`QuantileSketch` — constant-memory P² percentile estimates
  (no buckets to size, no raw samples retained).

``snapshot()`` renders everything to JSON-native dicts for export.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "QuantileSketch",
]

#: Equal-width buckets of every :class:`Histogram` over ``[0, bound)``.
HISTOGRAM_BUCKETS = 10

#: The quantiles every :class:`QuantileSketch` tracks.
SKETCH_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount!r}")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native state."""
        return {"kind": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. current queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native state."""
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Streaming summary of observed values.

    Tracks count / sum / min / max exactly, plus
    :data:`HISTOGRAM_BUCKETS` equal-width buckets over ``[0, bound)``
    with an overflow bucket at the end.  The default bound of 1.0 suits
    ratios (cut fraction); pass a larger bound for sizes or latencies.

    Observations outside ``[0, bound)`` are still clamped into the edge
    buckets (so the bucket array always sums to ``count``), but they are
    *counted* explicitly: ``overflow`` is the number of observations at
    or above ``bound`` and ``underflow`` the number below zero.  Both
    appear in :meth:`snapshot`, so a mis-sized bound is visible from the
    artifact instead of silently flattening the distribution's tail.
    """

    __slots__ = (
        "name", "bound", "count", "total", "min", "max", "buckets",
        "overflow", "underflow",
    )

    def __init__(self, name: str, *, bound: float = 1.0) -> None:
        if bound <= 0:
            raise ValueError(f"histogram {name}: bound must be positive")
        self.name = name
        self.bound = float(bound)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: List[int] = [0] * (HISTOGRAM_BUCKETS + 1)  # last = overflow
        self.overflow = 0
        self.underflow = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value < 0:
            self.underflow += 1
            idx = 0
        else:
            idx = int(value / self.bound * HISTOGRAM_BUCKETS)
            if idx >= HISTOGRAM_BUCKETS:
                self.overflow += 1
        self.buckets[min(idx, HISTOGRAM_BUCKETS)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native state."""
        return {
            "kind": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "bound": self.bound,
            "buckets": list(self.buckets),
            "overflow": self.overflow,
            "underflow": self.underflow,
        }


class P2Quantile:
    """One quantile estimated online with the P² algorithm (Jain & Chlamtac).

    Five markers track the running estimate of the ``q``-quantile in
    O(1) memory and O(1) time per observation — no raw samples are
    retained and no bucket bound has to be guessed up front.  The
    estimate is exact for the first five observations and a
    piecewise-parabolic interpolation afterwards; the classic error
    bound is a few percent of the local inter-quantile spacing for
    smooth distributions (see ``docs/observability.md``).

    The update is a pure function of the observation *sequence*, so two
    folds of the same stream (e.g. online during a run and offline from
    the exported JSONL) produce bit-identical estimates.
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired", "_rate")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q!r}")
        self.q = float(q)
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rate = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        """Fold one observation into the estimate."""
        value = float(value)
        self.count += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        positions = self._positions
        # 1. Find the cell and update the extreme markers.
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while k < 3 and value >= heights[k + 1]:
                k += 1
        # 2. Shift marker positions right of the cell.
        for i in range(k + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._rate[i]
        # 3. Adjust the three interior markers toward their desired
        #    positions with parabolic (falling back to linear)
        #    interpolation.
        for i in range(1, 4):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    @property
    def value(self) -> Optional[float]:
        """Current estimate (exact below five observations; None empty)."""
        heights = self._heights
        if not heights:
            return None
        if len(heights) < 5:
            # Exact small-sample quantile: nearest-rank on the sorted
            # values (deterministic, no interpolation).
            rank = max(0, min(len(heights) - 1, int(self.q * len(heights))))
            return heights[rank]
        return heights[2]


class QuantileSketch:
    """Constant-memory percentile estimates over one value stream.

    Tracks count / min / max exactly plus one :class:`P2Quantile`
    marker set per quantile of :data:`SKETCH_QUANTILES`.
    ``snapshot()`` renders the estimates under ``"p50"``-style keys.
    Memory is constant — independent of the observation count — which
    is what lets :class:`repro.obs.stream.StreamingTracer` report
    percentiles over arbitrarily long horizons without buffering a
    trace.
    """

    __slots__ = ("name", "count", "min", "max", "_estimators")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._estimators: Tuple[P2Quantile, ...] = tuple(
            P2Quantile(q) for q in SKETCH_QUANTILES
        )

    def observe(self, value: float) -> None:
        """Record one observation in every tracked quantile."""
        value = float(value)
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for estimator in self._estimators:
            estimator.observe(value)

    def estimates(self) -> Dict[str, Optional[float]]:
        """Current estimates keyed ``p50``/``p90``/``p99``."""
        return {f"p{e.q * 100:g}": e.value for e in self._estimators}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native state (``estimates`` keyed ``p50``/``p90``/...)."""
        return {
            "kind": "quantiles",
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "qs": list(SKETCH_QUANTILES),
            "estimates": self.estimates(),
        }


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory, kind) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
        elif not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, *, bound: float = 1.0) -> Histogram:
        """Get or create the named histogram (``bound`` applies on creation)."""
        return self._get(name, lambda: Histogram(name, bound=bound), Histogram)

    def quantiles(self, name: str) -> QuantileSketch:
        """Get or create the named quantile sketch."""
        return self._get(name, lambda: QuantileSketch(name), QuantileSketch)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Name → JSON-native instrument state, sorted by name."""
        return {name: self._instruments[name].snapshot() for name in self.names()}
