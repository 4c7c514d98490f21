"""Tests for the metrics registry."""

from __future__ import annotations

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("depth")
        g.set(3)
        g.set(7)
        assert g.value == 7.0


class TestHistogram:
    def test_stats(self):
        h = Histogram("sizes", bound=10.0)
        for v in (1.0, 3.0, 9.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(13.0)
        assert h.min == 1.0
        assert h.max == 9.0
        assert h.mean == pytest.approx(13.0 / 3)

    def test_bucket_placement_and_overflow(self):
        h = Histogram("x", bound=10.0)
        h.observe(0.0)   # bucket 0
        h.observe(9.9)   # bucket 9
        h.observe(25.0)  # overflow
        assert len(h.buckets) == 11
        assert h.buckets[0] == 1
        assert h.buckets[9] == 1
        assert h.buckets[10] == 1

    def test_overflow_underflow_counts_in_snapshot(self):
        # Out-of-range observations must be counted explicitly, not
        # silently folded into the edge buckets: overflow counts values
        # >= bound, underflow values < 0 (clamped into bucket 0).
        h = Histogram("x", bound=10.0)
        for v in (-2.0, -0.5, 5.0, 10.0, 25.0):
            h.observe(v)
        assert h.underflow == 2
        assert h.overflow == 2
        assert h.count == 5  # out-of-range values still count/total
        assert h.buckets[0] == 2  # underflow clamps into the first bucket
        assert h.buckets[-1] == 2  # overflow bucket
        snap = h.snapshot()
        assert snap["overflow"] == 2
        assert snap["underflow"] == 2
        assert snap["min"] == -2.0 and snap["max"] == 25.0

    def test_in_range_observations_leave_counts_zero(self):
        h = Histogram("x", bound=10.0)
        for v in (0.0, 5.0, 9.999):
            h.observe(v)
        assert h.overflow == 0 and h.underflow == 0

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Histogram("x", bound=0.0)


class TestMetricsRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_is_sorted_and_json_native(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(2)
        reg.histogram("c").observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b", "c"]
        json.dumps(snap)  # must be JSON-serializable
        assert snap["b"] == {"kind": "counter", "value": 1.0}
