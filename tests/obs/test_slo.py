"""Online SLO monitors: spec validation, folds, summaries."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLO_SCHEMA, SLOSpec, SLOTracker, default_slos


def tracker_for(*specs, **kwargs):
    return SLOTracker(list(specs), **kwargs)


class TestSLOSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            SLOSpec(name="x", kind="latency", threshold=1.0)

    def test_rejects_negative_min_samples(self):
        with pytest.raises(ValueError, match="min_samples"):
            SLOSpec(name="x", kind="deadline_miss", threshold=0.1, min_samples=-1)

    def test_to_record_is_json_native(self):
        spec = SLOSpec(name="q", kind="quality_floor", threshold=0.9,
                       description="floor")
        assert spec.to_record() == {
            "kind": "quality_floor", "threshold": 0.9,
            "min_samples": 0, "description": "floor",
        }


class TestDefaultSLOs:
    def test_full_meta_installs_all_four(self):
        specs = default_slos({"q_ge": 0.85, "budget": 40.0})
        assert [s.kind for s in specs] == [
            "quality_floor", "power_budget", "deadline_miss", "bq_dwell",
        ]
        assert specs[0].threshold == 0.85
        assert specs[1].threshold == 40.0

    def test_absent_or_null_meta_omits_parameterized_slos(self):
        for meta in ({}, {"q_ge": None, "budget": None}):
            kinds = [s.kind for s in default_slos(meta)]
            assert kinds == ["deadline_miss", "bq_dwell"]


class TestTrackerValidation:
    def test_duplicate_names_rejected(self):
        spec = SLOSpec(name="a", kind="deadline_miss", threshold=0.1)
        other = SLOSpec(name="a", kind="bq_dwell", threshold=0.5)
        with pytest.raises(ValueError, match="duplicate"):
            tracker_for(spec, other)

    def test_duplicate_kinds_rejected(self):
        a = SLOSpec(name="a", kind="bq_dwell", threshold=0.5)
        b = SLOSpec(name="b", kind="bq_dwell", threshold=0.4)
        with pytest.raises(ValueError, match="share kind"):
            tracker_for(a, b)


class TestQualityFloor:
    def test_time_weighted_compliance(self):
        t = tracker_for(SLOSpec(name="q", kind="quality_floor", threshold=0.9))
        # [0,2): 0.95 (ok), [2,3): 0.80 (below), [3,4): 0.92 (ok).
        t.on_decision(0.0, mode="aes", quality=0.95)
        t.on_decision(2.0, mode="bq", quality=0.80)
        t.on_decision(3.0, mode="aes", quality=0.92)
        t.finish(4.0)
        row = t.summary()["slos"]["q"]
        assert row["compliance"] == pytest.approx(3.0 / 4.0)
        assert row["observed"]["decided_time_s"] == pytest.approx(4.0)
        assert not row["compliant"]
        assert row["first_violation"]["time"] == 2.0
        assert row["first_violation"]["value"] == 0.80

    def test_first_violation_is_kept_once(self):
        t = tracker_for(SLOSpec(name="q", kind="quality_floor", threshold=0.9))
        t.on_decision(0.0, mode="aes", quality=0.5)
        t.on_decision(1.0, mode="aes", quality=0.4)
        t.finish(2.0)
        summary = t.summary()
        assert summary["violations"] == 1
        assert summary["slos"]["q"]["first_violation"] == {
            "time": 0.0, "value": 0.5, "threshold": 0.9,
        }

    def test_no_decisions_is_vacuously_compliant(self):
        t = tracker_for(SLOSpec(name="q", kind="quality_floor", threshold=0.9))
        t.finish(10.0)
        row = t.summary()["slos"]["q"]
        assert row["no_data"] and row["compliant"]
        assert row["compliance"] is None


class TestPowerBudget:
    def test_headroom_fraction_and_percentiles(self):
        t = tracker_for(SLOSpec(name="p", kind="power_budget", threshold=40.0))
        for i, power in enumerate((30.0, 38.0, 41.0, 35.0)):
            t.on_power(float(i), power)
        t.finish(4.0)
        row = t.summary()["slos"]["p"]
        assert row["compliance"] == pytest.approx(3.0 / 4.0)
        assert not row["compliant"]
        assert row["first_violation"]["value"] == 41.0
        assert row["observed"]["headroom_min_w"] == pytest.approx(-1.0)
        assert row["observed"]["headroom_max_w"] == pytest.approx(10.0)
        assert "headroom_p50_w" in row["observed"]

    def test_float_noise_overshoot_tolerated(self):
        t = tracker_for(SLOSpec(name="p", kind="power_budget", threshold=40.0))
        t.on_power(0.0, 40.0 + 1e-9)  # water-filling rounding, not a breach
        t.finish(1.0)
        row = t.summary()["slos"]["p"]
        assert row["compliant"] and row["compliance"] == 1.0

    def test_sketch_registers_in_supplied_registry(self):
        reg = MetricsRegistry()
        t = tracker_for(
            SLOSpec(name="p", kind="power_budget", threshold=40.0),
            registry=reg,
        )
        t.on_power(0.0, 30.0)
        assert "slo.power_headroom_w" in reg.snapshot()


class TestDeadlineMiss:
    def test_min_samples_suppresses_early_violation(self):
        spec = SLOSpec(name="d", kind="deadline_miss", threshold=0.1,
                       min_samples=5)
        t = tracker_for(spec)
        t.on_settle(0.1, outcome="expired")  # 1/1 missed — under min_samples
        assert t.summary()["slos"]["d"]["compliant"]
        for i in range(4):
            t.on_settle(0.2 + i, outcome="completed")
        # 1/5 = 0.2 > 0.1, now past min_samples.
        t.finish(5.0)
        row = t.summary()["slos"]["d"]
        assert not row["compliant"]
        assert row["compliance"] == pytest.approx(0.8)
        assert row["observed"] == {"settled": 5, "missed": 1, "miss_rate": 0.2}

    def test_dropped_counts_as_miss(self):
        spec = SLOSpec(name="d", kind="deadline_miss", threshold=0.5,
                       min_samples=1)
        t = tracker_for(spec)
        t.on_settle(0.1, outcome="dropped")
        t.finish(1.0)
        assert not t.summary()["slos"]["d"]["compliant"]


class TestBQDwell:
    def test_dwell_fraction_checked_at_finish(self):
        spec = SLOSpec(name="b", kind="bq_dwell", threshold=0.5, min_samples=1)
        t = tracker_for(spec)
        t.on_decision(0.0, mode="bq", quality=0.95)
        t.on_decision(3.0, mode="aes", quality=0.95)
        t.finish(4.0)  # 3s BQ of 4s decided = 0.75 > 0.5
        row = t.summary()["slos"]["b"]
        assert not row["compliant"]
        assert row["observed"]["bq_fraction"] == pytest.approx(0.75)
        assert row["compliance"] == pytest.approx(0.25)


class TestCallbacksAndSummary:
    def test_summary_schema_and_overall_verdict(self):
        t = tracker_for(*default_slos({"q_ge": 0.85, "budget": 40.0}))
        t.on_decision(0.0, mode="aes", quality=0.95)
        t.on_power(0.5, 30.0)
        t.on_settle(0.6, outcome="completed")
        t.finish(1.0)
        summary = t.summary()
        assert summary["schema"] == SLO_SCHEMA
        assert summary["compliant"] and summary["violations"] == 0
        assert set(summary["slos"]) == {
            "quality_floor", "power_budget", "deadline_miss", "bq_dwell",
        }

    def test_finish_is_idempotent(self):
        t = tracker_for(SLOSpec(name="q", kind="quality_floor", threshold=0.9))
        t.on_decision(0.0, mode="aes", quality=0.95)
        t.finish(2.0)
        first = t.summary()
        t.finish(5.0)
        assert t.summary() == first
