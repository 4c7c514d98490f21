"""Online SLO monitors: arming, folds, summaries."""

from __future__ import annotations

import json

import pytest

from repro.baselines.queue_order import FCFS
from repro.config import SimulationConfig
from repro.core.ge import make_ge
from repro.obs import StreamingTracer
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLO_SCHEMA, SLOTracker
from repro.server.harness import SimulationHarness

OBJECTIVES = ["quality_floor", "power_budget", "deadline_miss", "bq_dwell"]


def tracker_for(**meta):
    return SLOTracker(meta, MetricsRegistry())


class TestDefaultSLOs:
    def test_full_meta_installs_all_four(self):
        slos = tracker_for(q_ge=0.85, budget=40.0).summary()["slos"]
        assert list(slos) == OBJECTIVES
        assert [row["threshold"] for row in slos.values()] == [0.85, 40.0, 0.1, 0.5]
        assert [row["min_samples"] for row in slos.values()] == [0, 0, 20, 20]

    def test_absent_or_null_meta_omits_parameterized_slos(self):
        for meta in ({}, {"q_ge": None, "budget": None}):
            reg = MetricsRegistry()
            slos = SLOTracker(meta, reg).summary()["slos"]
            assert list(slos) == ["deadline_miss", "bq_dwell"]
            assert "slo.power_headroom_w" not in reg


class TestQualityFloor:
    def test_time_weighted_compliance(self):
        t = tracker_for(q_ge=0.9)
        # [0,2): 0.95 (ok), [2,3): 0.80 (below), [3,4): 0.92 (ok).
        t.on_decision(0.0, mode="aes", quality=0.95)
        t.on_decision(2.0, mode="bq", quality=0.80)
        t.on_decision(3.0, mode="aes", quality=0.92)
        t.finish(4.0)
        row = t.summary()["slos"]["quality_floor"]
        assert row["compliance"] == pytest.approx(3.0 / 4.0)
        assert row["observed"]["decided_time_s"] == pytest.approx(4.0)
        assert not row["compliant"]
        assert row["first_violation"]["time"] == 2.0
        assert row["first_violation"]["value"] == 0.80

    def test_first_violation_is_kept_once(self):
        t = tracker_for(q_ge=0.9)
        t.on_decision(0.0, mode="aes", quality=0.5)
        t.on_decision(1.0, mode="aes", quality=0.4)
        t.finish(2.0)
        summary = t.summary()
        assert summary["violations"] == 1
        assert summary["slos"]["quality_floor"]["first_violation"] == {
            "time": 0.0, "value": 0.5, "threshold": 0.9,
        }

    def test_no_decisions_is_vacuously_compliant(self):
        t = tracker_for(q_ge=0.9)
        t.finish(10.0)
        row = t.summary()["slos"]["quality_floor"]
        assert row["no_data"] and row["compliant"]
        assert row["compliance"] is None


class TestPowerBudget:
    def test_headroom_fraction_and_percentiles(self):
        t = tracker_for(budget=40.0)
        for i, power in enumerate((30.0, 38.0, 41.0, 35.0)):
            t.on_power(float(i), power)
        t.finish(4.0)
        row = t.summary()["slos"]["power_budget"]
        assert row["compliance"] == pytest.approx(3.0 / 4.0)
        assert not row["compliant"]
        assert row["first_violation"]["value"] == 41.0
        assert row["observed"]["headroom_min_w"] == pytest.approx(-1.0)
        assert row["observed"]["headroom_max_w"] == pytest.approx(10.0)
        assert "headroom_p50_w" in row["observed"]

    def test_float_noise_overshoot_tolerated(self):
        t = tracker_for(budget=40.0)
        t.on_power(0.0, 40.0 + 1e-9)  # water-filling rounding, not a breach
        t.finish(1.0)
        row = t.summary()["slos"]["power_budget"]
        assert row["compliant"] and row["compliance"] == 1.0

    def test_sketch_registers_in_supplied_registry(self):
        reg = MetricsRegistry()
        t = SLOTracker({"budget": 40.0}, reg)
        t.on_power(0.0, 30.0)
        assert "slo.power_headroom_w" in reg.snapshot()


class TestDeadlineMiss:
    def test_min_samples_suppresses_early_violation(self):
        t = tracker_for()
        for i in range(3):  # 3/3 missed — under min_samples
            t.on_settle(0.1 * i, outcome="expired")
        assert t.summary()["slos"]["deadline_miss"]["compliant"]
        for i in range(17):
            t.on_settle(1.0 + i, outcome="completed")
        # 3/20 = 0.15 > 0.1, now at min_samples.
        t.finish(20.0)
        row = t.summary()["slos"]["deadline_miss"]
        assert not row["compliant"]
        assert row["first_violation"]["time"] == 17.0
        assert row["compliance"] == pytest.approx(0.85)
        assert row["observed"] == {"settled": 20, "missed": 3, "miss_rate": 0.15}

    def test_dropped_counts_as_miss(self):
        t = tracker_for()
        for i in range(20):
            t.on_settle(0.1 * i, outcome="dropped")
        t.finish(2.0)
        assert not t.summary()["slos"]["deadline_miss"]["compliant"]


class TestBQDwell:
    def test_dwell_fraction_checked_at_finish(self):
        t = tracker_for()
        t.on_decision(0.0, mode="bq", quality=0.95)
        t.on_decision(3.0, mode="aes", quality=0.95)
        t.finish(4.0)  # 3s BQ of 4s decided = 0.75 > 0.5
        row = t.summary()["slos"]["bq_dwell"]
        assert not row["compliant"]
        assert row["observed"]["bq_fraction"] == pytest.approx(0.75)
        assert row["compliance"] == pytest.approx(0.25)


class TestCallbacksAndSummary:
    def test_summary_schema_and_overall_verdict(self):
        t = tracker_for(q_ge=0.85, budget=40.0)
        t.on_decision(0.0, mode="aes", quality=0.95)
        t.on_power(0.5, 30.0)
        t.on_settle(0.6, outcome="completed")
        t.finish(1.0)
        summary = t.summary()
        assert summary["schema"] == SLO_SCHEMA
        assert summary["compliant"] and summary["violations"] == 0
        assert set(summary["slos"]) == set(OBJECTIVES)

    def test_finish_is_idempotent(self):
        t = tracker_for(q_ge=0.9)
        t.on_decision(0.0, mode="aes", quality=0.95)
        t.finish(2.0)
        first = t.summary()
        t.finish(5.0)
        assert t.summary() == first


# Objective summaries and sketch snapshots of two streamed runs at
# λ=150, 3 s, seed 1.  FCFS emits no decisions, so its quality_floor
# and bq_dwell take the no_data branch.
_PINNED = {
    "GE": {
        "slo": {
            "compliant": False, "schema": "repro.slo/1", "violations": 2,
            "slos": {
                "bq_dwell": {
                    "compliance": 0.579488538106923, "compliant": True,
                    "description": "BQ (compensation) mode holds under 50% of decided time",
                    "first_violation": None, "kind": "bq_dwell", "min_samples": 20,
                    "no_data": False,
                    "observed": {
                        "bq_fraction": 0.42051146189307703,
                        "bq_time_s": 1.3156415953944596,
                        "decided_time_s": 3.1286699997941705,
                    },
                    "threshold": 0.5,
                },
                "deadline_miss": {
                    "compliance": 0.7867298578199052, "compliant": False,
                    "description": "expired+dropped jobs stay under 10% of settled",
                    "first_violation": {
                        "threshold": 0.1, "time": 0.32745829173213625, "value": 0.3,
                    },
                    "kind": "deadline_miss", "min_samples": 20, "no_data": False,
                    "observed": {
                        "miss_rate": 0.2132701421800948, "missed": 90, "settled": 422,
                    },
                    "threshold": 0.1,
                },
                "power_budget": {
                    "compliance": 1.0, "compliant": True,
                    "description": "total dynamic power stays within the budget H",
                    "first_violation": None, "kind": "power_budget", "min_samples": 0,
                    "no_data": False,
                    "observed": {
                        "headroom_max_w": 320.0,
                        "headroom_min_w": 21.68646196825506,
                        "headroom_p50_w": 159.36328101520547,
                        "headroom_p90_w": 196.3503661987818,
                        "headroom_p99_w": 196.3503661987818,
                        "samples": 8,
                    },
                    "threshold": 320.0,
                },
                "quality_floor": {
                    "compliance": 0.579488538106923, "compliant": False,
                    "description": "aggregate quality stays at or above Q_GE",
                    "first_violation": {
                        "threshold": 0.9, "time": 0.36544248720209516,
                        "value": 0.8836359828970729,
                    },
                    "kind": "quality_floor", "min_samples": 0, "no_data": False,
                    "observed": {
                        "decided_time_s": 3.1286699997941705,
                        "ok_time_s": 1.8130284043997111,
                    },
                    "threshold": 0.9,
                },
            },
        },
        "stream.reschedule_gap_s": {
            "count": 145,
            "estimates": {
                "p50": 0.015711005730365137,
                "p90": 0.0471719746942715,
                "p99": 0.07429697269210295,
            },
            "kind": "quantiles", "max": 0.08051970315627544,
            "min": 5.552288213905854e-05, "qs": [0.5, 0.9, 0.99],
        },
        "slo.power_headroom_w": {
            "count": 8,
            "estimates": {
                "p50": 159.36328101520547,
                "p90": 196.3503661987818,
                "p99": 196.3503661987818,
            },
            "kind": "quantiles", "max": 320.0, "min": 21.68646196825506,
            "qs": [0.5, 0.9, 0.99],
        },
    },
    "FCFS": {
        "slo": {
            "compliant": False, "schema": "repro.slo/1", "violations": 1,
            "slos": {
                "bq_dwell": {
                    "compliance": None, "compliant": True,
                    "description": "BQ (compensation) mode holds under 50% of decided time",
                    "first_violation": None, "kind": "bq_dwell", "min_samples": 20,
                    "no_data": True, "observed": {"decided_time_s": 0.0},
                    "threshold": 0.5,
                },
                "deadline_miss": {
                    "compliance": 0.6824644549763033, "compliant": False,
                    "description": "expired+dropped jobs stay under 10% of settled",
                    "first_violation": {
                        "threshold": 0.1, "time": 0.5089092539335928,
                        "value": 0.10869565217391304,
                    },
                    "kind": "deadline_miss", "min_samples": 20, "no_data": False,
                    "observed": {
                        "miss_rate": 0.3175355450236967, "missed": 134, "settled": 422,
                    },
                    "threshold": 0.1,
                },
                "power_budget": {
                    "compliance": 1.0, "compliant": True,
                    "description": "total dynamic power stays within the budget H",
                    "first_violation": None, "kind": "power_budget", "min_samples": 0,
                    "no_data": False,
                    "observed": {
                        "headroom_max_w": 320.0, "headroom_min_w": 320.0,
                        "headroom_p50_w": 320.0, "headroom_p90_w": 320.0,
                        "headroom_p99_w": 320.0, "samples": 2,
                    },
                    "threshold": 320.0,
                },
                "quality_floor": {
                    "compliance": None, "compliant": True,
                    "description": "aggregate quality stays at or above Q_GE",
                    "first_violation": None, "kind": "quality_floor", "min_samples": 0,
                    "no_data": True, "observed": {"decided_time_s": 0.0},
                    "threshold": 0.9,
                },
            },
        },
        "stream.reschedule_gap_s": {
            "count": 0, "estimates": {"p50": None, "p90": None, "p99": None},
            "kind": "quantiles", "max": None, "min": None, "qs": [0.5, 0.9, 0.99],
        },
        "slo.power_headroom_w": {
            "count": 2, "estimates": {"p50": 320.0, "p90": 320.0, "p99": 320.0},
            "kind": "quantiles", "max": 320.0, "min": 320.0, "qs": [0.5, 0.9, 0.99],
        },
    },
}


@pytest.mark.parametrize(
    "name,factory", [("GE", make_ge), ("FCFS", FCFS)], ids=["GE", "FCFS"]
)
def test_objective_summary_pin(name, factory):
    config = SimulationConfig(arrival_rate=150.0, horizon=3.0, seed=1)
    tracer = StreamingTracer()
    SimulationHarness(config, factory(), tracer=tracer).run()
    summary = tracer.summary()
    expected = _PINNED[name]
    assert list(summary["slo"]["slos"]) == OBJECTIVES
    assert json.dumps(summary["slo"], sort_keys=True) == json.dumps(
        expected["slo"], sort_keys=True
    )
    assert summary["meta"]["slo"] == summary["slo"]
    for metric in ("stream.reschedule_gap_s", "slo.power_headroom_w"):
        assert json.dumps(summary["metrics"][metric], sort_keys=True) == json.dumps(
            expected[metric], sort_keys=True
        )
