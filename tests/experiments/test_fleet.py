"""The fleet executor: grids, determinism, crash isolation, persistence.

The multi-process tests (real spawn workers, injected hard kills) are
marked ``slow`` and excluded from the default pytest run; CI's
fleet-smoke job runs them with ``-m slow``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ReproError
from repro.experiments.fleet import (
    FleetResult,
    cross_run_quantiles,
    execute_task,
    fleet_compliance,
    fleet_rollup,
    fleet_run_id,
    run_fleet,
)
from repro.experiments.registry import FleetTask, fleet_grid
from repro.obs.runs import FLEET_SCHEMA, RunStore
from repro.obs.report import write_report

SCALE = 0.005  # 3 simulated seconds per task — enough for real telemetry


def grid_2x2():
    return fleet_grid(["ge_light", "ge_nominal"], [1, 2], scale=SCALE)


def strip_wall_clock(payload):
    """The comparable slice of a task payload: everything host-independent.

    ``wall_s`` is the only host-dependent field; the RunResult and all
    simulated telemetry, metrics included, must match bit-for-bit
    across execution modes.
    """
    return {
        "task": payload["task"],
        "result": payload["result"],
        "summary": payload["summary"],
        "events": payload["events"],
    }


def result_payload(scenario, *, quality, energy, compliant=True,
                   headroom=None, events=100, wall_s=0.5, worker=0):
    """A minimal task result shaped like execute_task's, tagged with
    the worker that ran it."""
    slo = {"compliant": compliant, "slos": {}}
    if headroom is not None:
        slo["slos"]["power_budget"] = {
            "observed": {"headroom_min_w": headroom}
        }
    return {
        "task": {"scenario": scenario},
        "result": {"quality": quality, "energy": energy},
        "summary": {"slo": slo},
        "events": events,
        "wall_s": wall_s,
        "worker": worker,
    }


class TestGrid:
    def test_grid_order_and_keys(self):
        tasks = fleet_grid(["ge_light"], [1, 2], rates=[120.0], scale=0.02)
        assert [t.key for t in tasks] == [
            "ge_light-s1-x0.02-r120", "ge_light-s2-x0.02-r120",
        ]

    def test_grid_without_rates(self):
        tasks = grid_2x2()
        assert len(tasks) == 4
        assert tasks[0].rate is None
        # scenarios outer, seeds inner
        assert [t.scenario for t in tasks] == [
            "ge_light", "ge_light", "ge_nominal", "ge_nominal",
        ]

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            fleet_grid([], [1])
        with pytest.raises(ValueError, match="at least one seed"):
            fleet_grid(["ge_light"], [])
        with pytest.raises(ValueError, match="empty rates"):
            fleet_grid(["ge_light"], [1], rates=[])
        with pytest.raises(KeyError):
            fleet_grid(["no_such_scenario"], [1])

    def test_inject_validation(self):
        with pytest.raises(ValueError, match="inject"):
            FleetTask(scenario="ge_light", seed=1, inject="segfault")

    def test_fleet_run_id_is_order_free(self):
        tasks = grid_2x2()
        assert fleet_run_id(tasks) == fleet_run_id(list(reversed(tasks)))
        assert fleet_run_id(tasks).startswith("fleet-")
        assert fleet_run_id(tasks) != fleet_run_id(tasks[:2])


class TestExecuteTask:
    def test_payload_shape_and_json_native(self):
        task = FleetTask(scenario="ge_light", seed=1, scale=SCALE)
        payload = execute_task(task)
        assert payload["task"]["scenario"] == "ge_light"
        assert payload["result"]["jobs"] > 0
        assert payload["events"] > 0 and payload["wall_s"] > 0
        assert payload["summary"]["slo"]["schema"] == "repro.slo/1"
        json.dumps(payload)

    @pytest.mark.parametrize("scenario, floor", [("ge_light", 0.9), ("ge_nominal", 0.6)])
    def test_quality_floor_slo(self, scenario, floor):
        # Below the critical load GE holds quality >= Q_GE for >= 90% of
        # decided time.  At nominal load the strict fraction of time
        # equals the AES dwell fraction (~0.70: GE rides the floor and
        # dips below Q_GE exactly while compensating in BQ), so the
        # ge_nominal floor guards against regression and is not the
        # paper's bound; see docs/observability.md.
        payload = execute_task(FleetTask(scenario, seed=1, scale=0.02))
        row = payload["summary"]["slo"]["slos"]["quality_floor"]
        assert row["compliance"] >= floor

    def test_rate_override_changes_config(self):
        base = execute_task(FleetTask(scenario="ge_light", seed=1, scale=SCALE))
        bumped = execute_task(
            FleetTask(scenario="ge_light", seed=1, scale=SCALE, rate=250.0)
        )
        assert bumped["result"]["jobs"] > base["result"]["jobs"]

    def test_unknown_scenario_and_exit_inject_rejected(self):
        with pytest.raises(ReproError, match="unknown fleet scenario"):
            execute_task(FleetTask(scenario="nope", seed=1))
        with pytest.raises(ReproError, match="worker process"):
            execute_task(FleetTask(scenario="ge_light", seed=1, inject="exit"))


class TestCrossRunQuantiles:
    def test_empty_and_single(self):
        assert cross_run_quantiles([]) == {}
        assert cross_run_quantiles([2.0]) == {"p50": 2.0, "p90": 2.0}

    def test_interpolated_and_order_free(self):
        forward = cross_run_quantiles([1.0, 2.0, 3.0, 4.0])
        assert forward["p50"] == pytest.approx(2.5)
        assert forward["p90"] == pytest.approx(3.7)
        assert cross_run_quantiles([4.0, 1.0, 3.0, 2.0]) == forward


class TestRollup:
    def test_rollup_scenario_and_quantile_shape(self):
        results = {}
        for key, quality, energy, compliant in (
            ("a", 0.8, 10.0, True), ("b", 0.9, 12.0, False),
        ):
            results[key] = result_payload(
                "ge_light", quality=quality, energy=energy,
                compliant=compliant, headroom=5.0)
        results["c"] = result_payload("ge_nominal", quality=0.7, energy=20.0)
        errors = [{"kind": "unrun", "task": "d", "worker": None,
                   "exception": "never ran", "traceback": None, "spec": None}]

        rollup = fleet_rollup(results, errors, {0: {"pid": 99, "exitcode": 0}})
        assert rollup["tasks"] == {"total": 4, "succeeded": 3, "failed": 1}
        light = rollup["scenarios"]["ge_light"]
        assert light["tasks"] == 2
        assert light["slo_compliant"] == 1 and light["slo_evaluated"] == 2
        assert light["quality_min"] == 0.8 and light["quality_max"] == 0.9
        assert light["quality_mean"] == pytest.approx(0.85)
        assert light["energy_sum"] == pytest.approx(22.0)
        assert rollup["throughput"]["events"] == 300
        assert rollup["throughput"]["events_per_sec"] > 0
        assert rollup["quantiles"]["quality"]["p50"] == pytest.approx(0.8)
        assert rollup["quantiles"]["power_headroom_min_w"]["p50"] == 5.0
        assert rollup["workers"]["0"]["tasks_done"] == 3


class TestSequentialMode:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        runs_dir = tmp_path_factory.mktemp("fleet-seq")
        return run_fleet(grid_2x2(), workers=1, runs_dir=str(runs_dir)), runs_dir

    def test_all_tasks_succeed(self, outcome):
        fleet, _ = outcome
        assert isinstance(fleet, FleetResult)
        assert fleet.ok and fleet.exit_code == 0
        assert sorted(fleet.results) == sorted(t.key for t in grid_2x2())

    def test_summary_document(self, outcome):
        fleet, _ = outcome
        doc = fleet.summary
        assert doc["schema"] == FLEET_SCHEMA
        assert doc["run_id"] == fleet.fleet_id
        assert doc["meta"]["mode"] == "sequential"
        assert doc["meta"]["succeeded"] == 4 and doc["meta"]["failed"] == 0
        assert doc["rollup"]["tasks"]["total"] == 4
        assert {row["scenario"] for row in doc["tasks"]} == {
            "ge_light", "ge_nominal",
        }
        assert all(row["ok"] and row["run_id"] for row in doc["tasks"])
        json.dumps(doc)

    def test_slo_violation_events_sum_task_violations(self, outcome):
        fleet, _ = outcome
        violations = [
            payload["summary"]["slo"]["violations"]
            for payload in fleet.results.values()
        ]
        assert sum(violations) > 0
        assert fleet.summary["rollup"]["slo_violation_events"] == sum(violations)

    def test_persisted_into_store(self, outcome):
        fleet, runs_dir = outcome
        store = RunStore(runs_dir)
        loaded = store.load(fleet.fleet_id)
        assert loaded["schema"] == FLEET_SCHEMA
        # Every per-task run/1 summary landed too and loads cleanly.
        for run_id in fleet.run_ids.values():
            assert store.load(run_id)["schema"] == "repro.run/1"

    def test_fleet_report_renders(self, outcome, tmp_path):
        fleet, _ = outcome
        out = tmp_path / "fleet.html"
        size = write_report(fleet.summary, out)
        html = out.read_text(encoding="utf-8")
        assert size == len(html.encode("utf-8"))
        for section in ("repro fleet", "Per-scenario rollup", "Workers",
                        "Per-run grid"):
            assert section in html

    def test_compliance_rollup(self, outcome):
        fleet, _ = outcome
        compliance = fleet_compliance(fleet.summary["rollup"])
        assert compliance is not None and 0.0 <= compliance <= 1.0
        assert fleet_compliance({"scenarios": {}}) is None

    def test_raise_injection_isolates_failure(self, tmp_path):
        tasks = [
            FleetTask(scenario="ge_light", seed=1, scale=SCALE),
            FleetTask(scenario="ge_light", seed=2, scale=SCALE,
                      inject="raise"),
        ]
        fleet = run_fleet(tasks, workers=1, store=False)
        assert not fleet.ok and fleet.exit_code == 1
        assert tasks[0].key in fleet.results
        (record,) = fleet.errors
        assert record["kind"] == "exception"
        assert record["task"] == tasks[1].key
        assert "injected failure" in record["exception"]
        assert "RuntimeError" in record["traceback"]

    def test_validation_rejects_bad_grids(self):
        with pytest.raises(ReproError, match="empty grid"):
            run_fleet([], workers=1, store=False)
        task = FleetTask(scenario="ge_light", seed=1, scale=SCALE)
        with pytest.raises(ReproError, match="duplicate"):
            run_fleet([task, task], workers=1, store=False)
        with pytest.raises(ReproError, match="unknown fleet scenario"):
            run_fleet([FleetTask(scenario="nope", seed=1)], workers=1, store=False)


@pytest.mark.slow
class TestParallelMode:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        tasks = grid_2x2()
        sequential = run_fleet(tasks, workers=1, store=False)
        parallel = run_fleet(
            tasks, workers=2,
            runs_dir=str(tmp_path_factory.mktemp("fleet-par")),
        )
        return sequential, parallel

    def test_parallel_matches_sequential_bit_for_bit(self, pair):
        sequential, parallel = pair
        assert parallel.ok
        assert sorted(parallel.results) == sorted(sequential.results)
        for key in sequential.results:
            par = strip_wall_clock(parallel.results[key])
            seq = strip_wall_clock(sequential.results[key])
            # Bit-identity: == on floats, no approx.
            assert par == seq, f"divergence in task {key}"

    def test_parallel_summary_and_store(self, pair):
        _, parallel = pair
        doc = parallel.summary
        assert doc["meta"]["mode"] == "parallel"
        assert doc["meta"]["workers"] == 2
        workers = doc["rollup"]["workers"]
        assert all(row["exitcode"] == 0 for row in workers.values())
        # Work actually spread across both workers is not guaranteed
        # (one may take most of the grid), but both must report in.
        assert len(workers) == 2

    def test_same_grid_same_fleet_id(self, pair):
        sequential, parallel = pair
        assert parallel.fleet_id == sequential.summary["run_id"]

    def test_killed_worker_yields_error_while_siblings_finish(self, tmp_path):
        tasks = [
            FleetTask(scenario="ge_light", seed=1, scale=SCALE),
            FleetTask(scenario="ge_light", seed=2, scale=SCALE,
                      inject="exit"),
            FleetTask(scenario="ge_nominal", seed=1, scale=SCALE),
            FleetTask(scenario="ge_nominal", seed=2, scale=SCALE),
        ]
        fleet = run_fleet(tasks, workers=2, store=False)
        assert not fleet.ok and fleet.exit_code == 1
        survivors = {t.key for t in tasks if t.inject is None}
        assert survivors <= set(fleet.results)
        death = [e for e in fleet.errors if e["kind"] == "worker-death"]
        assert len(death) == 1
        assert death[0]["task"] == tasks[1].key
        assert "exitcode 43" in death[0]["exception"]
        # The dead worker's exitcode is recorded in the worker table.
        workers = fleet.summary["rollup"]["workers"]
        assert any(row["exitcode"] == 43 for row in workers.values())

    def test_worker_count_validation(self):
        with pytest.raises(ReproError, match="at least one worker"):
            run_fleet(grid_2x2(), workers=0, store=False)

    def test_tasks_become_unrun_when_no_worker_is_left(self):
        tasks = [
            FleetTask(scenario="ge_light", seed=1, scale=SCALE, inject="exit"),
            FleetTask(scenario="ge_light", seed=2, scale=SCALE, inject="exit"),
            FleetTask(scenario="ge_nominal", seed=1, scale=SCALE),
            FleetTask(scenario="ge_nominal", seed=2, scale=SCALE),
        ]
        fleet = run_fleet(tasks, workers=2, store=False)
        assert not fleet.results and fleet.exit_code == 1
        kinds = {e["task"]: e["kind"] for e in fleet.errors}
        assert kinds == {
            tasks[0].key: "worker-death", tasks[1].key: "worker-death",
            tasks[2].key: "unrun", tasks[3].key: "unrun",
        }
        for record in fleet.errors:
            if record["kind"] == "unrun":
                assert record["worker"] is None
        assert fleet.summary["rollup"]["tasks"] == {
            "total": 4, "succeeded": 0, "failed": 4,
        }

    def test_slow_parent_does_not_report_finished_tasks_as_deaths(self):
        # A parent that folds answers slowly must still see every answer
        # a worker sent before it sees that worker exit.
        tasks = fleet_grid(["ge_light"], [1, 2, 3, 4], scale=0.002)
        fleet = run_fleet(tasks, workers=2, store=False,
                          progress=lambda line: time.sleep(1.0))
        assert fleet.ok
        assert fleet.summary["rollup"]["tasks"]["total"] == 4
        assert not [e for e in fleet.errors if e["kind"] == "worker-death"]
