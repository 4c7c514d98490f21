"""Run registry: content addressing, store round-trips, diffing, report."""

from __future__ import annotations

import json

import pytest

from repro.config import SimulationConfig
from repro.core.ge import make_be, make_ge
from repro.errors import ReproError
from repro.obs import (
    RunStore,
    StreamingTracer,
    diff_runs,
    format_diff,
    format_run,
    format_runs_table,
    make_summary,
    run_id_for,
    write_report,
)
from repro.obs.runs import RUN_SCHEMA
from repro.server.harness import SimulationHarness


def stored_summary(config, factory, *, spill=None):
    """Run once under the streaming sink; return (summary_doc, result)."""
    from dataclasses import asdict

    tracer = StreamingTracer(spill_path=str(spill) if spill else None)
    result = SimulationHarness(config, factory(), tracer=tracer).run()
    return make_summary(tracer.summary(), result=asdict(result)), result


@pytest.fixture(scope="module")
def ge_doc():
    config = SimulationConfig(arrival_rate=150.0, horizon=4.0, seed=11)
    return stored_summary(config, make_ge)[0]


class TestRunIdentity:
    def test_run_id_shape(self, ge_doc):
        meta = ge_doc["meta"]
        run_id = run_id_for(meta)
        assert run_id == ge_doc["run_id"]
        assert run_id.startswith(meta["config_fingerprint"])
        assert run_id.endswith("-11-ge")

    def test_run_id_requires_fingerprint(self):
        with pytest.raises(ReproError, match="config_fingerprint"):
            run_id_for({"seed": 1, "scheduler": "GE"})

    def test_make_summary_layout(self, ge_doc):
        assert ge_doc["schema"] == RUN_SCHEMA
        assert "meta" in ge_doc and "meta" not in ge_doc["telemetry"]
        assert ge_doc["result"]["jobs"] > 0
        assert ge_doc["telemetry"]["slo"]["schema"] == "repro.slo/1"
        # The doc must already be JSON-serializable (the store dumps it).
        json.dumps(ge_doc)


class TestRunStore:
    def test_save_load_round_trip(self, tmp_path, ge_doc):
        store = RunStore(tmp_path / "runs")
        run_id = store.save(ge_doc)
        loaded = store.load(run_id)
        assert loaded["run_id"] == run_id
        assert loaded["result"] == ge_doc["result"]
        assert loaded["created_unix"] > 0

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "envroot"))
        assert RunStore().root == tmp_path / "envroot"

    def test_prefix_resolution(self, tmp_path, ge_doc):
        store = RunStore(tmp_path)
        run_id = store.save(ge_doc)
        assert store.resolve(run_id[:6]) == run_id
        with pytest.raises(ReproError, match="no stored run"):
            store.resolve("zzzz")

    def test_ambiguous_prefix_rejected(self, tmp_path, ge_doc):
        store = RunStore(tmp_path)
        a = dict(ge_doc, run_id="aaa-1-ge")
        b = dict(ge_doc, run_id="aaa-2-ge")
        store.save(a)
        store.save(b)
        with pytest.raises(ReproError, match="ambiguous"):
            store.resolve("aaa")

    def test_overwrite_is_idempotent(self, tmp_path, ge_doc):
        store = RunStore(tmp_path)
        assert store.save(ge_doc) == store.save(ge_doc)
        assert store.ids() == [ge_doc["run_id"]]

    def test_trace_copied_into_entry(self, tmp_path):
        config = SimulationConfig(arrival_rate=150.0, horizon=2.0, seed=2)
        spill = tmp_path / "spill.jsonl"
        doc, _ = stored_summary(config, make_ge, spill=spill)
        store = RunStore(tmp_path / "runs")
        run_id = store.save(doc, trace_path=spill)
        stored = store.trace_path(run_id)
        assert stored is not None
        assert stored.read_bytes() == spill.read_bytes()

    def test_list_rows_and_delete(self, tmp_path, ge_doc):
        store = RunStore(tmp_path)
        run_id = store.save(ge_doc)
        rows = store.list()
        assert len(rows) == 1
        row = rows[0]
        assert row["run_id"] == run_id
        assert row["scheduler"] == ge_doc["meta"]["scheduler"]
        assert row["quality"] == ge_doc["result"]["quality"]
        assert row["slo_compliant"] is not None and not row["has_trace"]
        store.delete(run_id)
        assert store.ids() == []

    def test_load_rejects_foreign_schema(self, tmp_path):
        store = RunStore(tmp_path)
        bad = store.path_for("bad-run")
        bad.mkdir(parents=True)
        (bad / "summary.json").write_text('{"schema": "other/9"}')
        with pytest.raises(ReproError, match="unsupported run schema"):
            store.load("bad-run")


class TestListOrderingAndGc:
    def seeded_store(self, tmp_path, ge_doc, ids):
        """A store with the given run ids, stamped strictly older→newer."""
        store = RunStore(tmp_path)
        for age, run_id in enumerate(ids):
            store.save(dict(ge_doc, run_id=run_id))
            # Rewrite the stamp so ordering is unambiguous even on
            # coarse clocks: later saves are strictly newer.
            path = store.path_for(run_id) / "summary.json"
            doc = json.loads(path.read_text())
            doc["created_unix"] = 1000.0 + age
            path.write_text(json.dumps(doc))
        return store

    def test_list_orders_newest_first_with_id_tiebreak(self, tmp_path, ge_doc):
        store = self.seeded_store(tmp_path, ge_doc, ["old-1-ge", "new-1-ge"])
        # Force a timestamp tie to exercise the id tie-break.
        for run_id in ("tie-b-ge", "tie-a-ge"):
            store.save(dict(ge_doc, run_id=run_id))
            path = store.path_for(run_id) / "summary.json"
            doc = json.loads(path.read_text())
            doc["created_unix"] = 2000.0
            path.write_text(json.dumps(doc))
        ordered = [row["run_id"] for row in store.list()]
        assert ordered == ["tie-a-ge", "tie-b-ge", "new-1-ge", "old-1-ge"]
        assert all("schema" in row for row in store.list())

    def test_gc_keeps_newest(self, tmp_path, ge_doc):
        store = self.seeded_store(
            tmp_path, ge_doc, ["a-1-ge", "b-1-ge", "c-1-ge"]
        )
        deleted = store.gc(1)
        assert deleted == ["b-1-ge", "a-1-ge"]
        assert store.ids() == ["c-1-ge"]

    def test_gc_pins_survive_and_do_not_count(self, tmp_path, ge_doc):
        store = self.seeded_store(
            tmp_path, ge_doc, ["a-1-ge", "b-1-ge", "c-1-ge"]
        )
        # Pin the oldest (by unique prefix): it survives, and `keep`
        # still applies to the remaining two.
        deleted = store.gc(1, pin=["a-1"])
        assert deleted == ["b-1-ge"]
        assert store.ids() == ["a-1-ge", "c-1-ge"]

    def test_gc_keep_zero_and_validation(self, tmp_path, ge_doc):
        store = self.seeded_store(tmp_path, ge_doc, ["a-1-ge", "b-1-ge"])
        with pytest.raises(ReproError, match="keep count"):
            store.gc(-1)
        assert store.gc(0) == ["b-1-ge", "a-1-ge"]
        assert store.ids() == []


class TestFleetSchema:
    @pytest.fixture(scope="class")
    def fleet_doc(self, tmp_path_factory):
        from repro.experiments.fleet import run_fleet
        from repro.experiments.registry import fleet_grid

        runs_dir = tmp_path_factory.mktemp("fleet-store")
        fleet = run_fleet(
            fleet_grid(["ge_light"], [1], scale=0.005),
            workers=1,
            runs_dir=str(runs_dir),
        )
        return fleet, runs_dir

    def test_store_round_trips_fleet_documents(self, fleet_doc):
        from repro.obs.runs import FLEET_SCHEMA

        fleet, runs_dir = fleet_doc
        store = RunStore(runs_dir)
        loaded = store.load(fleet.fleet_id)
        assert loaded["schema"] == FLEET_SCHEMA
        rows = {row["run_id"]: row for row in store.list()}
        assert rows[fleet.fleet_id]["schema"] == FLEET_SCHEMA
        assert rows[fleet.fleet_id]["scheduler"] == "fleet"

    def test_format_fleet_renders(self, fleet_doc):
        from repro.obs.runs import format_fleet

        fleet, _ = fleet_doc
        text = format_fleet(fleet.summary)
        assert fleet.fleet_id in text
        assert "ge_light" in text
        assert "tasks: 1 total" in text and "throughput:" in text


class TestDiffAndRendering:
    @pytest.fixture(scope="class")
    def pair(self, ge_doc):
        config = SimulationConfig(arrival_rate=150.0, horizon=4.0, seed=11)
        be_doc, _ = stored_summary(config, make_be)
        return ge_doc, be_doc

    def test_diff_sections(self, pair):
        ge_doc, be_doc = pair
        diff = diff_runs(ge_doc, be_doc)
        assert diff["runs"] == {"a": ge_doc["run_id"], "b": be_doc["run_id"]}
        assert diff["meta"]["scheduler"] == {
            "a": ge_doc["meta"]["scheduler"], "b": be_doc["meta"]["scheduler"],
        }
        quality = diff["result"]["quality"]
        assert quality["delta"] == pytest.approx(quality["b"] - quality["a"])
        assert "quality_floor" in diff["slo"] or "deadline_miss" in diff["slo"]

    def test_diff_of_identical_runs_is_quiet(self, ge_doc):
        diff = diff_runs(ge_doc, ge_doc)
        assert diff["meta"] == {} and diff["counters"] == {}
        assert all(row["delta"] == 0 for row in diff["result"].values()
                   if "delta" in row)

    def test_format_helpers_render(self, pair, tmp_path):
        ge_doc, be_doc = pair
        store = RunStore(tmp_path)
        store.save(ge_doc)
        store.save(be_doc)
        table = format_runs_table(store.list())
        assert ge_doc["run_id"] in table and be_doc["run_id"] in table
        shown = format_run(ge_doc)
        assert "quality_floor" in shown and "slo:" in shown
        rendered = format_diff(diff_runs(ge_doc, be_doc))
        assert "→" in rendered
        assert format_runs_table([]) == "no stored runs"

    def test_stored_summary_prints_the_run_digest(self, ge_doc, tmp_path):
        # JSON keeps every float and sorts core keys as strings; the
        # digest sorts cores by index, so a stored run reads as it ran.
        store = RunStore(tmp_path)
        run_id = store.save(ge_doc)
        shown = format_run(store.load(run_id))
        assert shown == format_run(ge_doc)
        assert "jobs (" in shown and "modes:" in shown and "cores:" in shown
        # Summaries stored before the digest listed jobs still render.
        older = json.loads(json.dumps(ge_doc))
        del older["telemetry"]["jobs"]
        del older["telemetry"]["metrics"]
        text = format_run(older)
        assert "jobs (" not in text and "metrics:" not in text
        assert "modes:" in text

    def test_write_report_on_stored_summary(self, ge_doc, tmp_path):
        out = tmp_path / "report.html"
        size = write_report(ge_doc, out)
        html = out.read_text(encoding="utf-8")
        assert size == len(html.encode("utf-8"))
        for section in ("SLO compliance", "Mode timeline", "Quality",
                        "Per-core utilization", "<svg"):
            assert section in html
