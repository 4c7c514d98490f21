"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_list_prints_all_figures(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 13):
        assert f"fig{i:02d}" in out


def test_run_prints_summary_row(capsys):
    code = main(["run", "--scheduler", "GE", "--rate", "120", "--horizon", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "GE" in out
    assert "Q=" in out


def test_run_each_scheduler(capsys):
    for name in ("BE", "FCFS", "SJF", "GE-ES"):
        assert main(["run", "--scheduler", name, "--rate", "110", "--horizon", "2"]) == 0
    assert "FCFS" in capsys.readouterr().out


def test_fig_command_renders_figure(capsys):
    assert main(["fig", "2"]) == 0
    out = capsys.readouterr().out
    assert "fig02" in out
    assert "cut target" in out


def test_fig_command_with_scale(capsys):
    assert main(["fig", "1", "--scale", "0.005"]) == 0
    assert "aes_fraction" in capsys.readouterr().out


def test_unknown_scheduler_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--scheduler", "NOPE"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_stream_flag_is_gone():
    # Every traced run streams; the switch that chose it is an error.
    for command in ("run", "scenario", "trace"):
        with pytest.raises(SystemExit) as err:
            main([command, "--stream"])
        assert err.value.code == 2


def test_trace_save_and_replay(tmp_path, capsys):
    path = str(tmp_path / "trace.csv")
    assert main(["trace", "save", path, "--rate", "80", "--horizon", "2"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert main(["trace", "replay", path, "--scheduler", "FCFS"]) == 0
    assert "FCFS" in capsys.readouterr().out


def test_replicate_command(capsys):
    assert main(["replicate", "--scheduler", "GE", "--rate", "100",
                 "--horizon", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=2" in out and "[" in out


def test_fig_csv_export(tmp_path, capsys):
    path = tmp_path / "fig.csv"
    assert main(["fig", "2", "--csv", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("# figure: fig02")
    assert "# panel: volumes" in text
    assert "job index" in text


def test_sweep_command(capsys):
    code = main(["sweep", "--schedulers", "GE,FCFS", "--rates", "100,200",
                 "--horizon", "2"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "λ=" in l]
    assert len(lines) == 4  # 2 schedulers × 2 rates
    assert any("FCFS" in l for l in lines)


def test_sweep_unknown_scheduler_errors(capsys):
    assert main(["sweep", "--schedulers", "NOPE", "--horizon", "1"]) == 2
    assert "unknown scheduler" in capsys.readouterr().out


def test_scenario_list(capsys):
    assert main(["scenario"]) == 0
    out = capsys.readouterr().out
    assert "web_search" in out and "video_rendering" in out


def test_scenario_run(capsys):
    assert main(["scenario", "process_monitoring", "--horizon", "2"]) == 0
    assert "GE" in capsys.readouterr().out


def test_scenario_unknown_raises():
    with pytest.raises(KeyError):
        main(["scenario", "nope", "--horizon", "2"])


def test_report_command_subset(tmp_path, capsys):
    out = tmp_path / "report.md"
    code = main(["report", "--scale", "0.004", "--figures", "2", "1",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# Reproduction report" in text
    assert "fig02" in text and "fig01" in text
    assert "```" in text


def test_custom_run_parameters(capsys):
    code = main(
        ["run", "--scheduler", "GE", "--rate", "100", "--horizon", "2",
         "--cores", "8", "--budget", "160", "--q-ge", "0.85"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Q=0.8" in out  # lands near the 0.85 target


def test_trace_telemetry_mode_writes_jsonl(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code = main(["trace", "--scenario", "websearch", "--out", str(path),
                 "--horizon", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace records" in out
    assert "modes:" in out  # summary printed

    from repro.obs import read_jsonl

    trace = read_jsonl(path)
    assert trace.spans_named("job")          # job spans present
    assert trace.samples                     # core timeline samples present
    assert trace.events_of("mode_switch")    # at least one AES<->BQ switch


def test_trace_scenario_alias_matches_canonical(capsys):
    assert main(["trace", "--scenario", "websearch",
                 "--horizon", "1", "--no-summary"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert main(["trace", "--scenario", "web_search",
                 "--horizon", "1", "--no-summary"]) == 0
    second = capsys.readouterr().out.splitlines()[0]
    assert first == second  # identical run row: alias resolved to same scenario


def test_trace_csv_exports(tmp_path, capsys):
    timeline = tmp_path / "timeline.csv"
    spans = tmp_path / "spans.csv"
    code = main(["trace", "--horizon", "2", "--rate", "100",
                 "--timeline-csv", str(timeline), "--spans-csv", str(spans),
                 "--no-summary"])
    assert code == 0
    assert timeline.read_text().startswith("time,core,")
    assert spans.read_text().startswith("span_id,parent_id,")


def test_trace_store_writes_csv_files(tmp_path, capsys):
    timeline = tmp_path / "a.csv"
    spans = tmp_path / "b.csv"
    code = main(["trace", "--horizon", "2", "--store",
                 "--runs-dir", str(tmp_path / "runs"),
                 "--timeline-csv", str(timeline), "--spans-csv", str(spans)])
    assert code == 0
    out = capsys.readouterr().out
    assert "timeline samples to" in out and "spans to" in out
    assert "stored run" in out
    assert len(timeline.read_text().splitlines()) > 1
    assert len(spans.read_text().splitlines()) > 1


def test_trace_csv_files_match_the_buffered_trace(tmp_path, capsys):
    import csv
    import json

    from repro.config import SimulationConfig
    from repro.core.ge import make_ge
    from repro.obs import Tracer
    from repro.server.harness import SimulationHarness

    timeline = tmp_path / "timeline.csv"
    spans = tmp_path / "spans.csv"
    assert main(["trace", "--rate", "150", "--horizon", "3", "--seed", "1",
                 "--timeline-csv", str(timeline), "--spans-csv", str(spans),
                 "--no-summary"]) == 0
    tracer = Tracer()
    config = SimulationConfig(arrival_rate=150.0, horizon=3.0, seed=1)
    SimulationHarness(config, make_ge(), tracer=tracer).run()
    trace = tracer.to_trace()

    with open(timeline, newline="", encoding="utf-8") as fh:
        timeline_rows = list(csv.reader(fh))[1:]
    assert timeline_rows == [
        [f"{s.time:.9g}", str(s.core), f"{s.speed:.9g}", f"{s.power:.9g}",
         f"{s.energy:.9g}"]
        for s in trace.samples
    ]
    with open(spans, newline="", encoding="utf-8") as fh:
        span_rows = list(csv.reader(fh))[1:]
    expected = [
        [str(s.span_id), "" if s.parent_id is None else str(s.parent_id), s.name,
         f"{s.start:.9g}", f"{s.end:.9g}", json.dumps(s.attrs, sort_keys=True)]
        for s in trace.spans
    ]
    assert sorted(span_rows) == sorted(expected)
    # Written as spans close, so in end-time order (open order is not).
    ends = [float(row[4]) for row in span_rows]
    assert ends == sorted(ends)
    assert [float(row[4]) for row in expected] != ends


def test_run_with_trace_out(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    code = main(["run", "--rate", "110", "--horizon", "2",
                 "--trace-out", str(path)])
    assert code == 0
    assert path.exists()
    assert "trace records" in capsys.readouterr().out


def test_run_with_trace_flag_prints_summary(capsys):
    code = main(["run", "--rate", "110", "--horizon", "2", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "jobs (" in out


def test_scenario_with_trace_out(tmp_path, capsys):
    path = tmp_path / "scen.jsonl"
    code = main(["scenario", "gps_tracking", "--horizon", "2",
                 "--trace-out", str(path)])
    assert code == 0
    assert path.exists()


def test_unknown_trace_scenario_raises():
    with pytest.raises(KeyError):
        main(["trace", "--scenario", "nope", "--horizon", "1"])


def test_run_with_sanitize_flag(capsys):
    code = main(["run", "--scheduler", "GE", "--rate", "120",
                 "--horizon", "3", "--sanitize"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sanitizer:" in out and "checks passed" in out


def test_scenario_with_sanitize(capsys):
    assert main(["scenario", "websearch", "--horizon", "2", "--sanitize"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_trace_with_sanitize(tmp_path, capsys):
    out_path = str(tmp_path / "trace.jsonl")
    assert main(["trace", "--horizon", "2", "--sanitize", "--out", out_path,
                 "--no-summary"]) == 0
    assert "checks passed" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Streaming telemetry, run registry and HTML report commands
# ----------------------------------------------------------------------
def test_run_stream_prints_slo_panel(capsys):
    code = main(["run", "--scheduler", "GE", "--rate", "120",
                 "--horizon", "3", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slo:" in out and "quality_floor" in out


def test_stream_composes_with_sanitize(capsys):
    code = main(["run", "--scheduler", "GE", "--rate", "100", "--horizon", "2",
                 "--trace", "--sanitize"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slo:" in out and "quality_floor" in out
    assert "sanitizer:" in out and "invariant checks passed" in out


def test_store_and_runs_lifecycle(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    trace = str(tmp_path / "trace.jsonl")
    # --store traces the run; --trace-out spills the raw records too.
    code = main(["run", "--scheduler", "GE", "--rate", "120", "--horizon", "3",
                 "--store", "--runs-dir", runs_dir, "--trace-out", trace])
    assert code == 0
    out = capsys.readouterr().out
    assert "stored run" in out
    run_id = out.split("stored run ")[1].split()[0]

    assert main(["runs", "list", "--runs-dir", runs_dir]) == 0
    assert run_id in capsys.readouterr().out

    assert main(["runs", "show", run_id[:8], "--runs-dir", runs_dir]) == 0
    assert "quality_floor" in capsys.readouterr().out

    report = str(tmp_path / "report.html")
    assert main(["report", "--run", run_id[:8], "--runs-dir", runs_dir,
                 "--out", report]) == 0
    html = open(report, encoding="utf-8").read()
    assert "Mode timeline" in html and "<svg" in html

    assert main(["runs", "delete", run_id, "--runs-dir", runs_dir]) == 0
    assert main(["runs", "list", "--runs-dir", runs_dir]) == 0
    assert "no stored runs" in capsys.readouterr().out


def test_runs_diff_two_schedulers(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    for sched in ("GE", "BE"):
        assert main(["run", "--scheduler", sched, "--rate", "120",
                     "--horizon", "3", "--store", "--runs-dir", runs_dir]) == 0
    out = capsys.readouterr().out
    ids = [line.split("stored run ")[1].split()[0]
           for line in out.splitlines() if "stored run" in line]
    assert len(ids) == 2
    assert main(["runs", "diff", ids[0], ids[1], "--runs-dir", runs_dir]) == 0
    diff_out = capsys.readouterr().out
    assert "scheduler" in diff_out and "result:" in diff_out


def test_runs_show_unknown_id_errors(tmp_path, capsys):
    code = main(["runs", "show", "nope", "--runs-dir", str(tmp_path)])
    assert code == 2
    assert "no stored run" in capsys.readouterr().out


def test_report_from_trace_and_trace_show(tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    assert main(["trace", "--scheduler", "GE", "--rate", "120", "--horizon", "3",
                 "--out", trace, "--no-summary"]) == 0
    capsys.readouterr()
    report = str(tmp_path / "report.html")
    assert main(["report", "--trace", trace, "--out", report]) == 0
    assert "wrote" in capsys.readouterr().out
    assert "SLO compliance" in open(report, encoding="utf-8").read()
    # trace show folds the spill offline and prints the same panel.
    assert main(["trace", "show", trace]) == 0
    assert "quality_floor" in capsys.readouterr().out


def test_every_path_prints_one_digest(tmp_path, capsys):
    # A traced run, `trace show` of its file and the digest of an API
    # Tracer's buffered trace print the same lines from the SLO panel
    # on, under the same run id.
    from repro.config import SimulationConfig
    from repro.core.ge import make_ge
    from repro.obs import Tracer, summarize
    from repro.server.harness import SimulationHarness

    path = str(tmp_path / "t.jsonl")
    outputs = []
    for argv in (["trace", "--rate", "150", "--horizon", "3", "--seed", "1",
                  "--out", path], ["trace", "show", path]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    tracer = Tracer()
    config = SimulationConfig(arrival_rate=150.0, horizon=3.0, seed=1)
    SimulationHarness(config, make_ge(), tracer=tracer).run()
    outputs.append(summarize(tracer.to_trace()).splitlines())
    run_lines = [line for line in outputs[0] if line.startswith("run ")]
    assert len(run_lines) == 1
    digests = []
    for lines in outputs:
        assert [line for line in lines if line.startswith("run ")] == run_lines
        slo = next(i for i, line in enumerate(lines) if line.startswith("  slo:"))
        digests.append(lines[slo:])
    assert digests[1:] == [digests[0]] * 2
    assert any(line.startswith("  jobs (") for line in digests[0])
    assert any(line.startswith("  metrics:") for line in digests[0])


def test_runs_list_json_format(tmp_path, capsys):
    import json

    runs_dir = str(tmp_path / "runs")
    assert main(["run", "--scheduler", "GE", "--rate", "120", "--horizon", "3",
                 "--store", "--runs-dir", runs_dir]) == 0
    capsys.readouterr()
    assert main(["runs", "list", "--format", "json", "--runs-dir", runs_dir]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["scheduler"] == "GE"
    assert rows[0]["schema"] == "repro.run/1"
    # Empty store: valid JSON too, not the "no stored runs" prose.
    assert main(["runs", "list", "--format", "json",
                 "--runs-dir", str(tmp_path / "empty")]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_runs_gc_keeps_newest_and_pins(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    for seed in ("1", "2", "3"):
        assert main(["run", "--scheduler", "GE", "--rate", "120",
                     "--horizon", "2", "--seed", seed,
                     "--store", "--runs-dir", runs_dir]) == 0
    out = capsys.readouterr().out
    ids = [line.split("stored run ")[1].split()[0]
           for line in out.splitlines() if "stored run" in line]
    assert len(ids) == 3
    # Pin the oldest; keep 1 → only the middle run is collected.
    assert main(["runs", "gc", "--keep", "1", "--pin", ids[0],
                 "--runs-dir", runs_dir]) == 0
    gc_out = capsys.readouterr().out
    assert ids[1] in gc_out and "deleted 1" in gc_out
    assert main(["runs", "list", "--runs-dir", runs_dir]) == 0
    listed = capsys.readouterr().out
    assert ids[0] in listed and ids[2] in listed and ids[1] not in listed


def test_fleet_run_status_report_lifecycle(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    report = str(tmp_path / "fleet.html")
    assert main(["fleet", "run", "--scenarios", "ge_light", "--seeds", "1,2",
                 "--scale", "0.005", "--workers", "1", "--runs-dir", runs_dir,
                 "--report", report, "--min-slo-compliance", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "mode=sequential" in out
    assert "2 total, 2 succeeded, 0 failed" in out
    assert "stored fleet fleet-" in out
    assert "SLO compliance" in out
    assert "Per-scenario rollup" in open(report, encoding="utf-8").read()

    # status / report resolve the newest stored fleet when no id given.
    assert main(["fleet", "status", "--runs-dir", runs_dir]) == 0
    assert "mode=sequential" in capsys.readouterr().out
    report2 = str(tmp_path / "fleet2.html")
    assert main(["fleet", "report", "--runs-dir", runs_dir,
                 "--out", report2]) == 0
    assert "wrote" in capsys.readouterr().out


def test_fleet_rejects_bad_grids(tmp_path, capsys):
    assert main(["fleet", "run", "--scenarios", "no_such", "--seeds", "1",
                 "--no-store", "--workers", "1",
                 "--runs-dir", str(tmp_path)]) == 2
    assert "no_such" in capsys.readouterr().out
    assert main(["fleet", "status", "--runs-dir", str(tmp_path)]) == 2
    assert "no stored fleet runs" in capsys.readouterr().out


def test_fleet_status_rejects_single_run_ids(tmp_path, capsys):
    runs_dir = str(tmp_path / "runs")
    assert main(["run", "--scheduler", "GE", "--rate", "120", "--horizon", "2",
                 "--store", "--runs-dir", runs_dir]) == 0
    out = capsys.readouterr().out
    run_id = [line.split("stored run ")[1].split()[0]
              for line in out.splitlines() if "stored run" in line][0]
    assert main(["fleet", "status", run_id, "--runs-dir", runs_dir]) == 2
    assert "not a fleet rollup" in capsys.readouterr().out


def test_runs_show_prints_a_stored_fleet_as_fleet_status(tmp_path, capsys):
    from repro.experiments.fleet import run_fleet
    from repro.experiments.registry import fleet_grid

    runs_dir = str(tmp_path / "runs")
    tasks = fleet_grid(["ge_light"], [1], scale=0.002)
    fleet_id = run_fleet(tasks, workers=1, runs_dir=runs_dir).fleet_id
    assert main(["fleet", "status", fleet_id, "--runs-dir", runs_dir]) == 0
    status = capsys.readouterr().out
    assert main(["runs", "show", fleet_id, "--runs-dir", runs_dir]) == 0
    assert capsys.readouterr().out == status
    assert status.startswith(f"fleet {fleet_id}")


def test_runs_diff_of_two_fleets_compares_their_rollups(tmp_path, capsys):
    """Two fleets diff on their rollups (a fleet keeps its numbers under
    ``rollup``, not ``result``); a run against a fleet is refused."""
    from repro.experiments.fleet import run_fleet
    from repro.experiments.registry import fleet_grid

    runs_dir = str(tmp_path / "runs")
    fleets = [
        run_fleet(fleet_grid(["ge_light"], [seed], scale=0.002), workers=1, runs_dir=runs_dir)
        for seed in (1, 2)
    ]
    rows = [f.summary["rollup"]["scenarios"]["ge_light"] for f in fleets]
    assert rows[0]["quality_mean"] != rows[1]["quality_mean"]
    assert rows[0]["energy_sum"] != rows[1]["energy_sum"]

    assert main(["runs", "diff", fleets[0].fleet_id, fleets[1].fleet_id,
                 "--runs-dir", runs_dir]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"diff {fleets[0].fleet_id} → {fleets[1].fleet_id}"
    assert "  tasks:" in out and "  scenario ge_light:" in out
    body = out[out.index("  scenario ge_light:") + 1:]
    for field in ("tasks", "slo_compliant", "slo_evaluated", "quality_min",
                  "quality_mean", "quality_max", "energy_sum"):
        a, b = rows[0][field], rows[1][field]
        assert any(
            line.startswith(f"    {field:<18} {a:.6g} → {b:.6g}") for line in body
        ), field

    task_run = fleets[0].summary["tasks"][0]["run_id"]
    assert main(["runs", "diff", task_run, fleets[1].fleet_id,
                 "--runs-dir", runs_dir]) == 2
    refused = capsys.readouterr().out
    assert "repro.run/1" in refused and "repro.fleet/1" in refused
