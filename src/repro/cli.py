"""Command-line interface: regenerate paper figures and run single sims.

Examples
--------
List the reproducible figures::

    repro-cli list

Regenerate Fig. 3 at its default reduced horizon, or at the paper's
full 10-minute horizon::

    repro-cli fig 3
    repro-cli fig 3 --paper-scale

Run one scheduler once and print its summary row::

    repro-cli run --scheduler GE --rate 150 --horizon 30

Record a full trace (job spans, scheduler events, core timelines) of a
scenario run and export it as JSONL::

    repro-cli trace --scenario websearch --out trace.jsonl

Any ``run``/``scenario`` invocation can also print the run digest, or
write the trace too, via ``--trace`` / ``--trace-out PATH``.

Every traced run uses one constant-memory tracer
(:class:`repro.obs.StreamingTracer`): the run's digest is folded while
it runs, and each requested file (``--out``/``--trace-out`` JSONL,
``--timeline-csv``, ``--spans-csv``) is a sink written record by
record, so memory stays flat in the horizon and an interrupted run
still leaves complete files.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines.clairvoyant import make_oracle
from repro.baselines.queue_order import FCFS, FDFS, LJF, SJF
from repro.config import SimulationConfig
from repro.core.ge import GEScheduler, make_be, make_ge, make_oq
from repro.experiments.registry import get_figure, list_figures
from repro.server.harness import SimulationHarness

__all__ = ["main"]

_SCHEDULERS = {
    "GE": make_ge,
    "BE": make_be,
    "OQ": make_oq,
    "GE-NOCOMP": lambda: GEScheduler(name="GE-NoComp", compensated=False),
    "GE-ORACLE": make_oracle,
    "GE-ES": lambda: GEScheduler(name="GE-ES", distribution="es"),
    "GE-WF": lambda: GEScheduler(name="GE-WF", distribution="wf"),
    "FCFS": FCFS,
    "FDFS": FDFS,
    "LJF": LJF,
    "SJF": SJF,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Reproduce 'When Good Enough Is Better' (IPDPSW 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures")

    fig = sub.add_parser("fig", help="regenerate one paper figure")
    fig.add_argument("figure", help="figure id (e.g. 3 or fig03)")
    fig.add_argument("--scale", type=float, default=None,
                     help="horizon scale (1.0 = the paper's 10 minutes)")
    fig.add_argument("--paper-scale", action="store_true",
                     help="run at the paper's full scale (scale=1.0)")
    fig.add_argument("--seed", type=int, default=1)
    fig.add_argument("--csv", metavar="PATH", default=None,
                     help="also write the figure's series as CSV")

    run = sub.add_parser("run", help="run one scheduler once")
    run.add_argument("--scheduler", default="GE", choices=sorted(_SCHEDULERS))
    run.add_argument("--rate", type=float, default=150.0, help="arrival rate (req/s)")
    run.add_argument("--horizon", type=float, default=60.0, help="seconds of arrivals")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--cores", type=int, default=16)
    run.add_argument("--budget", type=float, default=320.0, help="power budget (W)")
    run.add_argument("--q-ge", type=float, default=0.9, help="good-enough quality")
    _add_trace_flags(run)

    sweep = sub.add_parser("sweep", help="sweep schedulers across arrival rates")
    sweep.add_argument("--schedulers", default="GE,BE",
                       help="comma-separated scheduler names")
    sweep.add_argument("--rates", default="100,150,200,250",
                       help="comma-separated arrival rates (req/s)")
    sweep.add_argument("--horizon", type=float, default=20.0)
    sweep.add_argument("--seed", type=int, default=1)

    scen = sub.add_parser("scenario", help="run a named application scenario")
    scen.add_argument("name", nargs="?", default=None,
                      help="scenario name; omit to list the presets")
    scen.add_argument("--scheduler", default="GE", choices=sorted(_SCHEDULERS))
    scen.add_argument("--rate", type=float, default=None,
                      help="arrival rate (default: the scenario's nominal rate)")
    scen.add_argument("--horizon", type=float, default=30.0)
    scen.add_argument("--seed", type=int, default=1)
    _add_trace_flags(scen)

    report = sub.add_parser(
        "report",
        help="regenerate figures into a markdown report, or render an "
             "HTML dashboard for a run (--run / --trace)",
    )
    report.add_argument("--scale", type=float, default=None,
                        help="horizon scale for every figure (default: per-figure)")
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--out", metavar="PATH", default=None,
                        help="write to a file instead of stdout "
                             "(HTML mode default: report.html)")
    report.add_argument("--figures", nargs="*", default=None,
                        help="subset of figure ids (default: all twelve)")
    report.add_argument("--run", metavar="ID", default=None,
                        help="render the HTML dashboard of a stored run "
                             "(accepts unique id prefixes)")
    report.add_argument("--trace", metavar="PATH", default=None,
                        help="render the HTML dashboard of a JSONL trace file")
    _add_runs_dir_flag(report)

    runs = sub.add_parser("runs", help="inspect the stored run registry")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list stored runs, newest first")
    runs_list.add_argument("--format", default="table", choices=("table", "json"),
                           help="output format (json is machine-readable)")
    runs_show = runs_sub.add_parser("show", help="show one stored run summary")
    runs_show.add_argument("run_id", help="run id (unique prefixes accepted)")
    runs_diff = runs_sub.add_parser(
        "diff", help="diff two stored runs (results, SLOs, counters)"
    )
    runs_diff.add_argument("a", help="baseline run id")
    runs_diff.add_argument("b", help="candidate run id")
    runs_delete = runs_sub.add_parser("delete", help="delete one stored run")
    runs_delete.add_argument("run_id", help="run id (unique prefixes accepted)")
    runs_gc = runs_sub.add_parser(
        "gc", help="prune old runs, keeping the newest N (--pin ids never die)"
    )
    runs_gc.add_argument("--keep", type=int, required=True,
                         help="number of newest runs to keep")
    runs_gc.add_argument("--pin", action="append", default=[], metavar="ID",
                         help="run id to protect from pruning "
                              "(repeatable; unique prefixes accepted)")
    for runs_parser in (runs_list, runs_show, runs_diff, runs_delete, runs_gc):
        _add_runs_dir_flag(runs_parser)

    fleet = sub.add_parser(
        "fleet",
        help="run an experiment grid across worker processes and roll "
             "up the results",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="execute a scenario × seed × rate grid"
    )
    fleet_run.add_argument("--scenarios", default="ge_light,ge_nominal",
                           help="comma-separated fleet scenario names "
                                "(see repro.experiments.registry.FLEET_SCENARIOS)")
    fleet_run.add_argument("--seeds", default="1,2",
                           help="comma-separated seeds")
    fleet_run.add_argument("--rates", default=None,
                           help="comma-separated arrival-rate overrides "
                                "(optional third grid axis)")
    fleet_run.add_argument("--scale", type=float, default=0.02,
                           help="horizon scale per task (default 0.02 ≈ 12 s)")
    fleet_run.add_argument("--workers", type=int, default=2,
                           help="worker processes (spawn start method); 1 "
                                "runs the tasks in-process, one at a time")
    fleet_run.add_argument("--no-store", action="store_true",
                           help="do not persist summaries into the run registry")
    fleet_run.add_argument("--report", metavar="PATH", default=None,
                           help="also write the fleet HTML dashboard")
    fleet_run.add_argument("--min-slo-compliance", type=float, default=None,
                           help="exit 1 unless the fleet-wide SLO compliance "
                                "fraction reaches this value (CI gate)")
    fleet_status = fleet_sub.add_parser(
        "status", help="show a stored fleet rollup as text"
    )
    fleet_status.add_argument("run_id", nargs="?", default=None,
                              help="fleet run id (default: the newest fleet)")
    fleet_report = fleet_sub.add_parser(
        "report", help="render a stored fleet rollup as an HTML dashboard"
    )
    fleet_report.add_argument("run_id", nargs="?", default=None,
                              help="fleet run id (default: the newest fleet)")
    fleet_report.add_argument("--out", metavar="PATH", default="fleet-report.html")
    for fleet_parser in (fleet_run, fleet_status, fleet_report):
        _add_runs_dir_flag(fleet_parser)

    chaos = sub.add_parser(
        "chaos",
        help="run deterministic disturbance scenarios (repro.chaos) and "
             "analyze degradation against the undisturbed twin",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_sub.add_parser("list", help="list the chaos scenario catalog")
    chaos_run = chaos_sub.add_parser(
        "run", help="run one scenario and its undisturbed twin"
    )
    chaos_run.add_argument("name", help="catalog scenario name (see 'chaos list')")
    chaos_run.add_argument("--scale", type=float, default=0.02,
                           help="horizon scale (default 0.02 ≈ 12 s)")
    chaos_run.add_argument("--seed", type=int, default=1)
    chaos_run.add_argument("--json", metavar="PATH", default=None,
                           help="write the annotated run summary as JSON")
    chaos_run.add_argument("--report", metavar="PATH", default=None,
                           help="write the HTML degradation report")
    chaos_run.add_argument("--max-recovery-s", type=float, default=None,
                           help="exit 1 if any disturbance's recovery time "
                                "exceeds this bound (CI gate)")
    chaos_run.add_argument("--min-post-compliance", type=float, default=None,
                           help="exit 1 unless the post-recovery quality-floor "
                                "compliance reaches this fraction (CI gate)")
    chaos_report = chaos_sub.add_parser(
        "report", help="render a saved chaos JSON summary as HTML"
    )
    chaos_report.add_argument("path", help="input JSON (from 'chaos run --json')")
    chaos_report.add_argument("--out", metavar="PATH", default="chaos-report.html")

    rep = sub.add_parser("replicate", help="replicate one scheduler across seeds")
    rep.add_argument("--scheduler", default="GE", choices=sorted(_SCHEDULERS))
    rep.add_argument("--rate", type=float, default=150.0)
    rep.add_argument("--horizon", type=float, default=30.0)
    rep.add_argument("--seed", type=int, default=1, help="first seed of the ladder")
    rep.add_argument("--n", type=int, default=5, help="number of replications")

    trace = sub.add_parser(
        "trace",
        help="run with tracing on and export the telemetry "
             "(or save/replay workload traces)",
    )
    trace.add_argument("--scenario", default=None,
                       help="named application scenario (e.g. websearch); "
                            "omit for the paper's default workload")
    trace.add_argument("--scheduler", default="GE", choices=sorted(_SCHEDULERS))
    trace.add_argument("--rate", type=float, default=None,
                       help="arrival rate (default: scenario nominal, else 150)")
    trace.add_argument("--horizon", type=float, default=30.0)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write the trace as JSONL")
    trace.add_argument("--timeline-csv", metavar="PATH", default=None,
                       help="also write the per-core timeline samples as CSV")
    trace.add_argument("--spans-csv", metavar="PATH", default=None,
                       help="also write the spans as CSV")
    trace.add_argument("--no-summary", action="store_true",
                       help="suppress the trace summary on stdout")
    _add_sanitize_flag(trace)
    _add_store_flags(trace)
    trace_sub = trace.add_subparsers(dest="trace_command", required=False)
    trace_show = trace_sub.add_parser(
        "show", help="summarize a JSONL trace file (streaming, constant memory)"
    )
    trace_show.add_argument("path", help="input trace.jsonl")
    save = trace_sub.add_parser("save", help="materialize a workload to CSV")
    save.add_argument("path", help="output CSV file")
    save.add_argument("--rate", type=float, default=150.0)
    save.add_argument("--horizon", type=float, default=60.0)
    save.add_argument("--seed", type=int, default=1)
    replay = trace_sub.add_parser("replay", help="run a scheduler on a saved trace")
    replay.add_argument("path", help="input CSV file")
    replay.add_argument("--scheduler", default="GE", choices=sorted(_SCHEDULERS))
    replay.add_argument("--q-ge", type=float, default=0.9)

    return parser


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` / ``--trace-out`` options."""
    parser.add_argument("--trace", action="store_true",
                        help="record a trace and print its summary")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="record a trace and write it as JSONL (implies --trace)")
    _add_sanitize_flag(parser)
    _add_store_flags(parser)


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the run-registry options (``--store``/``--runs-dir``)."""
    parser.add_argument("--store", action="store_true",
                        help="save the run summary into the run registry "
                             "(see 'repro-cli runs')")
    _add_runs_dir_flag(parser)


def _add_runs_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs-dir", metavar="PATH", default=None,
                        help="run registry root (default: $REPRO_RUNS_DIR "
                             "or ./.repro-runs)")


def _add_sanitize_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sanitize", action="store_true",
                        help="assert simulation invariants while running")


def _resolve_scenario(name: str) -> str:
    """Map a user-typed scenario name to its canonical key.

    Accepts separator-free aliases (``websearch`` → ``web_search``).
    """
    from repro.workload.scenarios import SCENARIOS

    if name in SCENARIOS:
        return name
    normalized = name.replace("-", "").replace("_", "").lower()
    for key in SCENARIOS:
        if key.replace("_", "").lower() == normalized:
            return key
    # Same contract as scenario_config for unknown names.
    raise KeyError(
        f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
    )


def _new_tracer(config: SimulationConfig, scheduler, *, sanitize: bool = False,
                out: Optional[str] = None, timeline_csv: Optional[str] = None,
                spans_csv: Optional[str] = None):
    """The one tracer of a traced CLI run, and the files it writes.

    A :class:`repro.obs.StreamingTracer`; each flag adds a sink: ``out``
    the JSONL spill, ``sanitize`` the invariant checks
    (:class:`repro.check.Sanitizer`), ``timeline_csv``/``spans_csv`` the
    CSV writers.  Returns the tracer and a ``(path, sink, noun)`` triple
    per file, for reporting what was written.
    """
    from repro.check.sanitizer import Sanitizer
    from repro.obs import SpansCsv, StreamingTracer, TimelineCsv

    tracer = StreamingTracer(spill_path=out)
    files = [] if out is None else [(out, tracer.spill, "trace records")]
    if sanitize:
        tracer.sinks += (Sanitizer.for_run(config, scheduler),)
    for path, sink_type, noun in ((timeline_csv, TimelineCsv, "timeline samples"),
                                  (spans_csv, SpansCsv, "spans")):
        if path:
            sink = sink_type(path)
            tracer.sinks += (sink,)
            files.append((path, sink, noun))
    return tracer, files


def _report_sanitizer(tracer) -> None:
    """Print the clean-run summary line after a sanitized run."""
    from repro.check.sanitizer import Sanitizer

    for sink in getattr(tracer, "sinks", ()):
        if isinstance(sink, Sanitizer):
            print(f"sanitizer: {sink.checks_run} invariant checks passed")


def _emit(tracer, result, files, *, out=None, store=False, runs_dir=None,
          summary=True) -> None:
    """Report, store and print a traced run's telemetry.

    The tracer has written its files and folded its digest while the
    run went; this prints what each file holds, saves the summary
    (``store``) and prints the digest that ``trace show`` prints for
    the JSONL file (:func:`repro.obs.runs.format_run`).  ``result`` is
    ``None`` for an interrupted run.
    """
    from dataclasses import asdict

    from repro.obs.runs import RunStore, format_run, make_summary

    verb = "flushed" if result is None else "wrote"
    for path, sink, noun in files:
        print(f"{verb} {sink.written} {noun} to {path}")
    if not (summary or store):
        return
    doc = make_summary(tracer.summary(),
                       result=None if result is None else asdict(result))
    if store:
        registry = RunStore(runs_dir)
        run_id = registry.save(doc, trace_path=out)
        kind = "interrupted run" if result is None else "run"
        print(f"stored {kind} {run_id} in {registry.root}")
    if summary:
        print(format_run(doc))


def _run_and_report(args, config: SimulationConfig, *, traced: bool,
                    out: Optional[str], timeline_csv=None, spans_csv=None,
                    summary: bool = True) -> int:
    """Run ``args.scheduler`` on ``config``; print its row and telemetry.

    Shared by ``run``, ``scenario`` and ``trace``.  ``traced`` asks for
    the run digest and ``out`` names the JSONL file; ``--sanitize`` and
    ``--store`` trace the run too.  Returns the exit code, 130 after
    Ctrl-C: the tracer is then closed at the interrupt's simulated time,
    so every file ends on a complete line (a record is one ``write``),
    the spill gets its final meta/metrics tail, and ``--store`` saves
    the partial summary flagged ``interrupted``.
    """
    scheduler = _SCHEDULERS[args.scheduler]()
    tracer, files = None, []
    if traced or args.sanitize or args.store:
        tracer, files = _new_tracer(config, scheduler, sanitize=args.sanitize,
                                    out=out, timeline_csv=timeline_csv,
                                    spans_csv=spans_csv)
    harness = SimulationHarness(config, scheduler, tracer=tracer)
    try:
        result = harness.run()
    except KeyboardInterrupt:
        now = float(getattr(harness.sim, "now", 0.0))
        print(f"interrupted at simulated t={now:g}s")
        if tracer is not None:
            tracer.meta["interrupted"] = True
            tracer.close(end=now)
            _emit(tracer, None, files, out=out, store=args.store,
                  runs_dir=args.runs_dir, summary=False)
        return 130
    print(result.row())
    _report_sanitizer(tracer)
    if traced or args.store:
        _emit(tracer, result, files, out=out, store=args.store,
              runs_dir=args.runs_dir, summary=summary)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for spec in list_figures():
            print(f"{spec.figure_id}  (default scale {spec.default_scale:g})  {spec.title}")
        return 0

    if args.command == "fig":
        spec = get_figure(args.figure)
        scale = 1.0 if args.paper_scale else (args.scale or spec.default_scale)
        result = spec.run(scale=scale, seed=args.seed)
        print(result.to_text())
        if args.csv:
            from pathlib import Path

            Path(args.csv).write_text(result.to_csv())
            print(f"wrote CSV to {args.csv}")
        return 0

    if args.command == "run":
        config = SimulationConfig(
            arrival_rate=args.rate,
            horizon=args.horizon,
            seed=args.seed,
            m=args.cores,
            budget=args.budget,
            q_ge=args.q_ge,
        )
        return _run_and_report(args, config, traced=args.trace or bool(args.trace_out),
                               out=args.trace_out)

    if args.command == "sweep":
        names = [n.strip().upper() for n in args.schedulers.split(",") if n.strip()]
        unknown = [n for n in names if n not in _SCHEDULERS]
        if unknown:
            print(f"unknown scheduler(s): {', '.join(unknown)}; "
                  f"available: {', '.join(sorted(_SCHEDULERS))}")
            return 2
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
        for rate in rates:
            config = SimulationConfig(
                arrival_rate=rate, horizon=args.horizon, seed=args.seed
            )
            for name in names:
                result = SimulationHarness(config, _SCHEDULERS[name]()).run()
                print(result.row())
        return 0

    if args.command == "scenario":
        from repro.workload.scenarios import SCENARIOS, scenario_config

        if args.name is None:
            for name in sorted(SCENARIOS):
                s = SCENARIOS[name]
                print(f"{name:<22} nominal λ={s.nominal_rate:g} r/s")
                print(f"    {s.description}")
            return 0
        config = scenario_config(
            _resolve_scenario(args.name),
            arrival_rate=args.rate, horizon=args.horizon, seed=args.seed,
        )
        return _run_and_report(args, config, traced=args.trace or bool(args.trace_out),
                               out=args.trace_out)

    if args.command == "report":
        if args.run or args.trace:
            # HTML dashboard mode: a stored run or a raw JSONL trace.
            from repro.errors import ReproError
            from repro.obs import write_report

            if args.run and args.trace:
                print("report: give either --run or --trace, not both")
                return 2
            if args.run:
                from repro.obs.runs import RunStore

                try:
                    summary = RunStore(args.runs_dir).load(args.run)
                except ReproError as exc:
                    print(f"report: {exc}")
                    return 2
            else:
                from repro.obs import fold_summary, iter_jsonl

                summary = fold_summary(iter_jsonl(args.trace))
            out = args.out or "report.html"
            nbytes = write_report(summary, out)
            print(f"wrote HTML report ({nbytes} bytes) to {out}")
            return 0
        from repro.experiments.paper_report import generate_report

        text = generate_report(scale=args.scale, seed=args.seed, figures=args.figures)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text)
            print(f"wrote report to {args.out}")
        else:
            print(text)
        return 0

    if args.command == "runs":
        from repro.errors import ReproError
        from repro.obs.runs import (
            FLEET_SCHEMA,
            RunStore,
            diff_runs,
            format_diff,
            format_fleet,
            format_run,
            format_runs_table,
        )

        registry = RunStore(args.runs_dir)
        try:
            if args.runs_command == "list":
                rows = registry.list()
                if args.format == "json":
                    import json

                    print(json.dumps(rows, indent=2, sort_keys=True))
                else:
                    print(format_runs_table(rows))
            elif args.runs_command == "show":
                summary = registry.load(args.run_id)
                if summary.get("schema") == FLEET_SCHEMA:
                    print(format_fleet(summary))
                else:
                    print(format_run(summary))
            elif args.runs_command == "diff":
                print(format_diff(diff_runs(registry.load(args.a),
                                            registry.load(args.b))))
            elif args.runs_command == "delete":
                run_id = registry.resolve(args.run_id)
                registry.delete(run_id)
                print(f"deleted run {run_id}")
            elif args.runs_command == "gc":
                deleted = registry.gc(args.keep, pin=args.pin)
                for run_id in deleted:
                    print(f"deleted run {run_id}")
                print(f"gc: kept {len(registry.ids())} run(s), "
                      f"deleted {len(deleted)}")
        except ReproError as exc:
            print(f"runs: {exc}")
            return 2
        return 0

    if args.command == "fleet":
        from repro.errors import ReproError
        from repro.obs.runs import FLEET_SCHEMA, RunStore, format_fleet

        if args.fleet_command == "run":
            from repro.experiments.fleet import fleet_compliance, run_fleet
            from repro.experiments.registry import fleet_grid

            scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
                rates = ([float(r) for r in args.rates.split(",") if r.strip()]
                         if args.rates else None)
                tasks = fleet_grid(scenarios, seeds, rates=rates, scale=args.scale)
            except (KeyError, ValueError) as exc:
                print(f"fleet: {exc.args[0] if exc.args else exc}")
                return 2
            store = not args.no_store
            try:
                outcome = run_fleet(
                    tasks, workers=args.workers, runs_dir=args.runs_dir,
                    store=store, progress=print,
                )
            except KeyboardInterrupt:
                print("fleet: interrupted")
                return 130
            except ReproError as exc:
                print(f"fleet: {exc}")
                return 2
            print(format_fleet(outcome.summary))
            if store:
                print(f"stored fleet {outcome.fleet_id} "
                      f"(+{len(outcome.run_ids)} run summaries) in "
                      f"{RunStore(args.runs_dir).root}")
            if args.report:
                from repro.obs import write_report

                nbytes = write_report(outcome.summary, args.report)
                print(f"wrote fleet dashboard ({nbytes} bytes) to {args.report}")
            if args.min_slo_compliance is not None:
                compliance = fleet_compliance(outcome.summary["rollup"])
                if compliance is None or compliance < args.min_slo_compliance:
                    shown = "n/a" if compliance is None else f"{compliance:.3f}"
                    print(f"fleet: SLO compliance {shown} below the "
                          f"{args.min_slo_compliance:g} gate")
                    return 1
                print(f"fleet: SLO compliance {compliance:.3f} >= "
                      f"{args.min_slo_compliance:g} gate")
            return outcome.exit_code

        registry = RunStore(args.runs_dir)
        try:
            fleet_id = args.run_id
            if fleet_id is None:
                fleet_id = next(
                    (row["run_id"] for row in registry.list()
                     if row.get("schema") == FLEET_SCHEMA),
                    None,
                )
                if fleet_id is None:
                    print(f"fleet: no stored fleet runs under {registry.root}")
                    return 2
            summary = registry.load(fleet_id)
        except ReproError as exc:
            print(f"fleet: {exc}")
            return 2
        if summary.get("schema") != FLEET_SCHEMA:
            print(f"fleet: {summary.get('run_id', fleet_id)} is not a fleet "
                  "rollup (see 'repro-cli runs show' for single runs)")
            return 2
        if args.fleet_command == "status":
            print(format_fleet(summary))
            return 0
        from repro.obs import write_report

        nbytes = write_report(summary, args.out)
        print(f"wrote fleet dashboard ({nbytes} bytes) to {args.out}")
        return 0

    if args.command == "chaos":
        from repro.experiments.registry import CHAOS_SCENARIOS

        if args.chaos_command == "list":
            for name in sorted(CHAOS_SCENARIOS):
                scenario = CHAOS_SCENARIOS[name]
                print(f"{name:<18} {scenario.description}")
            return 0
        if args.chaos_command == "report":
            import json

            from repro.obs import write_report

            try:
                summary = json.loads(open(args.path, encoding="utf-8").read())
            except (OSError, ValueError) as exc:
                print(f"chaos report: {exc}")
                return 2
            nbytes = write_report(summary, args.out)
            print(f"wrote chaos report ({nbytes} bytes) to {args.out}")
            return 0

        from repro.experiments.chaos import evaluate_gate, run_chaos_scenario

        try:
            summary = run_chaos_scenario(
                args.name, scale=args.scale, seed=args.seed
            )
        except KeyError as exc:
            print(f"chaos: {exc.args[0]}")
            return 2
        scenario_meta = summary["scenario"]
        degradation = summary["degradation"]
        print(f"scenario {scenario_meta['name']}: "
              f"{scenario_meta['description']}")
        for line in scenario_meta["disturbances"]:
            print(f"  - {line}")
        quality = degradation["quality"]
        energy = degradation["energy"]
        floor = degradation["floor"]
        post = degradation["post"]
        print(f"quality: disturbed {quality['disturbed']:.6f} vs twin "
              f"{quality['twin']:.6f} (delta {quality['delta']:+.6f})")
        print(f"energy:  disturbed {energy['disturbed']:.1f} J vs twin "
              f"{energy['twin']:.1f} J (overhead {energy['overhead_j']:+.1f} J)")
        print(f"floor:   {floor['disturbed_violation_s']:.3f} s below "
              f"Q_GE={degradation['q_floor']:g} "
              f"(twin {floor['twin_violation_s']:.3f} s, "
              f"degradation {floor['degradation_s']:+.3f} s)")
        for rec in degradation["recoveries"]:
            recovery = rec["recovery_s"]
            shown = "never" if recovery is None else f"{recovery:.3f} s"
            print(f"recovery: {rec['detail']} -> {shown}")
        if post["compliance"] is not None:
            print(f"post-recovery compliance: {post['compliance']:.3f} "
                  f"({post['compliant']}/{post['windows']} windows after "
                  f"t={post['after_s']:g}s)")
        if args.json:
            import json

            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote chaos summary to {args.json}")
        if args.report:
            from repro.obs import write_report

            nbytes = write_report(summary, args.report)
            print(f"wrote chaos report ({nbytes} bytes) to {args.report}")
        failures = evaluate_gate(
            degradation,
            max_recovery_s=args.max_recovery_s,
            min_post_compliance=args.min_post_compliance,
        )
        if failures:
            print(f"chaos gate FAILED ({len(failures)}):")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        if args.max_recovery_s is not None or args.min_post_compliance is not None:
            print("chaos gate passed")
        return 0

    if args.command == "replicate":
        from repro.experiments.replication import replicate

        config = SimulationConfig(
            arrival_rate=args.rate, horizon=args.horizon, seed=args.seed
        )
        summary = replicate(config, _SCHEDULERS[args.scheduler], n=args.n)
        print(summary.row())
        return 0

    if args.command == "trace":
        from repro.workload.generator import StaticWorkload
        from repro.workload.traces import load_trace, save_trace

        if args.trace_command is None:
            # Telemetry mode: run one scenario with tracing on and
            # print/export the artifacts.
            from repro.workload.scenarios import scenario_config

            if args.scenario is not None:
                config = scenario_config(
                    _resolve_scenario(args.scenario),
                    arrival_rate=args.rate, horizon=args.horizon, seed=args.seed,
                )
            else:
                config = SimulationConfig(
                    arrival_rate=args.rate if args.rate is not None else 150.0,
                    horizon=args.horizon,
                    seed=args.seed,
                )
            return _run_and_report(args, config, traced=True, out=args.out,
                                   timeline_csv=args.timeline_csv,
                                   spans_csv=args.spans_csv,
                                   summary=not args.no_summary)
        if args.trace_command == "show":
            from repro.obs import iter_jsonl, summarize

            print(summarize(iter_jsonl(args.path)))
            return 0
        if args.trace_command == "save":
            config = SimulationConfig(
                arrival_rate=args.rate, horizon=args.horizon, seed=args.seed
            )
            count = save_trace(config.workload().materialize(), args.path)
            print(f"wrote {count} jobs to {args.path}")
            return 0
        if args.trace_command == "replay":
            jobs = load_trace(args.path)
            horizon = max((j.deadline for j in jobs), default=1.0)
            config = SimulationConfig(horizon=horizon, q_ge=args.q_ge)
            harness = SimulationHarness(
                config, _SCHEDULERS[args.scheduler](), workload=StaticWorkload(jobs)
            )
            print(harness.run().row())
            return 0

    return 2  # pragma: no cover - argparse guards commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
