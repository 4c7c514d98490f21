"""perfbench: host-time benchmark of the repro simulator, end to end and per layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload ge_light --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's cells untraced, back to back, for
``--seconds`` seconds (at least one full pass) and reports the end-to-end
metrics: run time is the mean of each cell's repetitions and set-up time
their median, summed over cells.  Host times are scaled to the reference
host's speed by a calibration kernel timed between the cell runs (see
``hostspeed.py``); the report prints the raw wall times beside them.
``--trace 1`` also runs every cell with timing wrappers around the public
entry point of each layer (see ``ledger.py``), prints the per-layer
ledger, writes the spans to ``perfbench/out/`` and reports the per-layer
metrics.

Every cell run goes through the correctness gate: ``validate_run``; jobs
settled equal jobs materialised; bit-identical results across
repetitions, between traced and untraced runs and across the telemetry
sinks; and, for the default seed, the stored reference results.  The
last line of standard output is one JSON object; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
#: The keys of ``workloads.WORKLOADS``, listed here so that arguments are
#: checked before ``repro`` is imported (the import is timed).
WORKLOAD_NAMES = ("paper_sweep", "ge_light", "ge_overload", "telemetry")
DEFAULT_SEED = 1
#: Relative tolerance on reference Q and E (ROADMAP's drift bound).
REL_TOL = 1e-9
#: Highest percentile reported for per-call timings, and the number of
#: samples that must lie beyond any reported percentile.
TOP_PERCENTILE = 99
TAIL_SAMPLES = 10
#: Fresh interpreters that time ``import repro`` besides this one; set-up
#: time takes the median of all the imports.
IMPORT_PROBES = 4

perf = time.perf_counter


class Metric(NamedTuple):
    value: float
    unit: str
    #: An exact count (or a ratio of two): identical on every run.
    exact: bool = False
    #: A ratio's base ("hits/lookups"), or how a value was taken.
    note: str = ""


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's results and exact counts as the workload's "
        f"reference (needs --seed {DEFAULT_SEED} --trace 1); a deliberate rebaseline",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_reference and (args.seed != DEFAULT_SEED or not args.trace):
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 1")
    return args


IMPORT_CODE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; t0 = time.perf_counter(); "
    "import repro, workloads; print(time.perf_counter() - t0)"
)


def import_repro() -> float:
    """Import repro from this checkout's ``src``; returns the import time."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    t0 = perf()
    import repro
    import workloads  # noqa: F401  (imports the repro modules the cells use)

    import_s = perf() - t0
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return import_s


class ImportTime:
    """The median time of importing repro, in this and fresh interpreters."""

    def __init__(self, first_s: float) -> None:
        code = IMPORT_CODE.format(src=str(ROOT / "src"), here=str(HERE))
        times = [first_s]
        for _ in range(IMPORT_PROBES):
            done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                                  capture_output=True, text=True, timeout=120)
            times.append(float(done.stdout.split()[-1]))
        self.times = times
        self.wall_s = statistics.median(times)
        #: Set by ``HostSpeed``.
        self.speed = math.nan


# ----------------------------------------------------------------------
# Running cells
# ----------------------------------------------------------------------
class CellRun:
    """One run of one cell: timings, result and the problems found."""

    __slots__ = ("key", "setup_s", "run_s", "speed", "jobs", "events", "result", "problems")

    def __init__(self, key: str) -> None:
        self.key = key
        #: Host wall times.
        self.setup_s = 0.0
        self.run_s = 0.0
        #: Reference-host seconds per host second, set by ``HostSpeed``.
        self.speed = math.nan
        self.jobs = 0
        self.events = 0
        self.result: Any = None
        self.problems: List[str] = []

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.speed

    @property
    def ref_run_s(self) -> float:
        return self.run_s * self.speed

    @property
    def signature(self) -> tuple:
        return (self.result, self.events, self.jobs)


def run_cell(cell: Any, seed: int, recorder: Any = None) -> CellRun:
    """Build, run and validate one cell; a failure is recorded, not raised."""
    from repro.validation import validate_run

    out = CellRun(cell.key)
    # Collect the previous cell's garbage outside the timed region.
    gc.collect()
    try:
        t0 = perf()
        harness, out.jobs = cell.build(seed)
        t1 = perf()
        out.result = harness.run()
        t2 = perf()
        out.setup_s, out.run_s = t1 - t0, t2 - t1
        out.events = harness.sim.events_processed
        if recorder is None:
            report = validate_run(harness)
        else:
            report = recorder.validate(validate_run, harness)
    except Exception:  # the cell fails; the other cells still run
        out.problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
        return out
    out.problems.extend(f"validate_run: {v}" for v in report.violations[:3])
    if out.result.jobs != out.jobs:
        out.problems.append(f"settled {out.result.jobs} of {out.jobs} materialised jobs")
    return out


class Runs(NamedTuple):
    untraced: Dict[str, List[CellRun]]
    #: traced[key][i] is the cell's run in traced pass i.
    traced: Dict[str, List[CellRun]]
    recorders: List[Any]
    passes: int


def measure(workload: Any, seed: int, seconds: float, traced: bool, host: Any) -> Runs:
    """Run passes over the workload's cells until ``seconds`` have elapsed.

    The first pass always completes.  Untraced, later passes stop between
    cells, before a cell whose previous run would end past the deadline.
    Traced, every cell runs untraced and then traced, and only whole
    passes run, because each traced pass yields one ledger; a pass starts
    only if the previous one would end before the deadline.  ``host`` (a
    ``HostSpeed``) gives every cell run its speed.
    """
    from ledger import Recorder

    untraced: Dict[str, List[CellRun]] = {c.key: [] for c in workload.cells}
    traced_runs: Dict[str, List[CellRun]] = {c.key: [] for c in workload.cells}
    took: Dict[str, float] = {}
    recorders: List[Any] = []
    deadline = perf() + seconds
    passes = 0
    pass_s = 0.0
    while passes == 0 or perf() + (pass_s if traced else 0.0) < deadline:
        started = perf()
        recorder = Recorder() if traced else None
        for cell in workload.cells:
            if passes and recorder is None and perf() + took[cell.key] >= deadline:
                break
            t0 = perf()
            run = run_cell(cell, seed)
            host.add(run, run.setup_s + run.run_s)
            untraced[cell.key].append(run)
            took[cell.key] = perf() - t0
            if recorder is not None:
                with recorder.installed():
                    run = recorder.in_cell(cell.key, partial(run_cell, cell, seed, recorder))
                host.add(run, run.setup_s + run.run_s)
                traced_runs[cell.key].append(run)
        else:
            passes += 1
            pass_s = perf() - started
            if recorder is not None:
                recorders.append(recorder)
            continue
        break
    host.close()
    return Runs(untraced, traced_runs, recorders, passes)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def cell_reference(run: CellRun) -> Dict[str, Any]:
    res = run.result
    return {
        "quality": res.quality,
        "energy": res.energy,
        "jobs": res.jobs,
        "outcomes": dict(sorted(res.outcomes.items())),
        "events": run.events,
    }


def reference_mismatches(run: CellRun, ref: Dict[str, Any]) -> List[str]:
    got = cell_reference(run)
    out = [
        f"{name} {got[name]} != reference {ref[name]}"
        for name in ("jobs", "outcomes", "events")
        if got[name] != ref[name]
    ]
    out.extend(
        f"{name} {got[name]!r} drifts from reference {ref[name]!r}"
        for name in ("quality", "energy")
        if not math.isclose(got[name], ref[name], rel_tol=REL_TOL, abs_tol=0.0)
    )
    return out


def gate(workload: Any, seed: int, runs: Runs, reference: Dict[str, Any]) -> List[str]:
    """Attach cross-run problems to the offending cell runs; returns notes."""
    first = {key: rs[0] for key, rs in runs.untraced.items() if not rs[0].problems}

    def expect(run: CellRun, base: Optional[CellRun], what: str) -> None:
        if base is not None and not run.problems and run.signature != base.signature:
            run.problems.append(what)

    for key, rs in runs.untraced.items():
        for r in rs[1:]:
            expect(r, first.get(key), "result differs from the cell's first repetition")
        for r in runs.traced[key]:
            expect(r, first.get(key), "traced result differs from the untraced result")
    sink_cells = [c for c in workload.cells if c.chaos is not None]
    for cell in sink_cells[1:]:
        for r in runs.untraced[cell.key] + runs.traced[cell.key]:
            expect(r, first.get(sink_cells[0].key),
                   f"the {cell.sink} sink changed the null sink's result")
    if seed != DEFAULT_SEED:
        return [f"seed {seed}: invariant and bit-identity checks "
                f"(stored references are for seed {DEFAULT_SEED})"]
    ref_cells = reference.get("cells")
    if not ref_cells:
        return ["no stored reference for this workload"]
    for key, rs in runs.untraced.items():
        for r in rs + runs.traced[key]:
            if r.problems:
                continue
            if key not in ref_cells:
                r.problems.append("cell missing from the stored reference")
            else:
                r.problems.extend(reference_mismatches(r, ref_cells[key]))
    return [f"seed {DEFAULT_SEED}: {len(ref_cells)} cells compared with the stored reference "
            f"(counts exact, Q and E within {REL_TOL:g} relative)"]


# ----------------------------------------------------------------------
# End-to-end metrics (untraced)
# ----------------------------------------------------------------------
def per_cell(runs: Dict[str, List[CellRun]], attr: str, stat: Any) -> Dict[str, float]:
    """``stat`` over each cell's passing repetitions.

    Run times use the mean: on a shared host one run's repetitions are
    often bimodal, and their median jumps between the modes from run to
    run.
    """
    return {
        key: stat([getattr(r, attr) for r in rs if not r.problems])
        for key, rs in runs.items()
        if any(not r.problems for r in rs)
    }


def end_to_end(workload: Any, runs: Runs, imports: ImportTime) -> Dict[str, Metric]:
    """The end-to-end metrics; host times in reference-host seconds."""
    from workloads import PAPER_SCALE, ge_saving_vs_be

    good = {k: next((r for r in rs if not r.problems), None) for k, rs in runs.untraced.items()}
    run_s = sum(per_cell(runs.untraced, "ref_run_s", statistics.mean).values())
    wall_s = sum(per_cell(runs.untraced, "run_s", statistics.mean).values())
    import_s = imports.wall_s * imports.speed
    setup_cells = sum(per_cell(runs.untraced, "ref_setup_s", statistics.median).values())
    settled = sum(r.result.jobs for r in good.values() if r is not None)
    focus = good.get(workload.focus)
    reps = min(len(rs) for rs in runs.untraced.values())
    m = {
        "setup_s": Metric(import_s + setup_cells, "s",
                          note=f"import {import_s:.4f} s (median of {len(imports.times)}) "
                          f"+ cells {setup_cells:.4f} s"),
        "run_s": Metric(run_s, "s", note=f"sum over {len(good)} cells of the mean "
                        f"of >= {reps} repetitions; wall {wall_s:.4f} s"),
        "jobs_per_s": Metric(settled / run_s if run_s > 0 else 0.0, "jobs/s",
                             note=f"{settled} jobs settled per pass"),
        "peak_rss_mb": Metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MiB"),
        "quality": Metric(focus.result.quality if focus else 0.0, "fraction",
                          note=f"cell {workload.focus}"),
        "energy_j": Metric(focus.result.energy if focus else 0.0, "J",
                           note=f"cell {workload.focus}"),
    }
    if workload.name == "paper_sweep" and all(good.values()):
        q_ge = workload.cells[0].config(DEFAULT_SEED).q_ge
        m["ge_saving_vs_be"] = Metric(
            ge_saving_vs_be({k: r.result for k, r in good.items()}, PAPER_SCALE, q_ge),
            "fraction", note="Fig. 3 headline; the paper reports up to 0.239",
        )
    return m


# ----------------------------------------------------------------------
# Per-layer metrics (traced)
# ----------------------------------------------------------------------
def ratio(num: int, den: int, unit: str = "ratio") -> Metric:
    return Metric(num / den if den else 0.0, unit, True, f"{num}/{den}")


def exact_counts(ledger: Any, pass_runs: List[CellRun]) -> Dict[str, Metric]:
    """The starred per-layer metrics of one traced pass."""
    calls = lambda name: ledger.calls.get(name, 0)  # noqa: E731
    seen = lambda name: ledger.counts.get(name, 0)  # noqa: E731
    ok = [r for r in pass_runs if r.result is not None]
    es, wf = calls("EqualSharing.distribute"), calls("WaterFilling.distribute")
    m = {
        "sim.events": Metric(sum(r.events for r in ok), "count", True),
        "workload.jobs": Metric(sum(r.jobs for r in pass_runs), "count", True),
        "server.settled": Metric(sum(r.result.jobs for r in ok), "count", True),
    }
    for entry in ("set_plan", "checkpoint", "abort_job"):
        m[f"server.core.{entry}.calls"] = Metric(calls(f"Core.{entry}"), "count", True)
    m["core.ge.rounds"] = Metric(calls("GEScheduler.reschedule"), "count", True)
    for cause in ("arrival", "idle", "quantum", "chaos"):
        m[f"core.ge.rounds.{cause}"] = Metric(ledger.round_causes.get(cause, 0), "count", True)
    m["core.cutting.calls"] = Metric(calls("lf_cut_waterline"), "count", True)
    m["core.cutting.jobs_per_call"] = ratio(
        seen("cutting.jobs"), calls("lf_cut_waterline"), "jobs/call")
    m["core.cutting.memo_hit_ratio"] = ratio(
        seen("cutting.memo_hits"), calls("WaterlineMemo.get"))
    m["power.distribution.es_calls"] = Metric(es, "count", True)
    m["power.distribution.wf_calls"] = Metric(wf, "count", True)
    m["power.distribution.reuse_ratio"] = ratio(seen("distribution.reuses"), es + wf)
    m["core.planner.calls"] = Metric(calls("build_core_plan"), "count", True)
    m["core.planner.reuse_ratio"] = ratio(seen("plan.reuses"), seen("plan.installs"))
    m["core.quality_opt.calls"] = Metric(calls("quality_opt"), "count", True)
    m["core.quality_opt.jobs_per_call"] = ratio(
        seen("quality_opt.jobs"), calls("quality_opt"), "jobs/call")
    m["core.quality_opt.cut_ratio"] = ratio(seen("quality_opt.cut"), seen("quality_opt.jobs"))
    m["core.energy_opt.calls"] = Metric(calls("yds_schedule"), "count", True)
    m["baselines.queue_order.calls"] = Metric(
        ledger.entries_of("baselines.queue_order"), "count", True)
    for layer in ("obs.full", "obs.stream", "check.sanitize"):
        m[f"{layer}.hook_calls"] = Metric(ledger.entries_of(layer), "count", True)
    m["chaos.events"] = Metric(ledger.entries_of("chaos"), "count", True)
    return m


#: Layers whose self time inside the traced run is a per-layer metric.
SELF_TIME_LAYERS = (
    "sim", "server.harness", "server.core.set_plan", "server.core.checkpoint",
    "server.core.abort_job", "core.ge", "core.cutting", "power.distribution",
    "core.planner.demand", "core.planner", "core.quality_opt", "core.energy_opt",
    "quality.monitor", "metrics.collector", "baselines.queue_order",
    "obs.full", "obs.stream", "check.sanitize",
)


def percentile(samples: Any, q: int) -> Metric:
    """Percentile ``q`` of per-call times, lowered until at least
    ``TAIL_SAMPLES`` samples lie beyond it."""
    import numpy as np

    n = len(samples)
    if n * (100 - q) < 100 * TAIL_SAMPLES:
        q = math.floor(100.0 * (1.0 - TAIL_SAMPLES / n)) if n > TAIL_SAMPLES else 0
    value = float(np.percentile(samples, q)) if n else 0.0
    return Metric(value, "us", note=f"p{q} of {n} calls")


def per_layer(runs: Runs, ledgers: List[Any]) -> Dict[str, Metric]:
    """Counts from the first traced pass; times averaged over the passes."""
    import numpy as np

    m = exact_counts(ledgers[0], [rs[0] for rs in runs.traced.values()])
    npass = len(ledgers)
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = Metric(sum(led.self_s(layer) for led in ledgers) / npass, "s")
    m["workload.materialize_s"] = Metric(
        sum(led.outside_s("workload") for led in ledgers) / npass, "s",
        note="materialize during cell set-up")
    m["validation.self_s"] = Metric(
        sum(led.outside_s("validation") for led in ledgers) / npass, "s",
        note="validate_run, outside the run")

    def per_call(total: float, calls: float, scale: float = 1e6) -> float:
        return scale * total / calls if calls else 0.0

    m["sim.us_per_event"] = Metric(
        per_call(m["sim.self_s"].value, m["sim.events"].value), "us")
    m["core.cutting.us_per_call"] = Metric(
        per_call(m["core.cutting.self_s"].value, m["core.cutting.calls"].value), "us")
    m["core.energy_opt.us_per_call"] = Metric(
        per_call(m["core.energy_opt.self_s"].value, m["core.energy_opt.calls"].value), "us")
    for name, attr in (("core.ge.round_us", "round_us"), ("core.quality_opt.us", "quality_opt_us")):
        samples = np.concatenate([getattr(led, attr) for led in ledgers])
        m[f"{name}.p50"] = percentile(samples, 50)
        m[f"{name}.p99"] = percentile(samples, TOP_PERCENTILE)

    untraced = per_cell(runs.untraced, "ref_run_s", statistics.mean)
    traced = per_cell(runs.traced, "ref_run_s", statistics.mean)
    null = untraced.get("storm/null")
    for layer, key in (("obs.full", "storm/full"), ("obs.stream", "storm/stream"),
                       ("check.sanitize", "storm/sanitize")):
        if null and key in untraced:
            m[f"{layer}.overhead_ratio"] = Metric(
                untraced[key] / null, "ratio", note=f"untraced run_s of {key} over storm/null")
        else:
            m[f"{layer}.overhead_ratio"] = Metric(0.0, "ratio", note="no sink cell")
    base = sum(untraced.values())
    m["trace.overhead_ratio"] = Metric(
        sum(traced.values()) / base if base else 0.0, "ratio",
        note="traced over untraced run_s, cell means")
    return m


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def fmt(v: float) -> str:
    if isinstance(v, int) or float(v).is_integer():
        return f"{int(v)}"
    return f"{v:.6g}"


def print_metrics(title: str, metrics: Dict[str, Metric]) -> None:
    print(title)
    for name, mt in metrics.items():
        star = "*" if mt.exact else " "
        note = f"  ({mt.note})" if mt.note else ""
        print(f"  {star}{name:<34} {fmt(mt.value):>14} {mt.unit:<9}{note}")


def print_ledger(ledgers: List[Any], trace_ratio: Metric) -> None:
    npass = len(ledgers)
    run_total = sum(led.run_total for led in ledgers) / npass
    self_total = sum(led.self_total for led in ledgers) / npass
    layers = sorted({name for led in ledgers for name in led.layers})
    rows = []
    for name in layers:
        self_s = sum(led.self_s(name) for led in ledgers) / npass
        outside = sum(led.outside_s(name) for led in ledgers) / npass
        calls = ledgers[0].entries_of(name)
        rows.append((name, calls, self_s, outside))
    print(f"ledger (traced, mean of {npass} pass{'es' if npass > 1 else ''}; "
          "self time inside SimulationHarness.run):")
    print(f"  {'layer':<26}{'calls':>10}{'self_s':>12}{'share':>9}{'us/call':>11}")
    for name, calls, self_s, _ in sorted(rows, key=lambda r: -r[2]):
        if self_s <= 0.0:
            continue
        share = self_s / run_total if run_total else 0.0
        us = 1e6 * self_s / calls if calls else 0.0
        print(f"  {name:<26}{calls:>10}{self_s:>12.4f}{share:>8.1%}{us:>11.2f}")
    print(f"  {'sum of self times':<36}{self_total:>12.4f}   "
          f"traced SimulationHarness.run total {run_total:.4f} s")
    for name, calls, _, outside in rows:
        if outside > 0.0 and name != "bench.cell":
            print(f"  outside the run: {name:<18} {outside:.4f} s")
    print(f"  trace.overhead_ratio = {trace_ratio.value:.4f} ({trace_ratio.note})")


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, Metric]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    })


def load_reference() -> Dict[str, Any]:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def write_reference(workload: Any, runs: Runs, layer: Dict[str, Metric]) -> None:
    from workloads import PAPER_SCALE, ge_saving_vs_be

    data = load_reference()
    data.setdefault("seed", DEFAULT_SEED)
    entry: Dict[str, Any] = {
        "cells": {k: cell_reference(rs[0]) for k, rs in runs.untraced.items()},
        "counts": {n: (mt.note or mt.value) for n, mt in layer.items() if mt.exact},
    }
    if workload.name == "paper_sweep":
        q_ge = workload.cells[0].config(DEFAULT_SEED).q_ge
        entry["ge_saving_vs_be"] = ge_saving_vs_be(
            {k: rs[0].result for k, rs in runs.untraced.items()}, PAPER_SCALE, q_ge)
    data.setdefault("workloads", {})[workload.name] = entry
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote the {workload.name} reference to {REFERENCE.relative_to(ROOT)}")


def report_layers(workload: Any, seed: int, runs: Runs,
                  reference: Dict[str, Any]) -> Tuple[Dict[str, Metric], List[str]]:
    """Analyse the traced passes, print the ledger, write the spans file.

    Returns the per-layer metrics and the problems found in them.
    """
    ledgers = []
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.npz"
    for i, rec in enumerate(runs.recorders):
        spans = rec.spans()
        ledgers.append(rec.ledger(spans))
        if i == 0:
            OUT.mkdir(exist_ok=True)
            rec.save(str(spans_path), spans)
    layer = per_layer(runs, ledgers)
    print_ledger(ledgers, layer["trace.overhead_ratio"])
    print_metrics("per-layer (* = exact count, identical on every run):", layer)

    problems = []
    for i, led in enumerate(ledgers[1:], start=1):
        again = exact_counts(led, [rs[i] for rs in runs.traced.values()])
        diff = [n for n in again if again[n] != layer[n]]
        if diff:
            problems.append(f"exact counts differ in traced pass {i + 1}: {diff}")
    for led in ledgers:
        if not math.isclose(led.self_total, led.run_total, rel_tol=1e-9):
            problems.append(f"self times sum to {led.self_total!r}, "
                            f"not the traced run total {led.run_total!r}")
    untraced = (sum(rs[0].events for rs in runs.untraced.values()),
                sum(rs[0].jobs for rs in runs.untraced.values()))
    if (layer["sim.events"].value, layer["workload.jobs"].value) != untraced:
        problems.append("sim.events or workload.jobs differ between traced and untraced runs")
    stored = reference.get("counts")
    if seed == DEFAULT_SEED and stored:
        changed = {
            n: f"{stored.get(n)} -> {mt.note or mt.value}"
            for n, mt in layer.items()
            if mt.exact and stored.get(n) != (mt.note or mt.value)
        }
        print(f"  exact counts vs the stored seed-{DEFAULT_SEED} counts: "
              + ("identical" if not changed else f"changed {changed}"))
    print(f"  spans: {spans_path.relative_to(ROOT)}")
    return layer, problems


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_s = import_repro()
    from hostspeed import HostSpeed
    from workloads import LOAD_MODEL, WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = load_reference().get("workloads", {}).get(workload.name, {})
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {workload.why}")
    print(f"  stresses: {workload.stresses}")
    print(f"  bypasses: {workload.bypasses}")
    print(f"  load: {LOAD_MODEL}; {len(workload.cells)} cells")

    t0 = perf()
    host = HostSpeed()
    imports = ImportTime(import_s)
    host.add(imports, imports.wall_s)
    host.close()
    runs = measure(workload, args.seed, args.seconds, bool(args.trace), host)
    reps = sum(len(rs) for rs in runs.untraced.values())
    kernel = sorted(host.samples)
    print(f"  measured {perf() - t0:.1f} s: {runs.passes} full passes, "
          f"{reps} untraced cell runs; calibration kernel {len(kernel)} times, "
          f"{kernel[0]:.4f}..{kernel[-1]:.4f} s, median {statistics.median(kernel):.4f} s")
    notes = gate(workload, args.seed, runs, reference)
    e2e = end_to_end(workload, runs, imports)
    print_metrics("end-to-end (untraced; per-cell repetitions, summed over cells; "
                  "host times in reference-host seconds):", e2e)
    problems: List[str] = []
    saving, ref_saving = e2e.get("ge_saving_vs_be"), reference.get("ge_saving_vs_be")
    if args.seed == DEFAULT_SEED and saving and ref_saving is not None and not math.isclose(
            saving.value, ref_saving, rel_tol=REL_TOL, abs_tol=0.0):
        problems.append(f"ge_saving_vs_be {saving.value!r} drifts from reference {ref_saving!r}")
    layer: Dict[str, Metric] = {}
    if runs.recorders:
        layer, layer_problems = report_layers(workload, args.seed, runs, reference)
        problems.extend(layer_problems)

    all_runs = [r for group in (runs.untraced, runs.traced) for rs in group.values() for r in rs]
    failed = [r for r in all_runs if r.problems]
    print("correctness gate:")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_share = {len(failed)}/{len(all_runs)} cell runs")
    for r in failed[:10]:
        print(f"  FAILED {r.key}: {'; '.join(r.problems)}")
    for p in problems:
        print(f"  FAILED {p}")
    correct = not failed and not problems
    if args.write_reference:
        if not correct:
            print("not writing a reference from a failing run")
            return 1
        write_reference(workload, runs, layer)

    metrics = layer if args.trace else {k: v for k, v in e2e.items() if k != "ge_saving_vs_be"}
    print(result_line(correct, len(all_runs), len(failed), metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
