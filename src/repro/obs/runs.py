"""Content-addressed run registry: store, list, show and diff runs.

A *run* is one simulation execution; its identity is the pair the
simulator itself guarantees to be reproducible — the configuration
fingerprint (:meth:`SimulationConfig.fingerprint`, a hash of every
field including the seed) plus the scheduler that ran on it.  The
registry stores one directory per run:

.. code-block:: text

    <root>/
      <fingerprint>-<seed>-<scheduler>/
        summary.json          # schema repro.run/1 (see make_summary)
        trace.jsonl           # optional: the raw record spill

``<root>`` defaults to ``./.repro-runs`` and can be overridden with
the ``REPRO_RUNS_DIR`` environment variable or the ``--runs-dir`` CLI
flag.  ``summary.json`` carries the run metadata, the final
:class:`~repro.metrics.collector.RunResult` as a plain dict, and the
streaming telemetry (windowed aggregates, SLO compliance, per-core
utilization, metrics) — everything ``repro runs diff`` and ``repro
report`` consume, with no need to reload the raw trace.

The registry also holds fleet rollup documents (schema
``repro.fleet/1``, ids ``fleet-<grid digest>``) written by
:mod:`repro.experiments.fleet`; they live alongside per-run entries
and are rendered by :func:`format_fleet` / the fleet HTML dashboard.

Same fingerprint + scheduler ⇒ same run id ⇒ storing again
*overwrites* — runs are content-addressed, so a re-execution of an
identical configuration produces an identical summary (the simulator
is deterministic) and the store stays deduplicated.

This module records **wall-clock** storage timestamps
(``created_unix``) so humans can order store entries; that is why it
is the one sim-lint SIM001 exemption, and it never touches simulated
time.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ReproError

__all__ = [
    "FLEET_SCHEMA",
    "RUN_SCHEMA",
    "RUNS_DIR_ENV",
    "RunStore",
    "diff_runs",
    "format_diff",
    "format_fleet",
    "format_run",
    "format_runs_table",
    "make_summary",
    "run_id_for",
]

#: Version tag stamped on every ``summary.json``.
RUN_SCHEMA = "repro.run/1"

#: Version tag of a fleet rollup document (see
#: :mod:`repro.experiments.fleet`) — stored in the same registry,
#: addressed as ``fleet-<grid digest>``.
FLEET_SCHEMA = "repro.fleet/1"

#: Schemas :meth:`RunStore.load` understands.
_KNOWN_SCHEMAS = frozenset({RUN_SCHEMA, FLEET_SCHEMA})

#: Environment variable overriding the default store root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Default store root, relative to the working directory.
DEFAULT_ROOT = ".repro-runs"

#: Result fields worth diffing numerically (the rest are identity).
_RESULT_FIELDS = (
    "quality", "energy", "static_energy", "jobs", "aes_fraction",
    "mean_speed", "speed_variance", "utilization", "completed_volume",
    "duration",
)

#: Fleet rollup fields a fleet diff compares: the task totals, then each
#: scenario's row (see :func:`repro.experiments.fleet.fleet_rollup`).
_FLEET_TASK_FIELDS = ("total", "succeeded", "failed")
_FLEET_SCENARIO_FIELDS = (
    "tasks", "slo_compliant", "slo_evaluated",
    "quality_min", "quality_mean", "quality_max", "energy_sum",
)


def _slug(text: str) -> str:
    out = []
    for ch in str(text).lower():
        out.append(ch if ch.isalnum() else "-")
    slug = "".join(out).strip("-")
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug or "run"


def run_id_for(meta: Dict[str, Any]) -> str:
    """The content address of a run: ``<fingerprint>-<seed>-<scheduler>``.

    The fingerprint already covers the seed; it is repeated in the id
    so humans can group seed ladders of one configuration at a glance.
    """
    fingerprint = meta.get("config_fingerprint")
    if not fingerprint:
        raise ReproError(
            "run metadata has no config_fingerprint — "
            "was the run traced through the harness?"
        )
    seed = meta.get("seed", "x")
    return f"{fingerprint}-{seed}-{_slug(str(meta.get('scheduler', 'run')))}"


def make_summary(
    telemetry: Dict[str, Any],
    *,
    result: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a storable ``repro.run/1`` summary.

    ``telemetry`` is :meth:`repro.obs.stream.StreamingTracer.summary`
    output (or an equivalent dict built from an offline fold);
    ``result`` is the run's :class:`RunResult` as a plain dict
    (``dataclasses.asdict``) when available.  The wall-clock
    ``created_unix`` stamp is added by :meth:`RunStore.save`.
    """
    telemetry = dict(telemetry)
    meta = dict(telemetry.pop("meta", {}))
    return {
        "schema": RUN_SCHEMA,
        "run_id": run_id_for(meta),
        "meta": meta,
        "result": dict(result) if result is not None else None,
        "telemetry": telemetry,
    }


class RunStore:
    """One directory per run, keyed by configuration fingerprint + seed."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        if root is None:
            root = os.environ.get(RUNS_DIR_ENV) or DEFAULT_ROOT
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, run_id: str) -> Path:
        """The run's directory (existing or not)."""
        return self.root / run_id

    def resolve(self, run_id: str) -> str:
        """Resolve a possibly-abbreviated run id to a stored one.

        Exact match wins; otherwise a unique prefix is accepted
        (``repro runs show 1a2b3c`` without the full id).
        """
        if (self.root / run_id / "summary.json").is_file():
            return run_id
        matches = [e for e in self.ids() if e.startswith(run_id)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ReproError(f"no stored run matches {run_id!r} under {self.root}")
        raise ReproError(
            f"run id {run_id!r} is ambiguous: {', '.join(sorted(matches))}"
        )

    def ids(self) -> List[str]:
        """All stored run ids (directories holding a summary.json)."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if (entry / "summary.json").is_file()
        )

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def save(
        self,
        summary: Dict[str, Any],
        *,
        trace_path: Optional[Union[str, Path]] = None,
    ) -> str:
        """Store one run; returns its id.

        ``summary`` must follow :func:`make_summary`'s layout (it is
        completed with the schema tag and a wall-clock ``created_unix``
        stamp).  An existing entry with the same id is overwritten —
        identical configurations produce identical summaries, so this
        is idempotent, not lossy.  ``trace_path`` copies a raw JSONL
        trace into the entry as ``trace.jsonl``.
        """
        summary = dict(summary)
        summary.setdefault("schema", RUN_SCHEMA)
        run_id = summary.get("run_id") or run_id_for(dict(summary.get("meta", {})))
        summary["run_id"] = run_id
        summary["created_unix"] = time.time()
        run_dir = self.path_for(run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        if trace_path is not None:
            source = Path(trace_path)
            target = run_dir / "trace.jsonl"
            if source.resolve() != target.resolve():
                shutil.copyfile(source, target)
        return run_id

    def load(self, run_id: str) -> Dict[str, Any]:
        """Load one stored summary (accepts unique id prefixes)."""
        run_id = self.resolve(run_id)
        path = self.root / run_id / "summary.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        schema = summary.get("schema")
        if schema not in _KNOWN_SCHEMAS:
            raise ReproError(
                f"{path}: unsupported run schema {schema!r} "
                f"(this reader understands {', '.join(sorted(_KNOWN_SCHEMAS))})"
            )
        return dict(summary)

    def trace_path(self, run_id: str) -> Optional[Path]:
        """The stored raw trace, if the run kept one."""
        path = self.root / self.resolve(run_id) / "trace.jsonl"
        return path if path.is_file() else None

    def list(self) -> List[Dict[str, Any]]:
        """One row per stored run, newest first.

        Ordering is deterministic: descending ``created_unix`` with the
        run id as tie-breaker, so equal timestamps (coarse clocks,
        fixture stores) still list identically everywhere.
        """
        rows: List[Dict[str, Any]] = []
        for run_id in self.ids():
            summary = self.load(run_id)
            meta = summary.get("meta", {})
            result = summary.get("result") or {}
            slo = (summary.get("telemetry") or {}).get("slo", {})
            rows.append({
                "run_id": run_id,
                "schema": summary.get("schema"),
                "created_unix": summary.get("created_unix"),
                "scheduler": meta.get("scheduler"),
                "arrival_rate": meta.get("arrival_rate"),
                "horizon": meta.get("horizon"),
                "seed": meta.get("seed"),
                "quality": result.get("quality"),
                "energy": result.get("energy"),
                "slo_compliant": slo.get("compliant"),
                "slo_violations": slo.get("violations"),
                "has_trace": self.trace_path(run_id) is not None,
            })
        rows.sort(key=lambda r: (-(r["created_unix"] or 0.0), r["run_id"]))
        return rows

    def delete(self, run_id: str) -> None:
        """Remove one stored run (directory and all artifacts)."""
        shutil.rmtree(self.root / self.resolve(run_id))

    def gc(self, keep: int, *, pin: Sequence[str] = ()) -> List[str]:
        """Prune the store down to the ``keep`` newest runs.

        Age is ``created_unix`` via :meth:`list`'s deterministic
        ordering.  Ids in ``pin`` (full ids or unique prefixes) are
        never deleted and do not count against ``keep`` — pinned
        baselines survive any gc.  Returns the deleted ids, oldest
        last.
        """
        if keep < 0:
            raise ReproError(f"gc keep count must be >= 0, got {keep}")
        pinned = {self.resolve(p) for p in pin}
        kept = 0
        deleted: List[str] = []
        for row in self.list():
            run_id = str(row["run_id"])
            if run_id in pinned:
                continue
            if kept < keep:
                kept += 1
                continue
            self.delete(run_id)
            deleted.append(run_id)
        return deleted


# ----------------------------------------------------------------------
# Cross-run diffing
# ----------------------------------------------------------------------
def _numeric_delta(a: Any, b: Any) -> Dict[str, Any]:
    row: Dict[str, Any] = {"a": a, "b": b}
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        row["delta"] = b - a
        if a:
            row["ratio"] = b / a
    return row


def diff_runs(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Structured comparison of two stored summaries of one schema.

    Two ``repro.run/1`` summaries give: changed ``meta`` keys, numeric
    ``result`` deltas, per-SLO compliance and counter deltas.  Two
    ``repro.fleet/1`` rollups give changed ``meta`` keys, the task
    totals and, per scenario, tasks, SLO compliant/evaluated, Q
    min/mean/max and the energy sum.  Identical values are omitted from
    ``meta``/``counters`` so the diff surfaces what moved.  The diff's
    ``schema`` key names which of the two it is.

    Raises
    ------
    ReproError
        The two summaries have different schemas (a run against a fleet).
    """
    schema_a = a.get("schema", RUN_SCHEMA)
    schema_b = b.get("schema", RUN_SCHEMA)
    if schema_a != schema_b:
        raise ReproError(
            f"cannot diff a {schema_a} summary ({a.get('run_id')}) against a "
            f"{schema_b} summary ({b.get('run_id')})"
        )
    meta_a, meta_b = a.get("meta", {}), b.get("meta", {})
    meta_diff = {
        key: {"a": meta_a.get(key), "b": meta_b.get(key)}
        for key in sorted(set(meta_a) | set(meta_b))
        if key != "slo" and meta_a.get(key) != meta_b.get(key)
    }
    if schema_a == FLEET_SCHEMA:
        return _diff_fleets(a, b, meta_diff)

    result_a, result_b = a.get("result") or {}, b.get("result") or {}
    result_diff = {
        field: _numeric_delta(result_a.get(field), result_b.get(field))
        for field in _RESULT_FIELDS
        if field in result_a or field in result_b
    }

    slo_a = ((a.get("telemetry") or {}).get("slo") or {}).get("slos", {})
    slo_b = ((b.get("telemetry") or {}).get("slo") or {}).get("slos", {})
    slo_diff: Dict[str, Any] = {}
    for name in sorted(set(slo_a) | set(slo_b)):
        row_a, row_b = slo_a.get(name, {}), slo_b.get(name, {})
        slo_diff[name] = {
            "compliant": {"a": row_a.get("compliant"), "b": row_b.get("compliant")},
            "compliance": _numeric_delta(
                row_a.get("compliance"), row_b.get("compliance")
            ),
        }

    metrics_a = (a.get("telemetry") or {}).get("metrics") or {}
    metrics_b = (b.get("telemetry") or {}).get("metrics") or {}

    def _of_kind(metrics: Dict[str, Any], kind: str) -> Dict[str, Any]:
        return {k: v for k, v in metrics.items() if v.get("kind") == kind}

    counters_a, counters_b = _of_kind(metrics_a, "counter"), _of_kind(metrics_b, "counter")
    counter_diff = {
        name: _numeric_delta(
            counters_a.get(name, {}).get("value"),
            counters_b.get(name, {}).get("value"),
        )
        for name in sorted(set(counters_a) | set(counters_b))
        if counters_a.get(name, {}).get("value") != counters_b.get(name, {}).get("value")
    }

    return {
        "schema": RUN_SCHEMA,
        "runs": {"a": a.get("run_id"), "b": b.get("run_id")},
        "meta": meta_diff,
        "result": result_diff,
        "slo": slo_diff,
        "counters": counter_diff,
    }


def _diff_fleets(
    a: Dict[str, Any], b: Dict[str, Any], meta_diff: Dict[str, Any]
) -> Dict[str, Any]:
    """The fleet half of :func:`diff_runs`: the rollups' numbers."""
    rollup_a, rollup_b = a.get("rollup") or {}, b.get("rollup") or {}
    tasks_a, tasks_b = rollup_a.get("tasks") or {}, rollup_b.get("tasks") or {}
    scenarios_a = rollup_a.get("scenarios") or {}
    scenarios_b = rollup_b.get("scenarios") or {}
    scenario_diff: Dict[str, Any] = {}
    for name in sorted(set(scenarios_a) | set(scenarios_b)):
        row_a, row_b = scenarios_a.get(name) or {}, scenarios_b.get(name) or {}
        scenario_diff[name] = {
            field: _numeric_delta(row_a.get(field), row_b.get(field))
            for field in _FLEET_SCENARIO_FIELDS
        }
    return {
        "schema": FLEET_SCHEMA,
        "runs": {"a": a.get("run_id"), "b": b.get("run_id")},
        "meta": meta_diff,
        "tasks": {
            field: _numeric_delta(tasks_a.get(field), tasks_b.get(field))
            for field in _FLEET_TASK_FIELDS
        },
        "scenarios": scenario_diff,
    }


# ----------------------------------------------------------------------
# Text rendering (the CLI prints these; obs itself never prints)
# ----------------------------------------------------------------------
def _fmt(value: Any, digits: int = 6) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def format_runs_table(rows: List[Dict[str, Any]]) -> str:
    """Render :meth:`RunStore.list` rows as an aligned text table."""
    if not rows:
        return "no stored runs"
    lines = [
        f"{'run id':<42} {'scheduler':<12} {'λ':>6} {'horizon':>8} "
        f"{'quality':>8} {'energy':>10} {'slo':>4} {'trace':>5}"
    ]
    for row in rows:
        slo = "-"
        if row["slo_compliant"] is not None:
            slo = "ok" if row["slo_compliant"] else f"{row['slo_violations']}!"
        lines.append(
            f"{row['run_id']:<42} {_fmt(row['scheduler']):<12} "
            f"{_fmt(row['arrival_rate'], 4):>6} {_fmt(row['horizon'], 4):>8} "
            f"{_fmt(row['quality'], 4):>8} {_fmt(row['energy'], 6):>10} "
            f"{slo:>4} {'yes' if row['has_trace'] else '-':>5}"
        )
    return "\n".join(lines)


def format_run(summary: Dict[str, Any]) -> str:
    """Render one run summary as the run digest.

    Every path prints it: buffered, streamed and stored runs and trace
    files (:func:`repro.obs.stream.fold_summary`).  Blocks whose keys
    an older stored summary lacks are left out.
    """
    meta = summary.get("meta", {})
    telemetry = summary.get("telemetry") or {}
    lines = [f"run {summary.get('run_id') or '?'}"]
    head = [
        f"scheduler={meta.get('scheduler', '?')}",
        f"λ={_fmt(meta.get('arrival_rate'), 4)}/s",
        f"horizon={_fmt(meta.get('horizon'), 4)}s",
        f"seed={_fmt(meta.get('seed'))}",
        f"cores={_fmt(meta.get('cores'))}",
        f"H={_fmt(meta.get('budget'), 4)}W",
        f"Q_GE={_fmt(meta.get('q_ge'), 4)}",
    ]
    lines.append("  " + "  ".join(head))
    result = summary.get("result")
    if result:
        lines.append(
            f"  result: quality={_fmt(result.get('quality'), 6)} "
            f"energy={_fmt(result.get('energy'), 6)}J "
            f"jobs={_fmt(result.get('jobs'))} "
            f"util={_fmt(result.get('utilization'), 4)}"
        )
    slo = telemetry.get("slo") or {}
    if slo:
        verdict = "compliant" if slo.get("compliant") else (
            f"{slo.get('violations', '?')} violation(s)"
        )
        lines.append(f"  slo: {verdict}")
        for name, row in sorted((slo.get("slos") or {}).items()):
            mark = "ok " if row.get("compliant") else "VIOL"
            extra = ""
            violation = row.get("first_violation")
            if violation:
                extra = (f"  first at t={_fmt(violation.get('time'), 6)}s "
                         f"value={_fmt(violation.get('value'), 6)}")
            lines.append(
                f"    [{mark}] {name:<16} threshold={_fmt(row.get('threshold'), 4)} "
                f"compliance={_fmt(row.get('compliance'), 4)}"
                f"{'  (no data)' if row.get('no_data') else ''}{extra}"
            )
    counts = telemetry.get("record_counts")
    if counts:
        lines.append(
            f"  records: {counts.get('span', 0)} spans, "
            f"{counts.get('event', 0)} events, {counts.get('sample', 0)} samples"
        )
    jobs = telemetry.get("jobs") or {}
    if jobs:
        lines.append(f"  jobs ({sum(int(row['count']) for row in jobs.values())} settled):")
        lines.extend(
            f"    {outcome:<10} n={int(row['count']):<6} "
            f"sojourn={row['mean_sojourn_s'] * 1e3:8.2f} ms  "
            f"processed={row['mean_processed_fraction'] * 100:5.1f} %"
            for outcome, row in jobs.items()
        )
    intervals = telemetry.get("mode_intervals") or []
    if intervals:
        totals = telemetry.get("mode_totals") or {}
        aes_s, bq_s = totals.get("aes_s", 0.0), totals.get("bq_s", 0.0)
        count = len(intervals) + int(totals.get("intervals_dropped", 0))
        share = aes_s / (aes_s + bq_s) * 100 if aes_s + bq_s > 0 else 100.0
        lines.append(f"  modes: {count} intervals, {int(totals.get('switches', 0))} "
                     f"switches, AES {share:.1f} % of decided time")
        lines.extend(
            f"    [{i['start']:9.4f} → {i['end']:9.4f}] {i['mode']} "
            f"({i['end'] - i['start']:.4f} s)"
            for i in intervals[:12]
        )
        if count > 12:
            lines.append(f"    ... {count - 12} more intervals")
    cores = telemetry.get("core_utilization") or {}
    if cores:
        lines.append("  cores:")
        lines.extend(
            f"    core {int(core):<3} util={row['utilization'] * 100:5.1f} %  "
            f"slices={int(row['slices']):<5} vol={row['volume']:10.1f}  "
            f"E={row['energy']:10.2f} J"
            for core, row in sorted(cores.items(), key=lambda item: int(item[0]))
        )
    metrics = telemetry.get("metrics") or {}
    if metrics:
        lines.append("  metrics:")
        for name, snap in sorted(metrics.items()):
            kind, label = snap.get("kind"), f"    {name:<32}"
            if kind == "counter":
                lines.append(f"{label} {snap['value']:g}")
            elif kind == "gauge":
                lines.append(f"{label} {snap['value']:g} (last)")
            elif kind == "quantiles":
                estimates = " ".join(f"{k}={v:g}" if v is not None else f"{k}=-"
                                     for k, v in snap["estimates"].items())
                lines.append(f"{label} n={snap['count']} {estimates}")
            elif kind == "histogram":
                # Out-of-range observations mean the bucket bound is
                # mis-sized — make that visible, not just recorded.
                over, under = snap.get("overflow", 0), snap.get("underflow", 0)
                flag = f"  [overflow={over} underflow={under}]" if over or under else ""
                lines.append(f"{label} n={snap['count']} mean={snap['mean']:g} "
                             f"min={snap['min']:g} max={snap['max']:g}{flag}")
            # Other kinds (older traces' wall-time "phase" timers) are skipped.
    return "\n".join(lines)


def format_fleet(summary: Dict[str, Any]) -> str:
    """Render one ``repro.fleet/1`` rollup summary as text."""
    meta = summary.get("meta", {})
    rollup = summary.get("rollup") or {}
    tasks = rollup.get("tasks") or {}
    lines = [
        f"fleet {summary.get('run_id', '?')}  "
        f"mode={meta.get('mode', '?')}  workers={_fmt(meta.get('workers'))}"
    ]
    lines.append(
        f"  tasks: {_fmt(tasks.get('total'))} total, "
        f"{_fmt(tasks.get('succeeded'))} succeeded, "
        f"{_fmt(tasks.get('failed'))} failed"
    )
    throughput = rollup.get("throughput") or {}
    if throughput:
        lines.append(
            f"  throughput: {_fmt(throughput.get('events'))} events in "
            f"{_fmt(throughput.get('worker_wall_s'), 4)}s worker-wall "
            f"({_fmt(throughput.get('events_per_sec'), 6)} ev/s)"
        )
    scenarios = rollup.get("scenarios") or {}
    if scenarios:
        lines.append(
            f"  {'scenario':<14} {'tasks':>5} {'slo':>9} "
            f"{'Q min':>8} {'Q mean':>8} {'Q max':>8} {'energy J':>12}"
        )
        for name in sorted(scenarios):
            row = scenarios[name]
            evaluated = row.get("slo_evaluated", 0)
            slo = "-"
            if evaluated:
                slo = f"{row.get('slo_compliant', 0)}/{evaluated}"
            lines.append(
                f"  {name:<14} {_fmt(row.get('tasks')):>5} {slo:>9} "
                f"{_fmt(row.get('quality_min'), 4):>8} "
                f"{_fmt(row.get('quality_mean'), 4):>8} "
                f"{_fmt(row.get('quality_max'), 4):>8} "
                f"{_fmt(row.get('energy_sum'), 6):>12}"
            )
    quantiles = rollup.get("quantiles") or {}
    for name in sorted(quantiles):
        qs = quantiles[name] or {}
        if qs:
            pairs = "  ".join(f"{k}={_fmt(v, 4)}" for k, v in sorted(qs.items()))
            lines.append(f"  {name}: {pairs}")
    violations = rollup.get("slo_violation_events")
    if violations:
        lines.append(f"  slo violation events: {violations}")
    errors = summary.get("errors") or []
    for error in errors:
        lines.append(
            f"  ERROR [{error.get('kind', '?')}] task={error.get('task', '?')} "
            f"worker={_fmt(error.get('worker'))}: {error.get('exception', '')}"
        )
    return "\n".join(lines)


def _arrow(row: Dict[str, Any]) -> str:
    """``a → b``, with the ratio when both are numbers and ``a`` is not 0."""
    arrow = f"{_fmt(row['a'])} → {_fmt(row['b'])}"
    if "ratio" in row:
        arrow += f"  ({row['ratio']:.4g}x)"
    return arrow


def format_diff(diff: Dict[str, Any]) -> str:
    """Render :func:`diff_runs` output (a run or a fleet diff) as text."""
    lines = [f"diff {diff['runs']['a']} → {diff['runs']['b']}"]
    if diff["meta"]:
        lines.append("  config:")
        for key, row in diff["meta"].items():
            lines.append(f"    {key}: {_fmt(row['a'])} → {_fmt(row['b'])}")
    if diff.get("schema") == FLEET_SCHEMA:
        lines.append("  tasks:")
        for field, row in diff["tasks"].items():
            lines.append(f"    {field:<18} {_arrow(row)}")
        for name, fields in diff["scenarios"].items():
            lines.append(f"  scenario {name}:")
            for field, row in fields.items():
                lines.append(f"    {field:<18} {_arrow(row)}")
        return "\n".join(lines)
    if diff["result"]:
        lines.append("  result:")
        for field, row in diff["result"].items():
            lines.append(f"    {field:<18} {_arrow(row)}")
    if diff["slo"]:
        lines.append("  slo:")
        for name, row in diff["slo"].items():
            comp = row["compliance"]
            lines.append(
                f"    {name:<16} compliant {_fmt(row['compliant']['a'])} → "
                f"{_fmt(row['compliant']['b'])}, compliance "
                f"{_fmt(comp.get('a'), 4)} → {_fmt(comp.get('b'), 4)}"
            )
    if diff["counters"]:
        lines.append("  counters (changed):")
        for name, row in diff["counters"].items():
            lines.append(f"    {name:<32} {_fmt(row['a'])} → {_fmt(row['b'])}")
    return "\n".join(lines)
