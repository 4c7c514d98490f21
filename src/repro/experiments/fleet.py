"""The fleet executor: one task grid, many worker processes, one rollup.

The paper's evaluation is a grid — schedulers × arrival rates × seeds —
and this module runs that grid as a *fleet* instead of a for-loop.  A
:class:`~repro.experiments.registry.FleetTask` names one grid cell
(fleet scenario × seed × optional rate override); :func:`run_fleet`
hands the cells one at a time to spawn-context worker processes over
one pipe per worker, and each worker answers each task with exactly one
message: the task's result payload or its error record.  The finished
fleet lands in the :class:`~repro.obs.runs.RunStore` — one
``repro.run/1`` summary per task plus one ``repro.fleet/1`` rollup
document, a pure function of the per-task results
(:func:`fleet_rollup`).

Two guarantees make the fleet load-bearing rather than decorative:

**Determinism.**  :func:`execute_task` is the single execution path
for worker processes and for ``workers=1`` (which runs in-process), and
a simulation run is a pure function of (config, seed) — workers share
nothing and the pipe only carries tasks in and results out.  Per-task
``RunResult`` payloads from a parallel fleet are therefore
bit-identical to an in-process fleet on the same grid (pickling a float
preserves its bits), pinned by ``tests/experiments/test_fleet.py``.

**Crash isolation.**  A task that raises becomes an ``exception``
record and the worker moves on to its next task.  A worker that *dies*
(killed, ``os._exit``) closes its pipe end; the parent reads that end
of file only after everything the worker sent, so exactly the task it
handed out and never got an answer for becomes a ``worker-death``
record.  Tasks left over when no worker survives become ``unrun``
records — either way the rest of the fleet completes and the fleet's
exit code reflects the failures.

This module is the sanctioned home for ``multiprocessing``: sim-lint's
SIM004 fleet-confinement check keeps it out of every other module.  The
worker entry point :func:`_worker_main` is a module-level function
because the spawn start method pickles it by qualified name.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.errors import ReproError
from repro.experiments.registry import FLEET_SCENARIOS, FleetTask
from repro.obs.runs import FLEET_SCHEMA, RunStore, make_summary
from repro.obs.stream import StreamingTracer
from repro.server.harness import SimulationHarness

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import SpawnProcess

__all__ = [
    "FleetResult",
    "cross_run_quantiles",
    "execute_task",
    "fleet_compliance",
    "fleet_rollup",
    "fleet_run_id",
    "run_fleet",
]

#: A worker's answer to one task: ``("result", payload)`` or
#: ``("error", {"exception": ..., "traceback": ...})``.
_Answer = Tuple[str, Dict[str, Any]]


# ----------------------------------------------------------------------
# Task execution (shared by every mode — the determinism anchor)
# ----------------------------------------------------------------------
def execute_task(task: FleetTask) -> Dict[str, Any]:
    """Run one grid cell under a streaming tracer; returns its payload.

    This is the one execution path shared by worker processes and the
    in-process ``workers=1`` fleet, which is what makes the
    parallel-vs-in-process bit-identity hold by construction.

    The payload is JSON-native: the task spec, the ``RunResult`` as a
    dict, the full streaming summary (windows, SLOs, utilization,
    metrics, meta), the simulator event count and the host wall time.
    Only ``wall_s`` is host-dependent; everything else is a pure
    function of (config, seed).
    """
    scenario = FLEET_SCENARIOS.get(task.scenario)
    if scenario is None:
        raise ReproError(
            f"unknown fleet scenario {task.scenario!r}; "
            f"available: {', '.join(FLEET_SCENARIOS)}"
        )
    if task.inject == "raise":
        raise RuntimeError(f"injected failure in task {task.key}")
    if task.inject == "exit":
        # The hard-death injection only makes sense where there is a
        # worker process to kill; _worker_main intercepts it earlier.
        raise ReproError(
            f"task {task.key}: inject='exit' requires a fleet worker process"
        )
    config = scenario.config(task.scale, task.seed)
    if task.rate is not None:
        config = config.with_overrides(arrival_rate=float(task.rate))
    tracer = StreamingTracer()
    harness = SimulationHarness(config, scenario.factory(), tracer=tracer)
    wall_start = time.perf_counter()
    result = harness.run()
    wall = time.perf_counter() - wall_start
    return {
        "task": asdict(task),
        "result": asdict(result),
        "summary": tracer.summary(),
        "events": harness.sim.events_processed,
        "wall_s": wall,
    }


def _answer(task: FleetTask) -> _Answer:
    """Run one task, turning an exception into an error answer."""
    try:
        return "result", execute_task(task)
    except Exception as exc:
        return "error", {
            "exception": repr(exc),
            "traceback": traceback.format_exc(),
        }


def _worker_main(conn: "Connection") -> None:
    """Worker entry point: answer each task received until ``None``.

    Module-level because the spawn start method pickles the target by
    qualified name.  Every task is isolated: an exception becomes an
    error answer and the worker waits for the next task; only a hard
    death (``inject="exit"``, a kill) ends the loop early, and the
    parent sees it as the end of this worker's pipe.

    Ctrl-C reaches the whole process group; the worker ignores it and
    leaves it to the parent, which reports the interrupt and terminates
    its workers on the way out.  The worker starts with SIGINT blocked
    (see :func:`_run_workers`), so a Ctrl-C during its start-up stays
    pending until it is ignored, and is then discarded.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    for task in iter(conn.recv, None):
        if task.inject == "exit":
            os._exit(43)
        conn.send(_answer(task))


# ----------------------------------------------------------------------
# Rollup (a pure function of the per-task results)
# ----------------------------------------------------------------------
#: The quantiles the fleet rollup reports across runs.
CROSS_RUN_QUANTILES: Tuple[float, ...] = (0.5, 0.9)


def cross_run_quantiles(values: List[float]) -> Dict[str, float]:
    """Exact :data:`CROSS_RUN_QUANTILES` across per-run scalars (linear
    interpolation).

    The fleet rollup merges telemetry *across* runs at this level —
    per-run scalars, sorted, interpolated — because the within-run P²
    sketches are streaming approximations whose internal states do not
    compose exactly: folding two sketches' markers would give an
    estimate that depends on merge order.  Cross-run quantiles over
    exact per-run values are deterministic for a fixed task grid (see
    the determinism caveats in ``docs/observability.md``).
    """
    if not values:
        return {}
    ordered = sorted(values)
    out: Dict[str, float] = {}
    n = len(ordered)
    for q in CROSS_RUN_QUANTILES:
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out[f"p{q * 100:g}"] = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
    return out


def fleet_rollup(
    results: Mapping[str, Dict[str, Any]],
    errors: Sequence[Dict[str, Any]],
    workers: Mapping[int, Dict[str, Any]],
) -> Dict[str, Any]:
    """The fleet-level aggregate of per-task results and error records.

    ``results`` maps task keys to :func:`execute_task` payloads (each
    tagged with the ``worker`` that ran it), ``errors`` holds the error
    records and ``workers`` maps worker ids to their ``pid`` and
    ``exitcode``.  Per-scenario rows aggregate the per-task
    ``RunResult`` and SLO summaries; ``quantiles`` are exact cross-run
    quantiles over per-run scalars (see :func:`cross_run_quantiles` for
    why P² sketches are not merged); ``throughput`` sums simulator
    events over summed worker wall time; ``slo_violation_events`` sums
    each run's violated SLOs (each fires its event once).
    """
    scenarios: Dict[str, Dict[str, Any]] = {}
    qualities: List[float] = []
    headrooms: List[float] = []
    total_events = 0
    total_wall = 0.0
    violations = 0
    for key in sorted(results):
        payload = results[key]
        spec = payload.get("task") or {}
        result = payload.get("result") or {}
        slo = ((payload.get("summary") or {}).get("slo")) or {}
        name = str(spec.get("scenario", "?"))
        row = scenarios.setdefault(name, {
            "tasks": 0, "slo_compliant": 0, "slo_evaluated": 0,
            "quality_min": None, "quality_mean": 0.0, "quality_max": None,
            "energy_sum": 0.0, "events": 0,
        })
        row["tasks"] += 1
        quality = result.get("quality")
        if quality is not None:
            quality = float(quality)
            qualities.append(quality)
            row["quality_mean"] += quality
            row["quality_min"] = (
                quality if row["quality_min"] is None
                else min(row["quality_min"], quality)
            )
            row["quality_max"] = (
                quality if row["quality_max"] is None
                else max(row["quality_max"], quality)
            )
        if result.get("energy") is not None:
            row["energy_sum"] += float(result["energy"])
        if slo:
            row["slo_evaluated"] += 1
            if slo.get("compliant"):
                row["slo_compliant"] += 1
            violations += int(slo.get("violations") or 0)
            power = (slo.get("slos") or {}).get("power_budget") or {}
            observed = power.get("observed") or {}
            if observed.get("headroom_min_w") is not None:
                headrooms.append(float(observed["headroom_min_w"]))
        events = payload.get("events")
        if events is not None:
            total_events += int(events)
            row["events"] += int(events)
        if payload.get("wall_s") is not None:
            total_wall += float(payload["wall_s"])
    for row in scenarios.values():
        if row["tasks"]:
            row["quality_mean"] = (
                row["quality_mean"] / row["tasks"]
                if row["quality_min"] is not None else None
            )
    rows: Dict[str, Dict[str, Any]] = {}
    for worker in sorted(workers):
        rows[str(worker)] = {
            "worker": worker,
            "pid": workers[worker].get("pid"),
            "tasks_done": sum(
                1 for p in results.values() if p.get("worker") == worker
            ),
            "tasks_failed": sum(1 for e in errors if e.get("worker") == worker),
            "exitcode": workers[worker].get("exitcode"),
        }
    return {
        "tasks": {
            "total": len(results) + len(errors),
            "succeeded": len(results),
            "failed": len(errors),
        },
        "scenarios": scenarios,
        "throughput": {
            "events": total_events,
            "worker_wall_s": total_wall,
            "events_per_sec": total_events / total_wall if total_wall > 0 else 0.0,
        },
        "quantiles": {
            "quality": cross_run_quantiles(qualities),
            "power_headroom_min_w": cross_run_quantiles(headrooms),
        },
        "slo_violation_events": violations,
        "workers": rows,
    }


# ----------------------------------------------------------------------
# Fleet summary assembly / persistence
# ----------------------------------------------------------------------
def fleet_run_id(tasks: Sequence[FleetTask]) -> str:
    """Content address of a fleet: hash of the sorted task keys.

    Same grid ⇒ same id ⇒ re-running overwrites (the registry's usual
    idempotent content addressing); task order does not matter.
    """
    digest = hashlib.sha256(
        "\n".join(sorted(task.key for task in tasks)).encode("utf-8")
    ).hexdigest()[:12]
    return f"fleet-{digest}"


def fleet_compliance(rollup: Dict[str, Any]) -> Optional[float]:
    """Fleet-wide SLO compliance: compliant runs / evaluated runs.

    ``None`` when no run carried an SLO summary (nothing to gate on —
    CI gates treat that as a failure, not a pass).
    """
    compliant = 0
    evaluated = 0
    for row in (rollup.get("scenarios") or {}).values():
        compliant += int(row.get("slo_compliant", 0))
        evaluated += int(row.get("slo_evaluated", 0))
    if evaluated == 0:
        return None
    return compliant / evaluated


def _validate_tasks(tasks: Sequence[FleetTask]) -> None:
    if not tasks:
        raise ReproError("fleet has no tasks (empty grid)")
    keys = [task.key for task in tasks]
    duplicates = sorted({k for k in keys if keys.count(k) > 1})
    if duplicates:
        raise ReproError(f"duplicate fleet task keys: {', '.join(duplicates)}")
    unknown = sorted({t.scenario for t in tasks if t.scenario not in FLEET_SCENARIOS})
    if unknown:
        raise ReproError(
            f"unknown fleet scenario(s): {', '.join(unknown)}; "
            f"available: {', '.join(FLEET_SCENARIOS)}"
        )


def _fleet_summary(
    tasks: Sequence[FleetTask],
    results: Dict[str, Dict[str, Any]],
    errors: List[Dict[str, Any]],
    workers: Dict[int, Dict[str, Any]],
    run_ids: Dict[str, str],
    *,
    mode: str,
) -> Dict[str, Any]:
    """Assemble the storable ``repro.fleet/1`` document."""
    task_rows: List[Dict[str, Any]] = []
    for task in tasks:
        payload = results.get(task.key, {})
        result = payload.get("result", {})
        task_rows.append({
            "key": task.key,
            "scenario": task.scenario,
            "seed": task.seed,
            "rate": task.rate,
            "scale": task.scale,
            "ok": task.key in results,
            "run_id": run_ids.get(task.key),
            "worker": payload.get("worker"),
            "quality": result.get("quality"),
            "energy": result.get("energy"),
            "slo_compliant": payload.get("summary", {}).get("slo", {}).get("compliant"),
            "wall_s": payload.get("wall_s"),
        })
    run_id = fleet_run_id(tasks)
    return {
        "schema": FLEET_SCHEMA,
        "run_id": run_id,
        "meta": {
            "scheduler": "fleet",
            "mode": mode,
            "workers": len(workers),
            "tasks": len(tasks),
            "succeeded": len(results),
            "failed": len(errors),
            "config_fingerprint": run_id.split("-", 1)[1],
        },
        "result": None,
        "rollup": fleet_rollup(results, errors, workers),
        "tasks": task_rows,
        "errors": [dict(e) for e in errors],
    }


def _persist(
    results: Dict[str, Dict[str, Any]], store: Optional[RunStore]
) -> Dict[str, str]:
    """Save every per-task ``repro.run/1`` summary; returns key → run id."""
    run_ids: Dict[str, str] = {}
    for key in sorted(results):
        payload = results[key]
        doc = make_summary(dict(payload["summary"]), result=payload["result"])
        if store is not None:
            run_ids[key] = store.save(doc)
        else:
            run_ids[key] = str(doc["run_id"])
    return run_ids


@dataclass
class FleetResult:
    """Outcome of one fleet execution."""

    fleet_id: str
    summary: Dict[str, Any]
    results: Dict[str, Dict[str, Any]]
    errors: List[Dict[str, Any]] = field(default_factory=list)
    run_ids: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every task produced a result."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        """Process exit code the CLI propagates: 0 clean, 1 with failures."""
        return 0 if self.ok else 1


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class _Ledger:
    """The parent's record of answers: task results and error records."""

    def __init__(self, progress: Optional[Callable[[str], None]]) -> None:
        self.results: Dict[str, Dict[str, Any]] = {}
        self.errors: List[Dict[str, Any]] = []
        self._say: Callable[[str], None] = progress or (lambda line: None)

    def _fail(self, kind: str, task: FleetTask, worker: Optional[int],
              exception: str, tb: Optional[str] = None,
              spec: Optional[Dict[str, Any]] = None) -> None:
        self.errors.append({
            "kind": kind,
            "task": task.key,
            "worker": worker,
            "exception": exception,
            "traceback": tb,
            "spec": spec,
        })

    def answer(self, task: FleetTask, worker: int, answer: _Answer) -> None:
        """Fold one worker's answer to ``task``."""
        kind, payload = answer
        if kind == "result":
            payload["worker"] = worker
            self.results[task.key] = payload
            self._say(_task_line(task.key, payload))
        else:
            self._fail("exception", task, worker, payload["exception"],
                       payload["traceback"], asdict(task))
            self._say(f"{task.key:<28} ERROR {payload['exception']}")

    def died(self, task: FleetTask, worker: int, exitcode: Optional[int]) -> None:
        """Record a worker that ended without answering ``task``."""
        exception = f"worker {worker} died (exitcode {exitcode})"
        self._fail("worker-death", task, worker, exception)
        self._say(f"{exception} while running {task.key}")

    def unrun(self, task: FleetTask) -> None:
        """Record a task no worker was left to run."""
        self._fail("unrun", task, None,
                   "no worker picked this task up (fleet died early)")
        self._say(f"{task.key:<28} UNRUN (no surviving worker)")


def _task_line(key: str, payload: Dict[str, Any]) -> str:
    """One progress line for a just-finished task."""
    result = payload.get("result") or {}
    slo = ((payload.get("summary") or {}).get("slo") or {})
    verdict = "-"
    if "compliant" in slo:
        verdict = "ok" if slo["compliant"] else f"{slo.get('violations')}!"
    return (
        f"{key:<28} worker={payload.get('worker', 0)}  "
        f"Q={result.get('quality', 0.0):.4f}  "
        f"E={result.get('energy', 0.0):.1f} J  "
        f"wall={payload.get('wall_s', 0.0):.2f} s  slo={verdict}"
    )


def _run_workers(
    tasks: Sequence[FleetTask], workers: int, ledger: _Ledger
) -> Dict[int, Dict[str, Any]]:
    """Run ``tasks`` on ``workers`` spawn processes; returns the worker table.

    Each worker holds at most one task: it gets the next one as soon as
    it answers (so a slow cell never blocks the rest) and ``None`` when
    none is left.  A worker's pipe reaches end of file only after the
    parent has read everything the worker sent, so a worker that ends
    without answering the task it holds died running that task.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker
    from multiprocessing.connection import wait

    ctx = mp.get_context("spawn")
    # The first spawn launches multiprocessing's resource tracker, and
    # that launch unblocks SIGINT here; launch it before the mask below.
    resource_tracker.ensure_running()
    pending = deque(tasks)
    held: Dict[int, FleetTask] = {}
    processes: List["SpawnProcess"] = []
    conns: Dict["Connection", int] = {}
    table: Dict[int, Dict[str, Any]] = {}

    def hand_out(worker: int, conn: "Connection") -> None:
        task = pending.popleft() if pending else None
        try:
            conn.send(task)
        except ConnectionError:  # already dead: its end of file comes next
            if task is not None:
                pending.appendleft(task)
            return
        if task is not None:
            held[worker] = task

    try:
        for worker in range(workers):
            parent_end, child_end = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main, args=(child_end,), daemon=True
            )
            # The child inherits the blocked mask, so a Ctrl-C while it
            # imports cannot interrupt it before it ignores SIGINT.  Here
            # the Ctrl-C is raised once the worker is on the list that
            # the ``finally`` below terminates.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                process.start()
                processes.append(process)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_end.close()
            conns[parent_end] = worker
            table[worker] = {"pid": process.pid, "exitcode": None}
            hand_out(worker, parent_end)
        while conns:
            for conn in cast(List["Connection"], wait(list(conns))):
                worker = conns[conn]
                try:
                    answer = conn.recv()
                except (EOFError, OSError):
                    # The worker is gone: end of file, a reset, or a
                    # message cut short by its death.
                    del conns[conn]
                    conn.close()
                    processes[worker].join()
                    exitcode = processes[worker].exitcode
                    table[worker]["exitcode"] = exitcode
                    task = held.pop(worker, None)
                    if task is not None:
                        ledger.died(task, worker, exitcode)
                    continue
                ledger.answer(held.pop(worker), worker, answer)
                hand_out(worker, conn)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join()
        for conn in conns:
            conn.close()
    for task in pending:
        ledger.unrun(task)
    return table


def run_fleet(
    tasks: Sequence[FleetTask],
    *,
    workers: int = 2,
    runs_dir: Optional[str] = None,
    store: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetResult:
    """Run the grid and store its per-task summaries and rollup.

    ``workers=1`` runs every task in-process, one after the other
    (mode ``sequential``); more fan the grid across that many
    spawn-context worker processes (mode ``parallel``, never more
    workers than tasks).  Both run :func:`execute_task`, so per-task
    results are identical.  ``progress`` receives one line per finished,
    failed or unrun task.  Every task ends in exactly one of ``results``
    or ``errors``.
    """
    _validate_tasks(tasks)
    if workers < 1:
        raise ReproError(f"fleet needs at least one worker, got {workers!r}")
    ledger = _Ledger(progress)
    table: Dict[int, Dict[str, Any]]
    if workers == 1:
        for task in tasks:
            ledger.answer(task, 0, _answer(task))
        table = {0: {"pid": os.getpid(), "exitcode": None}}
        mode = "sequential"
    else:
        table = _run_workers(tasks, min(workers, len(tasks)), ledger)
        mode = "parallel"

    run_store = RunStore(runs_dir) if store else None
    run_ids = _persist(ledger.results, run_store)
    summary = _fleet_summary(
        tasks, ledger.results, ledger.errors, table, run_ids, mode=mode
    )
    fleet_id = run_store.save(summary) if run_store is not None else str(summary["run_id"])
    return FleetResult(
        fleet_id=fleet_id,
        summary=summary,
        results=ledger.results,
        errors=ledger.errors,
        run_ids=run_ids,
    )
