"""The fleet executor: one task grid, many worker processes, one rollup.

The paper's evaluation is a grid — schedulers × arrival rates × seeds —
and this module runs that grid as a *fleet* instead of a for-loop.  A
:class:`~repro.experiments.registry.FleetTask` names one grid cell
(fleet scenario × seed × optional rate override); :func:`run_fleet`
fans a task list across spawn-context worker processes, each of which
runs its cell under a :class:`~repro.obs.stream.StreamingTracer` whose
extra bus sink ships ``repro.bus/1`` telemetry (see
:mod:`repro.obs.bus`) back over a bounded queue.  A central aggregator
thread folds the stream into fleet-level rollups and the finished fleet
lands in the :class:`~repro.obs.runs.RunStore` — one ``repro.run/1``
summary per task plus one ``repro.fleet/1`` rollup document.

Two guarantees make the fleet load-bearing rather than decorative:

**Determinism.**  :func:`execute_task` is the single execution path
for both the parallel and the sequential mode, and a simulation run is
a pure function of (config, seed) — workers share nothing and the bus
only carries results *out*.  Per-task ``RunResult`` payloads from a
parallel fleet are therefore bit-identical to :func:`run_sequential`
on the same grid (pickling a float preserves its bits), pinned by
``tests/experiments/test_fleet.py``.

**Crash isolation.**  A worker that raises ships a structured
``error`` message (exception, traceback, task spec); a worker that
*dies* (killed, ``os._exit``) is detected by the parent's process
watch and synthesized into an error record naming the task it was
running — either way the rest of the fleet completes and the fleet's
exit code reflects the failures.

This module is, with :mod:`repro.obs.bus`, the sanctioned home for
``multiprocessing`` (and host wall-clock reads for worker liveness):
sim-lint's SIM004 fleet-confinement check keeps both out of the
deterministic layers.  Worker entry points (:func:`_worker_main`,
:func:`_sweep_cell` …) are module-level functions because the spawn
start method pickles them by qualified name.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from queue import Empty, Queue
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ReproError
from repro.experiments.registry import FLEET_SCENARIOS, FleetTask
from repro.obs.bus import BusSender, FleetAggregator
from repro.obs.runs import FLEET_SCHEMA, RunStore, make_summary
from repro.obs.spans import EventRecord
from repro.obs.stream import StreamAggregator, StreamingTracer
from repro.obs.timeline import TimelineSample
from repro.obs.tracer import Sink
from repro.server.harness import SimulationHarness
from repro.units import Seconds

__all__ = [
    "DEFAULT_QUEUE_SIZE",
    "SNAPSHOT_EVERY",
    "FleetResult",
    "execute_task",
    "fleet_compliance",
    "fleet_run_id",
    "parallel_map",
    "run_fleet",
    "run_sequential",
]

#: Bound on the telemetry queue.  Small enough that a runaway worker
#: cannot exhaust parent memory; drops past it are counted, not silent.
DEFAULT_QUEUE_SIZE = 1024

#: A droppable windowed-snapshot message every this many sample batches
#: (quantum boundaries) — the live view's refresh cadence.
SNAPSHOT_EVERY = 50

#: Wall seconds without any message from a live worker before the
#: heartbeat watchdog reports it as stale (slow, not yet dead).
DEFAULT_HEARTBEAT_TIMEOUT_S = 30.0

#: Grace before ``os._exit`` on an ``inject="exit"`` task: lets the
#: queue's feeder thread flush the reliable task-start message, so the
#: parent can attribute the death to the task that was running.
_EXIT_FLUSH_S = 0.5

_T = TypeVar("_T")
_U = TypeVar("_U")


# ----------------------------------------------------------------------
# Task execution (shared by every mode — the determinism anchor)
# ----------------------------------------------------------------------
class _BusSink(Sink):
    """Ships live telemetry of one task over the bus.

    Rides after the task's :class:`StreamAggregator` in the tracer's
    sinks and only *reads* its state, so the folded telemetry — and
    the RunResult — stay bit-identical to an un-bussed run.  Every
    ``snapshot_every`` sample batches it sends a droppable windowed
    snapshot, and it forwards each ``slo_violation`` event.
    """

    def __init__(
        self,
        sender: BusSender,
        task_key: str,
        aggregator: StreamAggregator,
        snapshot_every: int = SNAPSHOT_EVERY,
    ) -> None:
        self._sender = sender
        self._task_key = task_key
        self._aggregator = aggregator
        self._snapshot_every = snapshot_every
        self._batches = 0

    def on_sample_batch(
        self, time: Seconds, samples: List[TimelineSample], machine: Any = None
    ) -> None:
        self._batches += 1
        if self._snapshot_every > 0 and self._batches % self._snapshot_every == 0:
            windows: Dict[str, Any] = {}
            for name in ("quality", "power_total_w"):
                series = self._aggregator.series.get(name)
                if series is not None and series.rows:
                    windows[name] = dict(series.rows[-1])
            self._sender.send(
                "snapshot",
                task=self._task_key,
                payload={
                    "t": float(time),
                    "windows": windows,
                    "record_counts": dict(self._aggregator.record_counts),
                },
            )

    def on_event(self, event: EventRecord) -> None:
        if event.kind == "slo_violation":  # attrs: slo, value, threshold
            self._sender.send(
                "slo_violation",
                task=self._task_key,
                payload={"time": event.time, **event.attrs},
            )


def execute_task(
    task: FleetTask,
    *,
    sender: Optional[BusSender] = None,
    snapshot_every: int = SNAPSHOT_EVERY,
) -> Dict[str, Any]:
    """Run one grid cell; returns its result payload.

    This is the one execution path shared by workers and the
    sequential mode, which is what makes parallel-vs-sequential
    bit-identity hold by construction.  With a ``sender`` the run
    ships live snapshot/violation telemetry (droppable, observation
    only); without one it runs under a plain streaming tracer.

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
    if sender is not None:
        tracer.sinks += (
            _BusSink(sender, task.key, tracer.aggregator, snapshot_every),
        )
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


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int, task_queue: Any, bus_queue: Any, snapshot_every: int
) -> None:
    """Worker entry point: drain tasks, ship telemetry, say bye.

    Module-level because the spawn start method pickles the target by
    qualified name.  Every task is isolated: an exception becomes a
    reliable ``error`` message and the worker moves on to the next
    task; only a hard death (``inject="exit"``, a kill) ends the loop
    without a ``bye``, which the parent's process watch turns into a
    synthesized error record.
    """
    sender = BusSender(bus_queue, worker=worker_id)
    sender.send("hello", payload={"pid": os.getpid()})
    try:
        while True:
            task: Optional[FleetTask] = task_queue.get()
            if task is None:
                break
            # Reliable start marker: crash attribution needs to know
            # which task this worker was holding when it died.
            sender.send(
                "progress", task=task.key, payload={"phase": "start"}, reliable=True
            )
            if task.inject == "exit":
                time.sleep(_EXIT_FLUSH_S)
                os._exit(43)
            try:
                payload = execute_task(
                    task, sender=sender, snapshot_every=snapshot_every
                )
            except Exception as exc:
                sender.send("error", task=task.key, payload={
                    "exception": repr(exc),
                    "traceback": traceback.format_exc(),
                    "task": asdict(task),
                })
            else:
                sender.send("result", task=task.key, payload=payload)
    finally:
        sender.send("bye", payload={"dropped": sender.drop_counts()})


# ----------------------------------------------------------------------
# Fleet summary assembly / persistence (shared by both modes)
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
    aggregator: FleetAggregator,
    run_ids: Dict[str, str],
    *,
    workers: int,
    mode: str,
) -> Dict[str, Any]:
    """Assemble the storable ``repro.fleet/1`` document."""
    rollup = aggregator.rollup()
    task_rows: List[Dict[str, Any]] = []
    for task in tasks:
        payload = aggregator.results.get(task.key)
        slo = None
        if payload is not None:
            slo = ((payload.get("summary") or {}).get("slo") or {}).get("compliant")
        task_rows.append({
            "key": task.key,
            "scenario": task.scenario,
            "seed": task.seed,
            "rate": task.rate,
            "scale": task.scale,
            "ok": payload is not None,
            "run_id": run_ids.get(task.key),
            "worker": payload.get("worker") if payload is not None else None,
            "quality": (payload["result"].get("quality")
                        if payload is not None else None),
            "energy": (payload["result"].get("energy")
                       if payload is not None else None),
            "slo_compliant": slo,
            "wall_s": payload.get("wall_s") if payload is not None else None,
        })
    run_id = fleet_run_id(tasks)
    return {
        "schema": FLEET_SCHEMA,
        "run_id": run_id,
        "meta": {
            "scheduler": "fleet",
            "mode": mode,
            "workers": workers,
            "tasks": len(tasks),
            "succeeded": len(aggregator.results),
            "failed": len(aggregator.errors),
            "config_fingerprint": run_id.split("-", 1)[1],
        },
        "result": None,
        "rollup": rollup,
        "tasks": task_rows,
        "errors": [dict(e) for e in aggregator.errors],
    }


def _persist(
    aggregator: FleetAggregator,
    store: Optional[RunStore],
) -> Dict[str, str]:
    """Save every per-task ``repro.run/1`` summary; returns key → run id."""
    run_ids: Dict[str, str] = {}
    for key in sorted(aggregator.results):
        payload = aggregator.results[key]
        doc = make_summary(dict(payload["summary"]), result=payload["result"])
        if store is not None:
            run_ids[key] = store.save(doc)
        else:
            run_ids[key] = str(doc["run_id"])
    return run_ids


@dataclass
class FleetResult:
    """Outcome of one fleet execution (either mode)."""

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
# Sequential mode (the determinism reference)
# ----------------------------------------------------------------------
def _drain_into(local_queue: "Queue[Dict[str, Any]]", aggregator: FleetAggregator) -> None:
    while True:
        try:
            message = local_queue.get_nowait()
        except Empty:
            return
        aggregator.on_message(message)


def run_sequential(
    tasks: Sequence[FleetTask],
    *,
    runs_dir: Optional[str] = None,
    store: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetResult:
    """Run the grid in-process, one task at a time.

    The reference execution the parallel fleet is compared against:
    the very same :func:`execute_task` path and the very same message
    fold (a :class:`BusSender` over a local queue feeding the same
    :class:`FleetAggregator`), minus the processes.  Task failures are
    isolated exactly like a worker's: an exception becomes an error
    record and the remaining tasks still run.
    """
    _validate_tasks(tasks)
    aggregator = FleetAggregator()
    local_queue: "Queue[Dict[str, Any]]" = Queue()
    sender = BusSender(local_queue, worker=0)
    sender.send("hello", payload={"pid": os.getpid()})
    for task in tasks:
        sender.send(
            "progress", task=task.key, payload={"phase": "start"}, reliable=True
        )
        try:
            payload = execute_task(task, sender=sender)
        except Exception as exc:
            sender.send("error", task=task.key, payload={
                "exception": repr(exc),
                "traceback": traceback.format_exc(),
                "task": asdict(task),
            })
        else:
            sender.send("result", task=task.key, payload=payload)
        _drain_into(local_queue, aggregator)
        if progress is not None:
            progress(_task_line(aggregator, task.key))
    sender.send("bye", payload={"dropped": sender.drop_counts()})
    _drain_into(local_queue, aggregator)

    run_store = RunStore(runs_dir) if store else None
    run_ids = _persist(aggregator, run_store)
    summary = _fleet_summary(tasks, aggregator, run_ids, workers=1, mode="sequential")
    fleet_id = run_store.save(summary) if run_store is not None else str(summary["run_id"])
    return FleetResult(
        fleet_id=fleet_id,
        summary=summary,
        results=dict(aggregator.results),
        errors=[dict(e) for e in aggregator.errors],
        run_ids=run_ids,
    )


def _task_line(aggregator: FleetAggregator, key: str) -> str:
    """One progress line for a just-finished task."""
    payload = aggregator.results.get(key)
    if payload is None:
        return f"{key:<28} FAILED"
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


# ----------------------------------------------------------------------
# Parallel mode
# ----------------------------------------------------------------------
def run_fleet(
    tasks: Sequence[FleetTask],
    *,
    workers: int = 2,
    runs_dir: Optional[str] = None,
    store: bool = True,
    queue_size: int = DEFAULT_QUEUE_SIZE,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
    snapshot_every: int = SNAPSHOT_EVERY,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetResult:
    """Fan the grid across spawn-context worker processes.

    Tasks are pulled from a shared queue (idle workers take the next
    cell, so a slow cell never blocks the rest); telemetry flows back
    over one bounded bus queue drained by the aggregator thread.  The
    main thread watches the worker processes: a worker that exits
    without its ``bye`` is marked dead and its in-flight task becomes
    a structured error record, and a worker silent past
    ``heartbeat_timeout`` wall seconds is reported as stale via
    ``progress`` (slow is not dead — only process exit is).  Tasks no
    worker ever picked up (every worker died first) are recorded as
    unrun errors, so the grid is always fully accounted: every task
    ends in exactly one of ``results`` or ``errors``.
    """
    import multiprocessing as mp

    _validate_tasks(tasks)
    if workers < 1:
        raise ReproError(f"fleet needs at least one worker, got {workers!r}")
    workers = min(workers, len(tasks))
    ctx = mp.get_context("spawn")
    task_queue = ctx.Queue()
    bus_queue = ctx.Queue(maxsize=queue_size)
    for task in tasks:
        task_queue.put(task)
    for _ in range(workers):
        task_queue.put(None)  # one shutdown sentinel per worker

    aggregator = FleetAggregator()
    lock = threading.Lock()
    stop = threading.Event()

    def _drain() -> None:
        while True:
            try:
                message = bus_queue.get(timeout=0.1)
            except Empty:
                if stop.is_set():
                    return
                continue
            with lock:
                aggregator.on_message(message)
            if progress is not None and message.get("type") == "result":
                with lock:
                    line = _task_line(aggregator, str(message.get("task")))
                progress(line)
            elif progress is not None and message.get("type") == "error":
                progress(f"{message.get('task')!s:<28} ERROR "
                         f"{message['payload'].get('exception')}")

    drainer = threading.Thread(target=_drain, name="fleet-aggregator", daemon=True)
    drainer.start()
    processes = [
        ctx.Process(
            target=_worker_main,
            args=(i, task_queue, bus_queue, snapshot_every),
            daemon=True,
        )
        for i in range(workers)
    ]
    for process in processes:
        process.start()

    handled: set = set()
    reported_stale: set = set()
    while any(p.is_alive() for p in processes):
        for i, process in enumerate(processes):
            if process.is_alive() or i in handled:
                continue
            process.join()
            handled.add(i)
            with lock:
                record = aggregator.mark_worker_dead(i, exitcode=process.exitcode)
            if record is not None and progress is not None:
                progress(
                    f"worker {i} died (exitcode {process.exitcode}) while "
                    f"running {record['task']}"
                )
        with lock:
            stale = aggregator.stale_workers(
                now=time.time(), timeout=heartbeat_timeout
            )
        for worker in stale:
            if worker not in reported_stale and progress is not None:
                reported_stale.add(worker)
                progress(
                    f"watchdog: no telemetry from worker {worker} for "
                    f"{heartbeat_timeout:g}s (still alive — slow task?)"
                )
        time.sleep(0.05)
    for i, process in enumerate(processes):
        process.join()
        if i not in handled:
            with lock:
                aggregator.mark_worker_dead(i, exitcode=process.exitcode)

    # Give the queue's feeder-flushed tail a moment, then stop the
    # drainer and sweep any straggler messages ourselves.
    deadline = time.time() + 5.0
    while time.time() < deadline and not bus_queue.empty():
        time.sleep(0.05)
    stop.set()
    drainer.join()
    while True:
        try:
            message = bus_queue.get_nowait()
        except Empty:
            break
        aggregator.on_message(message)

    # Tasks nobody ran (e.g. every worker died before reaching them).
    accounted = set(aggregator.results)
    accounted.update(str(e["task"]) for e in aggregator.errors if e.get("task"))
    for task in tasks:
        if task.key not in accounted:
            aggregator.mark_task_unrun(
                task.key, "no worker picked this task up (fleet died early)"
            )
            if progress is not None:
                progress(f"{task.key:<28} UNRUN (no surviving worker)")

    # Drop the queues' feeder threads without blocking interpreter exit
    # on unconsumed sentinels left behind by dead workers.
    for q in (task_queue, bus_queue):
        q.close()
        q.cancel_join_thread()

    run_store = RunStore(runs_dir) if store else None
    run_ids = _persist(aggregator, run_store)
    summary = _fleet_summary(
        tasks, aggregator, run_ids, workers=workers, mode="parallel"
    )
    fleet_id = run_store.save(summary) if run_store is not None else str(summary["run_id"])
    return FleetResult(
        fleet_id=fleet_id,
        summary=summary,
        results=dict(aggregator.results),
        errors=[dict(e) for e in aggregator.errors],
        run_ids=run_ids,
    )


# ----------------------------------------------------------------------
# Generic spawn-pool map (sweep_rates)
# ----------------------------------------------------------------------
def parallel_map(
    fn: Callable[[_T], _U], items: Sequence[_T], *, workers: int
) -> List[_U]:
    """Order-preserving map over a spawn-context process pool.

    ``fn`` and every item must be picklable (module-level functions,
    plain dataclasses).  ``workers <= 1`` degrades to an in-process
    loop, so callers can pass a ``parallel`` count straight
    through.  Note the pool has no crash isolation — a dying worker
    aborts the whole map; use :func:`run_fleet` when tasks may fail.
    """
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    with ctx.Pool(processes=min(workers, len(items) or 1)) as pool:
        return pool.map(fn, list(items))
