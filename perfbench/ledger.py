"""Outside-in per-layer ledger: timing wrappers around repro's public entry points.

A :class:`Recorder` replaces the public entry point of every layer with a
wrapper that records one span per call: its entry point, start, end and
parent.  Class entry points are wrapped on the class.  Functions that
``repro.core.ge`` and ``repro.core.planner`` bind at import time are
replaced in the calling module, because patching the defining module
would not reach those bindings.  :meth:`Recorder.installed` restores every
original on exit, so nothing outside this file is changed.

Spans stay in memory (columnar arrays) and are analysed after the run:

* a span's self time is its duration minus the durations of its direct
  children, so the self times of every span under a traced
  ``SimulationHarness.run`` sum to that run's duration by construction;
* a layer's ``calls`` are its entries: spans whose parent belongs to
  another layer (``Tracer.job_arrived`` calling ``Tracer.begin_span`` is
  one sink call, not two);
* every span carries its cell id and the GE round number in progress,
  recovered from the span tree (no per-call bookkeeping).
"""

from __future__ import annotations

import functools
import itertools
import re
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: (module, class or None for a module-level binding, attribute, layer).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.server.harness", "SimulationHarness", "run", "server.harness"),
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.workload.generator", "PoissonWorkloadGenerator", "materialize", "workload"),
    ("repro.server.core", "Core", "set_plan", "server.core.set_plan"),
    ("repro.server.core", "Core", "checkpoint", "server.core.checkpoint"),
    ("repro.server.core", "Core", "abort_job", "server.core.abort_job"),
    ("repro.core.ge", "GEScheduler", "reschedule", "core.ge"),
    ("repro.core.ge", "GEScheduler", "on_arrival", "core.ge"),
    ("repro.core.ge", "GEScheduler", "on_core_idle", "core.ge"),
    ("repro.core.ge", "GEScheduler", "on_quantum", "core.ge"),
    ("repro.core.ge", "GEScheduler", "on_core_failed", "core.ge"),
    ("repro.core.ge", "GEScheduler", "on_core_recovered", "core.ge"),
    ("repro.core.ge", "GEScheduler", "on_budget_change", "core.ge"),
    ("repro.core.ge", None, "lf_cut_waterline", "core.cutting"),
    ("repro.core.cutting", "WaterlineMemo", "get", "core.cutting"),
    ("repro.power.distribution", "EqualSharing", "distribute", "power.distribution"),
    ("repro.power.distribution", "WaterFilling", "distribute", "power.distribution"),
    ("repro.core.ge", None, "core_power_demand", "core.planner.demand"),
    ("repro.core.ge", None, "build_core_plan", "core.planner"),
    ("repro.core.planner", None, "quality_opt", "core.quality_opt"),
    ("repro.core.planner", None, "yds_schedule", "core.energy_opt"),
    ("repro.quality.monitor", "QualityMonitor", "record_job", "quality.monitor"),
    ("repro.metrics.collector", "MetricsCollector", "record_settle", "metrics.collector"),
    ("repro.baselines.queue_order", "QueueOrderScheduler", "on_arrival", "baselines.queue_order"),
    ("repro.baselines.queue_order", "QueueOrderScheduler", "on_core_idle", "baselines.queue_order"),
    ("repro.server.machine", "MulticoreServer", "fail_core", "chaos"),
    ("repro.server.machine", "MulticoreServer", "recover_core", "chaos"),
    ("repro.server.machine", "MulticoreServer", "set_budget", "chaos"),
)

#: Telemetry sinks: (module, class, layer).  A hook's layer is that of
#: the instance it runs on, so ``StreamingTracer`` calling up into
#: ``Tracer.begin_span`` stays in ``obs.stream``.
SINKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.obs.tracer", "Tracer", "obs.full"),
    ("repro.obs.stream", "StreamingTracer", "obs.stream"),
    ("repro.check.sanitizer", "SanitizingTracer", "check.sanitize"),
)
SINK_HOOK = re.compile(
    r"job_\w+|exec_\w+|run_\w+|scheduler_event|decision|sample_cores"
    r"|begin_span|end_span|event"
)

#: The trigger hook a round was called from decides its cause.
ROUND_CAUSE = {
    "GEScheduler.on_arrival": "arrival",
    "GEScheduler.on_core_idle": "idle",
    "GEScheduler.on_quantum": "quantum",
    "GEScheduler.on_core_failed": "chaos",
    "GEScheduler.on_core_recovered": "chaos",
    "GEScheduler.on_budget_change": "chaos",
}

CELL = "bench.cell"
VALIDATION = "validation"
_RUN = "SimulationHarness.run"
_ROUND = "GEScheduler.reschedule"

#: Relative tolerance below which a Quality-OPT grant counts as the
#: full request (float noise, not a cut).
_GRANT_TOL = 1e-9


def _resolve(module: str, owner: Optional[str]) -> Any:
    mod = __import__(module, fromlist=["_"])
    return mod if owner is None else getattr(mod, owner)


class Recorder:
    """Span storage plus the wrappers that fill it.

    One recorder covers one traced pass of a workload; each cell runs
    under :meth:`in_cell` and the wrappers are live only inside
    :meth:`installed`.
    """

    def __init__(self) -> None:
        self.entries: List[str] = []
        self.layers: List[str] = []
        self._kid: Dict[Tuple[str, str], int] = {}
        self.seq = array("q")
        self.key = array("h")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self._next = itertools.count().__next__
        self.cell_labels: List[str] = []
        #: Exact counts observed at the entry points (beyond span counts).
        self.counts: Counter = Counter()
        self._built = False
        self._last_decision: Dict[int, Tuple[Any, Any]] = {}
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        for module, owner, attr, layer in ENTRY_POINTS:
            target = _resolve(module, owner)
            name = f"{owner}.{attr}" if owner else attr
            before, after = self._hooks(name)
            wrapper = self._wrap(self.kid(layer, name), vars(target)[attr], before, after)
            self._patches.append((target, attr, vars(target)[attr], wrapper))
        sink_classes = [(_resolve(m, c), layer) for m, c, layer in SINKS]
        for cls, _ in sink_classes:
            for attr, fn in vars(cls).items():
                if not (callable(fn) and SINK_HOOK.fullmatch(attr)):
                    continue
                name = f"{cls.__name__}.{attr}"
                by_type = {
                    sub: self.kid(layer, name)
                    for sub, layer in sink_classes
                    if issubclass(sub, cls)
                }
                self._patches.append((cls, attr, fn, self._wrap_sink(by_type, fn)))
        self.cell_kid = self.kid(CELL, CELL)
        self.validation_kid = self.kid(VALIDATION, "validate_run")

    def kid(self, layer: str, entry: str) -> int:
        """Key id of one (layer, entry point) pair."""
        k = (layer, entry)
        if k not in self._kid:
            self._kid[k] = len(self.entries)
            self.entries.append(entry)
            self.layers.append(layer)
        return self._kid[k]

    # ------------------------------------------------------------------
    # Observations that span counts alone cannot give
    # ------------------------------------------------------------------
    def _hooks(self, name: str) -> Tuple[Optional[Callable], Optional[Callable]]:
        counts = self.counts

        def round_start(args: tuple, kwargs: dict) -> None:
            self._built = False

        def plan_built(args: tuple, kwargs: dict, result: Any) -> None:
            self._built = True

        def plan_installed(args: tuple, kwargs: dict) -> None:
            segments = args[1] if len(args) > 1 else kwargs["segments"]
            if segments:
                counts["plan.installs"] += 1
                if not self._built:
                    counts["plan.reuses"] += 1
            self._built = False

        def cut_done(args: tuple, kwargs: dict, result: Any) -> None:
            counts["cutting.jobs"] += len(args[1])

        def memo_looked_up(args: tuple, kwargs: dict, result: Any) -> None:
            if result is not None:
                counts["cutting.memo_hits"] += 1

        def distributed(args: tuple, kwargs: dict, result: Any) -> None:
            policy = args[0]
            last = self._last_decision.get(id(policy))
            if last is not None and last[1] is result:
                counts["distribution.reuses"] += 1
            self._last_decision[id(policy)] = (policy, result)

        def granted(args: tuple, kwargs: dict, result: Any) -> None:
            extras = args[0]
            grants = result.tolist() if isinstance(result, np.ndarray) else result
            counts["quality_opt.jobs"] += len(extras)
            counts["quality_opt.cut"] += sum(
                1 for g, e in zip(grants, extras) if g < e * (1.0 - _GRANT_TOL)
            )

        return {
            "GEScheduler.reschedule": (round_start, None),
            "build_core_plan": (None, plan_built),
            "Core.set_plan": (plan_installed, None),
            "lf_cut_waterline": (None, cut_done),
            "WaterlineMemo.get": (None, memo_looked_up),
            "EqualSharing.distribute": (None, distributed),
            "WaterFilling.distribute": (None, distributed),
            "quality_opt": (None, granted),
        }.get(name, (None, None))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(
        self,
        kid: int,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        perf = time.perf_counter
        stack = self.stack
        nxt = self._next
        put_seq, put_key, put_parent = self.seq.append, self.key.append, self.parent.append
        put_start, put_end = self.start.append, self.end.append

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            seq = nxt()
            parent = stack[-1]
            stack.append(seq)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                put_seq(seq)
                put_key(kid)
                put_parent(parent)
                put_start(t0)
                put_end(t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_sink(self, kid_by_type: Dict[type, int], fn: Callable) -> Callable:
        """Like :meth:`_wrap`, but the span's key follows the sink's type."""
        perf = time.perf_counter
        stack = self.stack
        nxt = self._next
        put_seq, put_key, put_parent = self.seq.append, self.key.append, self.parent.append
        put_start, put_end = self.start.append, self.end.append

        @functools.wraps(fn)
        def wrapper(sink: Any, *args: Any, **kwargs: Any) -> Any:
            kid = kid_by_type[type(sink)]
            seq = nxt()
            parent = stack[-1]
            stack.append(seq)
            t0 = perf()
            try:
                return fn(sink, *args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                put_seq(seq)
                put_key(kid)
                put_parent(parent)
                put_start(t0)
                put_end(t1)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every entry point; restore the originals on exit."""
        done: List[Tuple[Any, str, Any]] = []
        try:
            for target, attr, original, wrapper in self._patches:
                setattr(target, attr, wrapper)
                done.append((target, attr, original))
            yield
        finally:
            for target, attr, original in reversed(done):
                setattr(target, attr, original)

    def in_cell(self, label: str, body: Callable[[], Any]) -> Any:
        """Call ``body`` as one cell span, the root of the cell's spans."""
        self.cell_labels.append(label)
        self._last_decision.clear()
        return self._wrap(self.cell_kid, body)()

    def validate(self, fn: Callable, *args: Any) -> Any:
        """Call the benchmark's own check as a ``validation`` span."""
        return self._wrap(self.validation_kid, fn)(*args)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def spans(self) -> Dict[str, np.ndarray]:
        """All spans in entry order, with derived self time, cell and round."""
        order = np.argsort(np.frombuffer(self.seq, dtype=np.int64), kind="stable")
        key = np.frombuffer(self.key, dtype=np.int16)[order].astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)[order]
        start = np.frombuffer(self.start, dtype=np.float64)[order]
        end = np.frombuffer(self.end, dtype=np.float64)[order]
        n = key.size
        # Every span closed, so entry sequence numbers are 0..n-1 and a
        # parent's sequence number is its index.
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        # Climb to the depth-1 ancestor (the child of the cell span).
        top = np.arange(n)
        while True:
            up = parent[top]
            move = (up >= 0) & (parent[np.maximum(up, 0)] >= 0)
            if not move.any():
                break
            top = np.where(move, up, top)
        cell_index = np.where(parent[top] >= 0, parent[top], top)
        cell_id = np.cumsum(key == self.cell_kid) - 1
        rounds = np.cumsum(key == self._kid[("core.ge", _ROUND)])
        round_no = rounds - rounds[cell_index]
        return {
            "key": key,
            "parent": parent,
            "start": start,
            "dur": dur,
            "self": dur - child,
            "in_run": key[top] == self._kid[("server.harness", _RUN)],
            "cell": cell_id[cell_index],
            "round": round_no,
        }

    def save(self, path: str, spans: Dict[str, np.ndarray]) -> None:
        """Write the spans as a NumPy ``.npz`` archive, one row per call.

        ``key`` indexes ``entry``/``layer``, ``parent`` is a row index
        (-1 for a cell span), ``cell`` indexes ``cell_label``, times are
        host seconds from the first span.
        """
        start = spans["start"]
        origin = float(start[0]) if start.size else 0.0
        np.savez(
            path,
            entry=np.asarray(self.entries),
            layer=np.asarray(self.layers),
            cell_label=np.asarray(self.cell_labels),
            key=spans["key"].astype(np.int16),
            start=start - origin,
            duration=spans["dur"].astype(np.float32),
            parent=spans["parent"].astype(np.int32),
            cell=spans["cell"].astype(np.int16),
            round=spans["round"].astype(np.int32),
        )

    def ledger(self, spans: Dict[str, np.ndarray]) -> "Ledger":
        """Per-layer self time, entries and exact counts of this pass."""
        key, parent, in_run = spans["key"], spans["parent"], spans["in_run"]
        layer_names = sorted(set(self.layers))
        layer_of_key = np.array([layer_names.index(x) for x in self.layers])
        layer = layer_of_key[key]
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        entry = layer != parent_layer
        nl = len(layer_names)
        self_in = np.bincount(layer[in_run], weights=spans["self"][in_run], minlength=nl)
        self_out = np.bincount(layer[~in_run], weights=spans["self"][~in_run], minlength=nl)
        entries = np.bincount(layer[entry & in_run], minlength=nl)
        per_key = np.bincount(key, minlength=len(self.entries))
        run_total = float(spans["dur"][key == self._kid[("server.harness", _RUN)]].sum())
        # A sink hook's entry name occurs once per sink layer.
        calls: Counter = Counter()
        for k, entry_name in enumerate(self.entries):
            calls[entry_name] += int(per_key[k])
        rounds = key == self._kid[("core.ge", _ROUND)]
        causes: Counter = Counter()
        parent_entry = np.where(parent >= 0, key[np.maximum(parent, 0)], -1)
        for pk, c in zip(*np.unique(parent_entry[rounds], return_counts=True)):
            causes[ROUND_CAUSE.get(self.entries[pk], "other") if pk >= 0 else "other"] += int(c)
        qopt = key == self._kid[("core.quality_opt", "quality_opt")]
        return Ledger(
            layers={
                name: LayerRow(
                    name,
                    int(entries[i]),
                    float(self_in[i]),
                    float(self_out[i]),
                )
                for i, name in enumerate(layer_names)
            },
            run_total=run_total,
            self_total=float(self_in.sum()),
            calls=dict(calls),
            counts=dict(self.counts),
            round_causes=dict(causes),
            round_us=spans["dur"][rounds & in_run] * 1e6,
            quality_opt_us=spans["dur"][qopt & in_run] * 1e6,
        )


@dataclass
class LayerRow:
    """One layer of a ledger."""

    name: str
    #: Entries into the layer inside the traced runs.
    calls: int
    #: Self time inside the traced runs.
    self_s: float
    #: Self time outside the runs (cell set-up, validation).
    outside_s: float


@dataclass
class Ledger:
    """The analysed spans of one traced pass."""

    layers: Dict[str, LayerRow]
    #: Total duration of the traced ``SimulationHarness.run`` calls.
    run_total: float
    #: Sum of every layer's self time inside those runs.
    self_total: float
    #: Spans per entry point name.
    calls: Dict[str, int]
    #: Exact counts observed by the entry-point hooks.
    counts: Dict[str, int]
    #: GE rounds per trigger cause.
    round_causes: Dict[str, int]
    round_us: np.ndarray
    quality_opt_us: np.ndarray

    def self_s(self, layer: str) -> float:
        row = self.layers.get(layer)
        return row.self_s if row is not None else 0.0

    def outside_s(self, layer: str) -> float:
        row = self.layers.get(layer)
        return row.outside_s if row is not None else 0.0

    def entries_of(self, layer: str) -> int:
        row = self.layers.get(layer)
        return row.calls if row is not None else 0
