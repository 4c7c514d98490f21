"""The hot-path phase profiler and its zero-overhead null twin.

:class:`PhaseProfiler` answers "where does *wall* time go inside a
run": each instrumented phase (``scheduler.round``, ``cut.lf``,
``power.distribute``, ``planner.quality_opt``, ``planner.energy_opt``,
``sim.run``) aggregates its call count and total/max elapsed wall time
into :class:`repro.obs.registry.PhaseTimer` instruments of the run's
:class:`~repro.obs.registry.MetricsRegistry`, so profiles ride the
normal trace/metric export path.

Phases nest freely (each ``with`` holds its own start stamp) and report
*inclusive* time: ``scheduler.round`` contains ``cut.lf`` and the
planner phases.  Instrumentation is deliberately coarse — per scheduling
round and per planned core, never per simulated event — which keeps the
enabled-run overhead under a couple of percent of wall time.

This is the **only** module in the deterministic tree sanctioned to
read the monotonic clock (sim-lint SIM001 module allowlist, see
``docs/static-analysis.md``): elapsed wall time is written to telemetry
and never read back by simulation logic, so profiled runs stay
bit-identical to unprofiled ones.

Disabled runs pay nothing: instrumented code holds the shared
:data:`NULL_PROFILER`, whose :meth:`~NullProfiler.phase` returns one
shared no-op context manager — no allocation, no clock read (asserted
by ``tests/obs/test_overhead.py``).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Optional, TypeVar, Union

from repro.obs.registry import MetricsRegistry, PhaseTimer

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "PHASE_PREFIX",
    "PhaseHandle",
    "PhaseProfiler",
    "ProfilerLike",
]

#: Registry-name prefix for phase timers (``prof.scheduler.round`` …).
PHASE_PREFIX = "prof."

_F = TypeVar("_F", bound=Callable[..., Any])

#: Anything instrumented code accepts as its profiling sink.
ProfilerLike = Union["PhaseProfiler", "NullProfiler"]


class PhaseHandle:
    """One timed entry into a phase (the live ``with`` object).

    Handles are single-use and cheap: enter stamps the monotonic clock,
    exit records the elapsed wall time into the phase's
    :class:`~repro.obs.registry.PhaseTimer` and keeps it on
    :attr:`elapsed` for the caller (e.g. to feed a latency histogram).
    Nested/recursive phases work because every entry owns its handle.
    """

    __slots__ = ("_timer", "_start", "elapsed")

    def __init__(self, timer: PhaseTimer) -> None:
        self._timer = timer
        self._start = 0.0
        #: Elapsed wall seconds of the completed entry (0 until exit).
        self.elapsed = 0.0

    def __enter__(self) -> "PhaseHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._timer.record(self.elapsed)


class PhaseProfiler:
    """Aggregates per-phase wall-time statistics for one run.

    Parameters
    ----------
    registry:
        The metrics registry to publish into.  A :class:`repro.obs.Tracer`
        passes its own registry so phase timers export alongside the
        simulation metrics; standalone use may omit it to get a private
        registry.
    """

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # name → PhaseTimer, so the hot phase() call skips the string
        # concatenation and the registry's instrument bookkeeping after
        # the first entry of each phase (timers are never unregistered).
        self._timers: Dict[str, PhaseTimer] = {}

    def phase(self, name: str) -> PhaseHandle:
        """A context manager timing one entry into phase ``name``."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self.registry.phase_timer(PHASE_PREFIX + name)
            self._timers[name] = timer
        return PhaseHandle(timer)

    def timer(self, name: str) -> PhaseTimer:
        """The phase's underlying timer (hoist out of tight loops)."""
        return self.registry.phase_timer(PHASE_PREFIX + name)

    def wrap(self, name: str) -> Callable[[_F], _F]:
        """Decorator form: profile every call of the wrapped function."""

        def decorate(fn: _F) -> _F:
            @functools.wraps(fn)
            def inner(*args: Any, **kwargs: Any) -> Any:
                with self.phase(name):
                    return fn(*args, **kwargs)

            return inner  # type: ignore[return-value]

        return decorate

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Phase name → JSON-native stats (the ``prof.`` prefix stripped).

        Only phase timers are included; other instruments sharing the
        registry are left to the normal metrics snapshot.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.registry.names():
            if name.startswith(PHASE_PREFIX):
                snap = self.registry.phase_timer(name).snapshot()
                out[name[len(PHASE_PREFIX):]] = snap
        return out


class _NullPhase:
    """Shared no-op ``with`` target returned by the null profiler."""

    __slots__ = ()

    #: Mirrors :attr:`PhaseHandle.elapsed` so unguarded reads are safe.
    elapsed = 0.0

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_PHASE = _NullPhase()


class NullProfiler:
    """Profiling disabled: every hook is a no-op.

    ``enabled`` is ``False``; :meth:`phase` hands back one shared
    context manager, so a disabled run performs no allocation and never
    reads a clock.
    """

    __slots__ = ()

    enabled = False

    def phase(self, name: str) -> _NullPhase:
        return _NULL_PHASE

    def wrap(self, name: str) -> Callable[[_F], _F]:
        return lambda fn: fn

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}


#: Shared process-wide null profiler (stateless, safe to share).
NULL_PROFILER = NullProfiler()
