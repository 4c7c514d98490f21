"""Runtime invariant sanitizer riding the :mod:`repro.obs` trace stream.

:class:`Sanitizer` is a tracer sink that verifies, *as telemetry is
emitted*, the physical invariants the paper's accounting rests on — and
raises :class:`SanitizerViolation` with the offending record attached
the moment one breaks:

* **power budget, speeds, failed cores** (§III-D): at each core sample
  (t = 0, every quantum boundary, run end) :func:`audit_machine` checks
  every instant since the previous one against the ``H`` then in force;
  :func:`repro.validation.validate_run` runs the same audit post hoc;
* **energy conservation** (§II-B): the incremental cumulative energy
  reported by the timeline sampler equals an independent from-scratch
  integral of the piecewise-constant speed timelines;
* **volume accounting** (§III-B): per-job processed volume only grows,
  stays in ``[0, p_j]`` (:func:`volume_within_demand`, also used by
  ``validate_run``), and every exec slice reports non-negative work;
* **clock monotonicity**: span/event/sample timestamps never go
  backwards (simulated time is monotone);
* **quality floor** (§III-C): in AES mode under a compensated
  controller the monitored quality is at least ``Q_GE`` — dipping below
  must trigger the BQ compensation switch, so an AES decision below the
  floor means the controller is broken.

:class:`SanitizingTracer` is a :class:`repro.obs.tracer.Tracer` with a
:class:`~repro.obs.tracer.Buffer` and a :class:`Sanitizer` as sinks;
the sanitizer composes with any other sink (the CLI's ``--sanitize``
runs it next to the stream aggregator on ``repro run`` / ``scenario``
/ ``trace``).  The checks are read-only: a
run that passes produces a bit-identical :class:`RunResult` to an
untraced one (same guarantee as the plain tracer).

The energy cross-check re-integrates each core's timeline from scratch
at every sample, so a sanitized run costs O(samples × breakpoints) —
fine for the seeded 10-second debugging scenarios it exists for.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.spans import EventRecord, SpanRecord
from repro.obs.timeline import TimelineSample
from repro.obs.tracer import Buffer, Sink, Tracer
from repro.units import Seconds, Volume, Watts

if TYPE_CHECKING:  # type-only: repro.check must not import the server
    from repro.server.machine import MulticoreServer
    from repro.sim.timeline import StepTimeline

__all__ = ["MachineAudit", "Sanitizer", "SanitizerViolation", "SanitizingTracer",
           "audit_machine", "volume_within_demand"]

#: Relative slack on energy and quality comparisons (float noise).
_REL_EPS = 1e-6
#: Absolute slack for quantities that may legitimately be ~0.
_ABS_EPS = 1e-9
#: The one tolerance of each invariant both checkers share: Σ P ≤ H·(1 + _POWER_RTOL),
#: |quantize(v) − v| ≤ _SPEED_RTOL·v, processed ≤ p_j·(1 + _VOLUME_RTOL) + _VOLUME_ATOL.
_POWER_RTOL = 1e-6
_SPEED_RTOL = 1e-9
_VOLUME_RTOL = _VOLUME_ATOL = 1e-9


class SanitizerViolation(AssertionError):
    """A simulation invariant failed; carries the offending context.

    Attributes
    ----------
    invariant:
        Short name of the violated invariant (``"power_budget"``, ...).
    message:
        What broke, without the invariant prefix.
    context:
        The offending record(s): event/sample dicts, times, values.
    """

    def __init__(self, invariant: str, message: str, context: Dict[str, Any]) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message
        self.context = context


def volume_within_demand(processed: Volume, demand: Volume) -> bool:
    """Whether a job's processed volume lies in ``[0, p_j]`` (float slack)."""
    return 0.0 <= processed <= demand * (1.0 + _VOLUME_RTOL) + _VOLUME_ATOL


class MachineAudit(NamedTuple):
    """:func:`audit_machine`'s findings: the violations in time order,
    the peak Σ per-core power and the number of speed segments checked."""

    violations: List[SanitizerViolation]
    peak_power: Watts
    segments: int


def _window(
    timeline: "StepTimeline", start: Seconds, end: Seconds
) -> Tuple[np.ndarray, np.ndarray]:
    """The timeline's breakpoints (the first moved to ``start``) and values on ``[start, end)``."""
    times, values = timeline._times, timeline._values
    lo = max(bisect_right(times, start) - 1, 0)
    hi = bisect_left(times, end, lo + 1)
    return np.array([start] + times[lo + 1:hi]), np.array(values[lo:hi])


def audit_machine(machine: "MulticoreServer", start: Seconds, end: Seconds) -> MachineAudit:
    """Check the machine at every instant of ``[start, end)``.

    At each instant Σ_i P_i(s_i) ≤ H·(1 + 1e-6) for the ``H`` then in
    force (chaos dips change it), every speed is one its core's speed
    scale allows, and a failed core runs at speed 0.  Speeds, failed
    states and ``H`` are piecewise constant, so checking ``start`` and
    each breakpoint in the window covers every instant.  Reads only the
    cores' ``speed_timeline`` and ``failed_timeline``, the machine's
    ``budget_timeline``, ``models`` and ``scales``.
    """
    if end <= start:
        return MachineAudit([], 0.0, 0)
    speeds = [_window(core.speed_timeline, start, end) for core in machine.cores]
    failed = [_window(core.failed_timeline, start, end) for core in machine.cores]
    budget = _window(machine.budget_timeline, start, end)
    instants = np.unique(np.concatenate([times for times, _ in speeds + failed + [budget]]))

    def at(window: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        times, values = window
        return values[np.searchsorted(times, instants, side="right") - 1]

    found: List[SanitizerViolation] = []

    def breach(invariant: str, time: float, what: str, **context: Any) -> None:
        context["time"] = float(time)
        found.append(SanitizerViolation(invariant, f"{what} at t={time:.6f}", context))

    total = np.zeros(instants.size)
    for c, (model, scale) in enumerate(zip(machine.models, machine.scales)):
        speed = at(speeds[c])
        total += model.power(speed)
        for k in np.flatnonzero((speed > 0.0) & (at(failed[c]) > 0.0)):
            breach("failed_core_idle", instants[k],
                   f"failed core {c} ran at {speed[k]:.6f} GHz", core=c)
        for t, v in zip(speeds[c][0].tolist(), speeds[c][1].tolist()):
            if abs(scale.quantize(v) - v) > _SPEED_RTOL * v:
                breach("speed_allowed", t, f"core {c} ran at the disallowed speed "
                       f"{v:.6f} GHz", core=c, speed=v)
    limit = at(budget)
    for k in np.flatnonzero(total > limit * (1.0 + _POWER_RTOL)):
        breach("power_budget", instants[k],
               f"power {total[k]:.3f} W exceeds budget {float(limit[k])} W",
               total_power=float(total[k]), budget=float(limit[k]))
    found.sort(key=lambda v: v.context["time"])
    return MachineAudit(found, float(total.max()), sum(values.size for _, values in speeds))


class Sanitizer(Sink):
    """A sink that asserts simulation invariants on every record.

    ``H``, speeds and failed states come from the machine each core
    sample carries (see :func:`audit_machine`).

    Parameters
    ----------
    q_floor:
        Quality floor asserted on AES-mode decisions; ``None`` disables
        the check (use it only for compensated, cutting schedulers —
        see :meth:`for_run`).
    """

    def __init__(self, *, q_floor: Optional[float] = None) -> None:
        self.q_floor = None if q_floor is None else float(q_floor)
        self.checks_run = 0
        self._last_time = float("-inf")
        #: End of the window :func:`audit_machine` has checked so far.
        self._audited_until: Seconds = 0.0
        self._demand: Dict[int, float] = {}
        self._volume: Dict[int, float] = {}

    @classmethod
    def for_run(cls, config: Any, scheduler: Any = None) -> "Sanitizer":
        """Build a sanitizer wired to one run's configuration.

        The quality-floor check is only armed when ``scheduler`` is a
        compensated, cutting policy whose target is at least the
        configured ``Q_GE`` (plain GE): other policies legitimately sit
        in AES below the floor (no-compensation ablation) or never cut.
        """
        q_floor: Optional[float] = None
        if (
            scheduler is not None
            and getattr(scheduler, "compensated", False)
            and getattr(scheduler, "cutting", False)
            and getattr(scheduler, "q_offset", 0.0) >= 0.0
        ):
            q_floor = float(config.q_ge)
        return cls(q_floor=q_floor)

    # ------------------------------------------------------------------
    # Checker plumbing
    # ------------------------------------------------------------------
    def _fail(self, invariant: str, message: str, **context: Any) -> None:
        raise SanitizerViolation(invariant, message, context)

    def _advance_clock(self, time: Seconds, what: str, **context: Any) -> None:
        self.checks_run += 1
        if time < self._last_time - _ABS_EPS:
            self._fail(
                "clock_monotonic",
                f"{what} at t={time!r} precedes the previous record "
                f"at t={self._last_time!r}",
                time=time,
                last_time=self._last_time,
                **context,
            )
        self._last_time = max(self._last_time, time)

    # ------------------------------------------------------------------
    # Sink hooks
    # ------------------------------------------------------------------
    def on_span_open(self, span: SpanRecord) -> None:
        self._advance_clock(span.start, f"span `{span.name}` start", span_name=span.name)
        if span.name == "job":
            self._demand[int(span.attrs["jid"])] = float(span.attrs["demand"])

    def on_event(self, event: EventRecord) -> None:
        self._advance_clock(event.time, f"event `{event.kind}`", kind=event.kind)
        if event.kind == "decision":
            self._check_decision(event)

    def on_span_close(self, span: SpanRecord) -> None:
        assert span.end is not None
        if span.name == "exec":
            self._advance_clock(span.end, "exec slice end", span_id=span.span_id)
            self._check_exec_volume(span, span.end, float(span.attrs["done"]))
        elif span.name == "job":
            self._check_settled_volume(span, span.end)

    def on_sample_batch(
        self, time: Seconds, samples: List[TimelineSample], machine: Any = None
    ) -> None:
        self._advance_clock(time, "core sample")
        self._check_machine(machine, time)
        self._check_energy(machine, samples, time)

    # ------------------------------------------------------------------
    # The invariants
    # ------------------------------------------------------------------
    def _check_machine(self, machine: Any, time: Seconds) -> None:
        """Audit every instant since the previous core sample."""
        self.checks_run += 1
        start, self._audited_until = self._audited_until, time
        violations = audit_machine(machine, start, time).violations
        if violations:
            raise violations[0]

    def _check_energy(self, machine: Any, batch: Any, time: Seconds) -> None:
        self.checks_run += 1
        sampled = sum(s.energy for s in batch)
        exact = machine.energy(time)
        tol = _REL_EPS * max(abs(exact), 1.0) + _ABS_EPS
        if abs(sampled - exact) > tol:
            self._fail(
                "energy_conservation",
                f"cumulative sampled energy {sampled:.9f} J diverges from "
                f"the timeline integral {exact:.9f} J at t={time:.6f}",
                time=time,
                sampled_energy=sampled,
                exact_energy=exact,
            )

    def _check_exec_volume(self, span: SpanRecord, time: Seconds, done: Volume) -> None:
        self.checks_run += 1
        if done < -_ABS_EPS:
            self._fail(
                "volume_monotone",
                f"exec slice reported negative work {done!r} at t={time:.6f}",
                time=time,
                done=done,
                span=span.to_record(),
            )
        jid = span.attrs.get("jid")
        if jid is None:
            return
        jid = int(jid)
        total = self._volume.get(jid, 0.0) + max(done, 0.0)
        self._volume[jid] = total
        demand = self._demand.get(jid)
        if demand is not None and not volume_within_demand(total, demand):
            self._fail(
                "volume_bounded",
                f"job {jid} processed {total!r} units, above its demand "
                f"p_j={demand!r} (t={time:.6f})",
                time=time,
                jid=jid,
                processed=total,
                demand=demand,
                span=span.to_record(),
            )

    def _check_settled_volume(self, span: SpanRecord, time: Seconds) -> None:
        self.checks_run += 1
        jid = span.attrs["jid"]
        processed = float(span.attrs["processed"])
        demand = float(span.attrs["demand"])
        if not volume_within_demand(processed, demand):
            self._fail(
                "volume_bounded",
                f"job {jid} settled with processed={processed!r} outside "
                f"[0, p_j={demand!r}] (t={time:.6f})",
                time=time,
                jid=jid,
                processed=processed,
                demand=demand,
            )

    def _check_decision(self, record: EventRecord) -> None:
        self.checks_run += 1
        quality = record.attrs.get("monitor_quality")
        if quality is None:
            return
        quality = float(quality)
        if quality < -_ABS_EPS or quality > 1.0 + _REL_EPS:
            self._fail(
                "quality_bounds",
                f"monitored quality {quality!r} outside [0, 1] "
                f"at t={record.time:.6f}",
                event=record.to_record(),
                quality=quality,
            )
        if (
            self.q_floor is not None
            and record.attrs.get("mode") == "aes"
            and quality < self.q_floor - _ABS_EPS
        ):
            self._fail(
                "quality_floor",
                f"AES-mode decision with quality {quality!r} below "
                f"Q_GE={self.q_floor!r} at t={record.time:.6f} — the "
                "compensation switch (§III-C) should have fired",
                event=record.to_record(),
                quality=quality,
                q_floor=self.q_floor,
            )


class SanitizingTracer(Tracer):
    """A buffering :class:`Tracer` whose records a :class:`Sanitizer` checks.

    Takes the :class:`Sanitizer` parameters; the sink itself is
    :attr:`sanitizer`.
    """

    def __init__(self, *, q_floor: Optional[float] = None) -> None:
        self.sanitizer = Sanitizer(q_floor=q_floor)
        super().__init__(sinks=(Buffer(), self.sanitizer))

    @classmethod
    def for_run(cls, config: Any, scheduler: Any = None) -> "SanitizingTracer":
        """A sanitizing tracer wired like :meth:`Sanitizer.for_run`."""
        return cls(q_floor=Sanitizer.for_run(config, scheduler).q_floor)

    # The sink's settings and check count, read through the tracer.
    q_floor = property(lambda self: self.sanitizer.q_floor)
    checks_run = property(lambda self: self.sanitizer.checks_run)
