"""Runtime invariant sanitizer riding the :mod:`repro.obs` trace stream.

:class:`Sanitizer` is a tracer sink that verifies, *as telemetry is
emitted*, the physical invariants the paper's accounting rests on — and
raises :class:`SanitizerViolation` with the offending record attached
the moment one breaks:

* **power budget** (§III-D): at every quantum boundary the summed
  per-core dynamic power is at most ``H·(1+ε)``;
* **energy conservation** (§II-B): the incremental cumulative energy
  reported by the timeline sampler equals an independent from-scratch
  integral of the piecewise-constant speed timelines;
* **volume accounting** (§III-B): per-job processed volume only grows,
  never exceeds the demand ``p_j``, and every exec slice reports a
  non-negative amount of work;
* **clock monotonicity**: span/event/sample timestamps never go
  backwards (simulated time is monotone);
* **quality floor** (§III-C): in AES mode under a compensated
  controller the monitored quality is at least ``Q_GE`` — dipping below
  must trigger the BQ compensation switch, so an AES decision below the
  floor means the controller is broken.

:class:`SanitizingTracer` is a :class:`repro.obs.tracer.Tracer` with a
:class:`~repro.obs.tracer.Buffer` and a :class:`Sanitizer` as sinks;
the sanitizer composes with any other sink (``--sanitize --stream``
runs it next to the stream aggregator).  Enable via ``--sanitize`` on
``repro run`` / ``scenario`` / ``trace`` or by exporting
``REPRO_SANITIZE=1``.  The checks are read-only: a run that passes
produces a bit-identical :class:`RunResult` to an untraced one (same
guarantee as the plain tracer).

The energy cross-check re-integrates each core's timeline from scratch
at every sample, so a sanitized run costs O(samples × breakpoints) —
fine for the seeded 10-second debugging scenarios it exists for.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.obs.spans import EventRecord, SpanRecord
from repro.obs.timeline import TimelineSample
from repro.obs.tracer import Buffer, Sink, Tracer
from repro.units import Seconds, Volume

__all__ = ["Sanitizer", "SanitizerViolation", "SanitizingTracer", "sanitize_requested"]

#: Relative slack on budget/energy/volume comparisons (float noise).
_REL_EPS = 1e-6
#: Absolute slack for quantities that may legitimately be ~0.
_ABS_EPS = 1e-9


class SanitizerViolation(AssertionError):
    """A simulation invariant failed; carries the offending context.

    Attributes
    ----------
    invariant:
        Short name of the violated invariant (``"power_budget"``, ...).
    context:
        The offending record(s): event/sample dicts, times, values.
    """

    def __init__(self, invariant: str, message: str, context: Dict[str, Any]) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.context = context


def sanitize_requested(flag: bool = False) -> bool:
    """Whether sanitizing was requested via flag or ``REPRO_SANITIZE``."""
    if flag:
        return True
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {
        "1", "true", "yes", "on",
    }


class Sanitizer(Sink):
    """A sink that asserts simulation invariants on every record.

    Parameters
    ----------
    budget:
        Dynamic power budget ``H`` in watts; ``None`` disables the
        budget check (unknown machine).
    q_floor:
        Quality floor asserted on AES-mode decisions; ``None`` disables
        the check (use it only for compensated, cutting schedulers —
        see :meth:`for_run`).
    """

    def __init__(
        self,
        *,
        budget: Optional[float] = None,
        q_floor: Optional[float] = None,
    ) -> None:
        self.budget = None if budget is None else float(budget)
        self.q_floor = None if q_floor is None else float(q_floor)
        self.checks_run = 0
        self._last_time = float("-inf")
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
        return cls(budget=float(config.budget), q_floor=q_floor)

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
        elif event.kind == "chaos":
            # Budget dips/restores (repro.chaos) change H mid-run; the
            # power-budget bound must follow the *current* H, so a plan
            # that overdraws during a dip fails even though it would fit
            # the configured budget.
            budget_w = event.attrs.get("budget_w")
            if budget_w is not None and self.budget is not None:
                self.budget = float(budget_w)

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
        if not samples:
            return
        self._check_power_budget(samples, time)
        self._check_energy(machine, samples, time)

    # ------------------------------------------------------------------
    # The invariants
    # ------------------------------------------------------------------
    def _check_power_budget(self, batch: Any, time: Seconds) -> None:
        self.checks_run += 1
        if self.budget is None:
            return
        total = sum(s.power for s in batch)
        limit = self.budget * (1.0 + _REL_EPS) + _ABS_EPS
        if total > limit:
            self._fail(
                "power_budget",
                f"Σ per-core power {total:.6f} W exceeds budget "
                f"H={self.budget:.6f} W at t={time:.6f}",
                time=time,
                total_power=total,
                budget=self.budget,
                per_core={s.core: s.power for s in batch},
            )

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
        if demand is not None:
            limit = demand * (1.0 + _REL_EPS) + _ABS_EPS
            if total > limit:
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
        if processed < -_ABS_EPS or processed > demand * (1.0 + _REL_EPS) + _ABS_EPS:
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

    def __init__(
        self,
        *,
        budget: Optional[float] = None,
        q_floor: Optional[float] = None,
    ) -> None:
        self.sanitizer = Sanitizer(budget=budget, q_floor=q_floor)
        super().__init__(sinks=(Buffer(), self.sanitizer))

    @classmethod
    def for_run(cls, config: Any, scheduler: Any = None) -> "SanitizingTracer":
        """A sanitizing tracer wired like :meth:`Sanitizer.for_run`."""
        sanitizer = Sanitizer.for_run(config, scheduler)
        return cls(budget=sanitizer.budget, q_floor=sanitizer.q_floor)

    # The sink's live settings and check count, read through the tracer.
    budget = property(lambda self: self.sanitizer.budget)
    q_floor = property(lambda self: self.sanitizer.q_floor)
    checks_run = property(lambda self: self.sanitizer.checks_run)
