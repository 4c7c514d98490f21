"""Declarative disturbance schedules (the chaos spec).

A :class:`DisturbanceSchedule` is pure data: a validated tuple of
:class:`Disturbance` records describing *what* misbehaves and *when*.
It lives on :class:`repro.config.SimulationConfig` (the ``disturbances``
field) so it is content-addressed into the config fingerprint — two
runs that differ only in their schedule get different fingerprints and
are never conflated by the run store or fleet rollups.

Four disturbance kinds are modeled (see ``docs/robustness.md``):

* ``core_fail`` — core ``core`` dies at ``time``; jobs on it are killed
  or re-queued per ``policy``; with a ``duration`` the core recovers.
* ``budget_dip`` — the dynamic power budget ``H`` is multiplied by
  ``factor`` (< 1) for ``duration`` seconds.  Overlapping dips compose
  multiplicatively.
* ``arrival_burst`` — the Poisson arrival rate is multiplied by
  ``factor`` (> 1) on ``[time, time+duration)`` via superposition of an
  independent Poisson stream (the base arrival draws are untouched).
* ``misestimate`` — jobs arriving in the window carry a true demand
  ``factor`` × the planned one (capped at the distribution's support
  maximum so quality stays in [0, 1]).

The schedule only *describes*; the mechanics live in
:mod:`repro.chaos.injector` (event-heap injection) and in the workload
generator (rate/demand modulation windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import Seconds

__all__ = [
    "DISTURBANCE_KINDS",
    "FAIL_POLICIES",
    "Disturbance",
    "DisturbanceSchedule",
    "arrival_burst",
    "budget_dip",
    "core_fail",
    "misestimate",
]

#: Every disturbance kind the injector understands.
DISTURBANCE_KINDS = ("core_fail", "budget_dip", "arrival_burst", "misestimate")

#: What happens to jobs on a failing core: re-enter the waiting queue
#: (to be re-pinned by the scheduler) or settle immediately with the
#: progress they have.
FAIL_POLICIES = ("requeue", "kill")

#: A window (start, duration, factor) — the generator-facing shape of
#: burst/misestimate disturbances.
Window = Tuple[float, float, float]


@dataclass(frozen=True)
class Disturbance:
    """One scheduled disturbance.

    Attributes
    ----------
    kind:
        One of :data:`DISTURBANCE_KINDS`.
    time:
        Simulation time (s) at which the disturbance takes effect.
    duration:
        Length of the disturbance window (s).  Required for
        ``budget_dip`` / ``arrival_burst`` / ``misestimate``; optional
        for ``core_fail`` (``None`` = the core never recovers).
    factor:
        Multiplier: budget factor in (0, 1) for ``budget_dip``, rate /
        demand factor > 1 for ``arrival_burst`` / ``misestimate``.
    core:
        Index of the failing core (``core_fail`` only).
    policy:
        Job disposition on core death (``core_fail`` only); one of
        :data:`FAIL_POLICIES`.
    """

    kind: str
    time: Seconds
    duration: Optional[Seconds] = None
    factor: Optional[float] = None
    core: Optional[int] = None
    policy: str = "requeue"

    def __post_init__(self) -> None:
        if self.kind not in DISTURBANCE_KINDS:
            raise ConfigurationError(
                f"unknown disturbance kind {self.kind!r}; "
                f"expected one of {DISTURBANCE_KINDS}"
            )
        if self.time < 0:
            raise ConfigurationError(
                f"disturbance time must be non-negative, got {self.time!r}"
            )
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError(
                f"disturbance duration must be positive, got {self.duration!r}"
            )
        if self.kind == "core_fail":
            if self.core is None or self.core < 0:
                raise ConfigurationError(
                    f"core_fail needs a non-negative core index, got {self.core!r}"
                )
            if self.policy not in FAIL_POLICIES:
                raise ConfigurationError(
                    f"unknown core-fail policy {self.policy!r}; "
                    f"expected one of {FAIL_POLICIES}"
                )
        elif self.kind == "budget_dip":
            if self.duration is None:
                raise ConfigurationError("budget_dip needs a duration")
            if self.factor is None or not 0.0 < self.factor < 1.0:
                raise ConfigurationError(
                    f"budget_dip factor must be in (0, 1), got {self.factor!r}"
                )
        else:  # arrival_burst / misestimate
            if self.duration is None:
                raise ConfigurationError(f"{self.kind} needs a duration")
            if self.factor is None or self.factor <= 1.0:
                raise ConfigurationError(
                    f"{self.kind} factor must be > 1, got {self.factor!r}"
                )

    @property
    def end(self) -> Optional[Seconds]:
        """End of the disturbance window (``None`` when permanent)."""
        if self.duration is None:
            return None
        return self.time + self.duration

    def describe(self) -> str:
        """One-line human-readable form for reports and CLI listings."""
        if self.kind == "core_fail":
            until = f" for {self.duration:g}s" if self.duration is not None else ""
            return f"t={self.time:g}s core {self.core} fails ({self.policy}){until}"
        assert self.factor is not None and self.duration is not None
        return (
            f"t={self.time:g}s {self.kind} ×{self.factor:g} "
            f"for {self.duration:g}s"
        )


# -- convenience constructors ---------------------------------------------
def core_fail(
    time: Seconds,
    core: int,
    *,
    duration: Optional[Seconds] = None,
    policy: str = "requeue",
) -> Disturbance:
    """Core ``core`` fails at ``time`` (recovers after ``duration``)."""
    return Disturbance(
        kind="core_fail", time=time, core=core, duration=duration, policy=policy
    )


def budget_dip(time: Seconds, factor: float, duration: Seconds) -> Disturbance:
    """``H`` steps down to ``factor·H`` on ``[time, time+duration)``."""
    return Disturbance(kind="budget_dip", time=time, factor=factor, duration=duration)


def arrival_burst(time: Seconds, factor: float, duration: Seconds) -> Disturbance:
    """Arrival rate steps up to ``factor·λ`` on ``[time, time+duration)``."""
    return Disturbance(
        kind="arrival_burst", time=time, factor=factor, duration=duration
    )


def misestimate(time: Seconds, factor: float, duration: Seconds) -> Disturbance:
    """Jobs arriving in the window demand ``factor`` × the planned volume."""
    return Disturbance(kind="misestimate", time=time, factor=factor, duration=duration)


@dataclass(frozen=True)
class DisturbanceSchedule:
    """A validated, ordered collection of disturbances (pure data)."""

    disturbances: Tuple[Disturbance, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # A tuple is required (frozen + hash-stable); build from other
        # iterables with `DisturbanceSchedule.of(*items)`.
        if not isinstance(self.disturbances, tuple):
            raise ConfigurationError(
                "DisturbanceSchedule.disturbances must be a tuple; "
                "use DisturbanceSchedule.of(*disturbances)"
            )
        for d in self.disturbances:
            if not isinstance(d, Disturbance):
                raise ConfigurationError(
                    f"DisturbanceSchedule entries must be Disturbance, got {d!r}"
                )

    @classmethod
    def of(cls, *disturbances: Disturbance) -> "DisturbanceSchedule":
        """Build a schedule from positional disturbances."""
        return cls(disturbances=tuple(disturbances))

    def __len__(self) -> int:
        return len(self.disturbances)

    def __iter__(self) -> Iterable[Disturbance]:
        return iter(self.disturbances)

    @property
    def is_empty(self) -> bool:
        """True when armed but containing no disturbances."""
        return not self.disturbances

    def of_kind(self, kind: str) -> Tuple[Disturbance, ...]:
        """All disturbances of one kind, in declaration order."""
        return tuple(d for d in self.disturbances if d.kind == kind)

    def burst_windows(self) -> Tuple[Window, ...]:
        """(start, duration, factor) windows for the arrival generator."""
        return tuple(
            (float(d.time), float(d.duration or 0.0), float(d.factor or 1.0))
            for d in self.of_kind("arrival_burst")
        )

    def misestimate_windows(self) -> Tuple[Window, ...]:
        """(start, duration, factor) demand-inflation windows."""
        return tuple(
            (float(d.time), float(d.duration or 0.0), float(d.factor or 1.0))
            for d in self.of_kind("misestimate")
        )

    def last_effect_end(self) -> Optional[Seconds]:
        """Latest window end across all bounded disturbances.

        Used by the degradation analysis to locate the post-recovery
        tail; permanent core failures (no duration) contribute their
        onset time.
        """
        ends = [d.end if d.end is not None else d.time for d in self.disturbances]
        return max(ends) if ends else None

    def validate_for(self, *, m: int, horizon: Seconds) -> None:
        """Check the schedule against one machine/workload shape.

        Called from ``SimulationConfig.__post_init__`` so an impossible
        schedule (core index ≥ m, onset past the horizon) fails at
        config construction, not mid-run.
        """
        for d in self.disturbances:
            if d.kind == "core_fail" and d.core is not None and d.core >= m:
                raise ConfigurationError(
                    f"core_fail targets core {d.core} on an m={m} machine"
                )
            if d.time >= horizon:
                raise ConfigurationError(
                    f"disturbance at t={d.time!r} starts at/after the "
                    f"horizon ({horizon!r}s) and would never fire"
                )
