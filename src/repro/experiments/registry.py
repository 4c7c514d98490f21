"""Registry mapping figure ids to their experiment modules.

Used by the CLI (``repro-cli fig 3``) and by the benchmark suite's
parametrization, so the list of reproducible figures lives in exactly
one place.  The fleet executor's scenario table
(:data:`FLEET_SCENARIOS`) and task grid (:class:`FleetTask` /
:func:`fleet_grid`) also live here: a fleet is just the paper's
scenario × seed × rate evaluation grid written down as data, and the
registry is where grid-shaped experiment metadata belongs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.queue_order import FCFS
from repro.chaos import (
    DisturbanceSchedule,
    arrival_burst,
    budget_dip,
    core_fail,
    misestimate,
)
from repro.config import SimulationConfig
from repro.core.ge import make_be, make_ge, make_oq
from repro.experiments import (
    fig01_aes_fraction,
    fig02_job_cutting,
    fig03_schedulers,
    fig04_random_deadlines,
    fig05_compensation,
    fig06_speed_stats,
    fig07_power_policies,
    fig08_control_policies,
    fig09_quality_function,
    fig10_power_budget,
    fig11_core_count,
    fig12_discrete_speed,
)
from repro.experiments.fig12_discrete_speed import DEFAULT_LADDER
from repro.experiments.report import FigureResult
from repro.experiments.runner import SchedulerFactory, scaled_config

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosScenario",
    "FIGURES",
    "FLEET_SCENARIOS",
    "FigureSpec",
    "FleetScenario",
    "FleetTask",
    "chaos_config",
    "fleet_grid",
    "get_chaos_scenario",
    "get_figure",
    "list_figures",
]

#: Fault-injection hooks a :class:`FleetTask` may request (test/ops
#: only): ``"raise"`` throws inside the task, ``"exit"`` hard-kills
#: the worker process mid-task (``os._exit``), exercising the fleet's
#: crash-isolation path.
INJECT_MODES = (None, "raise", "exit")


@dataclass(frozen=True)
class FleetScenario:
    """One named fleet scenario: a scheduler on the scaled paper config."""

    factory: SchedulerFactory
    arrival_rate: float
    discrete_levels: Optional[Tuple[float, ...]] = None

    def config(self, scale: float, seed: int) -> SimulationConfig:
        """The scenario's configuration at ``scale`` × 600 s and ``seed``."""
        return scaled_config(
            scale, seed,
            arrival_rate=self.arrival_rate,
            discrete_levels=self.discrete_levels,
        )


#: The fleet's scenario table.  The scenarios cover the distinct hot
#: paths: ES vs WF power distribution (light vs heavy load), AES
#: cutting vs permanent BQ (GE vs BE), compensation off (OQ), the
#: discrete-DVFS planner arm, and the non-GE harness path (FCFS).
FLEET_SCENARIOS: Dict[str, FleetScenario] = {
    "ge_light": FleetScenario(make_ge, 100.0),
    "ge_nominal": FleetScenario(make_ge, 150.0),
    "ge_heavy": FleetScenario(make_ge, 250.0),
    "be_nominal": FleetScenario(make_be, 150.0),
    "oq_nominal": FleetScenario(make_oq, 150.0),
    "ge_discrete": FleetScenario(make_ge, 150.0, DEFAULT_LADDER),
    "fcfs_nominal": FleetScenario(FCFS, 150.0),
}


@dataclass(frozen=True)
class FleetTask:
    """One cell of the evaluation grid: scenario × seed × optional rate.

    Scenarios are the named configurations of
    :data:`FLEET_SCENARIOS`; ``rate`` overrides the
    scenario's arrival rate when set (the Figs. 3–12 rate-sweep axis),
    and ``scale`` shrinks the horizon exactly like ``scaled_config``.
    The task is pure data — frozen, hashable, picklable — because the
    spawn start method ships it to worker processes by pickling.
    """

    scenario: str
    seed: int
    scale: float = 0.02
    rate: Optional[float] = None
    inject: Optional[str] = None

    def __post_init__(self) -> None:
        if self.inject not in INJECT_MODES:
            raise ValueError(
                f"unknown inject mode {self.inject!r}; "
                f"expected one of {INJECT_MODES}"
            )

    @property
    def key(self) -> str:
        """Stable grid-cell id, e.g. ``ge_light-s1-x0.02-r120``."""
        parts = [self.scenario, f"s{self.seed}", f"x{self.scale:g}"]
        if self.rate is not None:
            parts.append(f"r{self.rate:g}")
        return "-".join(parts)


def fleet_grid(
    scenarios: Sequence[str],
    seeds: Sequence[int],
    *,
    rates: Optional[Sequence[float]] = None,
    scale: float = 0.02,
) -> List[FleetTask]:
    """Materialize the scenario × seed × rate cross product, in order.

    The order is deterministic (scenarios outer, seeds middle, rates
    inner — matching ``sweep_rates``'s iteration shape) so grid ids
    and fleet summaries are reproducible.  Scenario names are
    validated against :data:`FLEET_SCENARIOS` up front: a fleet should
    fail before spawning workers, not inside one.
    """
    if not scenarios:
        raise ValueError("fleet_grid needs at least one scenario")
    if not seeds:
        raise ValueError("fleet_grid needs at least one seed")
    unknown = sorted({name for name in scenarios if name not in FLEET_SCENARIOS})
    if unknown:
        raise KeyError(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"available: {', '.join(FLEET_SCENARIOS)}"
        )
    rate_axis: List[Optional[float]] = (
        [None] if rates is None else [float(r) for r in rates]
    )
    if not rate_axis:
        raise ValueError("fleet_grid got an empty rates list")
    return [
        FleetTask(scenario=name, seed=int(seed), scale=float(scale), rate=rate)
        for name in scenarios
        for seed in seeds
        for rate in rate_axis
    ]


@dataclass(frozen=True)
class FigureSpec:
    """One reproducible paper figure."""

    figure_id: str
    title: str
    run: Callable[..., FigureResult]
    default_scale: float


FIGURES: Dict[str, FigureSpec] = {
    "fig01": FigureSpec("fig01", "AES-mode time share vs arrival rate", fig01_aes_fraction.run, 0.05),
    "fig02": FigureSpec("fig02", "LF job-cutting illustration", fig02_job_cutting.run, 1.0),
    "fig03": FigureSpec("fig03", "Scheduler comparison (fixed deadlines)", fig03_schedulers.run, 0.05),
    "fig04": FigureSpec("fig04", "Scheduler comparison (random deadlines)", fig04_random_deadlines.run, 0.05),
    "fig05": FigureSpec("fig05", "Compensation policy ablation", fig05_compensation.run, 0.05),
    "fig06": FigureSpec("fig06", "WF vs ES speed statistics", fig06_speed_stats.run, 0.05),
    "fig07": FigureSpec("fig07", "WF vs ES quality and energy", fig07_power_policies.run, 0.05),
    "fig08": FigureSpec("fig08", "Quality vs power vs speed control", fig08_control_policies.run, 0.03),
    "fig09": FigureSpec("fig09", "Quality-function concavity sweep", fig09_quality_function.run, 0.05),
    "fig10": FigureSpec("fig10", "Power budget sweep", fig10_power_budget.run, 0.05),
    "fig11": FigureSpec("fig11", "Core count sweep", fig11_core_count.run, 0.05),
    "fig12": FigureSpec("fig12", "Continuous vs discrete DVFS", fig12_discrete_speed.run, 0.05),
}


def get_figure(figure_id: str) -> FigureSpec:
    """Look up a figure spec by id ("fig03", "3", or "03")."""
    key = figure_id.lower()
    if not key.startswith("fig"):
        key = f"fig{int(key):02d}"
    if key not in FIGURES:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {', '.join(sorted(FIGURES))}"
        )
    return FIGURES[key]


def list_figures() -> List[FigureSpec]:
    """All figures in id order."""
    return [FIGURES[k] for k in sorted(FIGURES)]


# ----------------------------------------------------------------------
# Chaos scenario catalog (repro.chaos)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosScenario:
    """One named disturbance scenario of the chaos catalog.

    ``schedule`` builds the :class:`DisturbanceSchedule` for a given
    horizon — disturbance times are horizon *fractions*, so the same
    scenario stresses a 12-second smoke run and the paper's full
    600-second horizon at the same relative points.
    """

    name: str
    description: str
    schedule: Callable[[float], DisturbanceSchedule]
    arrival_rate: float = 150.0


#: The fixed chaos catalog.  Scenarios cover every disturbance kind,
#: both core-failure policies, compound faults, and one of everything
#: at once.  Times assume the default machine (m=16 cores, H=320 W).
CHAOS_SCENARIOS: Dict[str, ChaosScenario] = {
    s.name: s
    for s in (
        ChaosScenario(
            name="core_fail_requeue",
            description="one core dies at 25% of the run for a 30% window; "
            "its jobs are re-queued and re-planned elsewhere",
            schedule=lambda T: DisturbanceSchedule.of(
                core_fail(0.25 * T, 0, duration=0.30 * T, policy="requeue"),
            ),
        ),
        ChaosScenario(
            name="core_fail_kill",
            description="a core fails permanently at 25%; in-flight jobs "
            "settle immediately with whatever progress they had",
            schedule=lambda T: DisturbanceSchedule.of(
                core_fail(0.25 * T, 0, policy="kill"),
            ),
        ),
        ChaosScenario(
            name="double_fault",
            description="two cores fail in overlapping windows — the "
            "second fault lands while the first is still down",
            schedule=lambda T: DisturbanceSchedule.of(
                core_fail(0.20 * T, 0, duration=0.30 * T),
                core_fail(0.30 * T, 1, duration=0.30 * T),
            ),
        ),
        ChaosScenario(
            name="budget_dip",
            description="the power budget H drops to 60% for a quarter "
            "of the run (rack-level cap intervention)",
            schedule=lambda T: DisturbanceSchedule.of(
                budget_dip(0.30 * T, 0.60, 0.25 * T),
            ),
        ),
        ChaosScenario(
            name="budget_sawtooth",
            description="two successive budget dips (70% then 50%) with "
            "a short recovery between them",
            schedule=lambda T: DisturbanceSchedule.of(
                budget_dip(0.20 * T, 0.70, 0.15 * T),
                budget_dip(0.50 * T, 0.50, 0.15 * T),
            ),
        ),
        ChaosScenario(
            name="flash_crowd",
            description="arrivals surge to 2.5x the nominal rate for a "
            "20% window (flash-crowd burst)",
            schedule=lambda T: DisturbanceSchedule.of(
                arrival_burst(0.30 * T, 2.5, 0.20 * T),
            ),
        ),
        ChaosScenario(
            name="misestimate",
            description="observed service demands run 1.5x the planned "
            "p_j for a 30% window (demand mis-estimation)",
            schedule=lambda T: DisturbanceSchedule.of(
                misestimate(0.30 * T, 1.5, 0.30 * T),
            ),
        ),
        ChaosScenario(
            name="perfect_storm",
            description="compound incident: a core failure, a 60% budget "
            "dip and a 2x arrival burst all overlapping mid-run",
            schedule=lambda T: DisturbanceSchedule.of(
                core_fail(0.30 * T, 0, duration=0.25 * T),
                budget_dip(0.35 * T, 0.60, 0.20 * T),
                arrival_burst(0.40 * T, 2.0, 0.15 * T),
            ),
        ),
    )
}


def get_chaos_scenario(name: str) -> ChaosScenario:
    """Look up a chaos scenario by name."""
    if name not in CHAOS_SCENARIOS:
        raise KeyError(
            f"unknown chaos scenario {name!r}; "
            f"available: {', '.join(sorted(CHAOS_SCENARIOS))}"
        )
    return CHAOS_SCENARIOS[name]


def chaos_config(
    scenario: ChaosScenario, *, scale: float = 0.02, seed: int = 1
) -> SimulationConfig:
    """The scenario's disturbed configuration at the given scale/seed.

    The undisturbed *twin* of the returned config is
    ``cfg.with_overrides(disturbances=None)`` — identical workload,
    machine and seed, differing only in the schedule (and therefore in
    the config fingerprint).
    """
    cfg = scaled_config(scale, seed, arrival_rate=scenario.arrival_rate)
    return cfg.with_overrides(disturbances=scenario.schedule(cfg.horizon))
