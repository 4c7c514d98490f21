"""Shared experiment-running machinery.

Conventions used by every figure module:

* ``scale`` multiplies the paper's 600 s horizon; benchmarks run at
  small scales (tens of simulated seconds), the CLI's ``--paper-scale``
  runs scale 1.0.
* A *scheduler factory* is a zero-argument callable returning a fresh
  :class:`repro.server.scheduler.Scheduler`; fresh instances are
  mandatory because schedulers hold per-run state.
* Policies at the same ``(seed, arrival rate)`` see bit-identical
  arrivals: the workload generator derives every draw from the seed,
  so separate harnesses regenerate the same jobs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SimulationConfig
from repro.obs.tracer import TracerLike
from repro.experiments.report import FigureResult, Series
from repro.metrics.collector import RunResult
from repro.server.harness import SimulationHarness
from repro.server.scheduler import Scheduler

__all__ = [
    "SchedulerFactory",
    "default_rates",
    "quality_energy_series",
    "run_single",
    "scaled_config",
    "sweep_rates",
]

SchedulerFactory = Callable[[], Scheduler]

#: The paper's x-axis for the arrival-rate sweeps (Figs. 3–8, 10, 12).
PAPER_RATES: tuple = (100.0, 125.0, 150.0, 175.0, 200.0, 225.0, 250.0)


def scaled_config(scale: float, seed: int, **overrides: object) -> SimulationConfig:
    """Paper defaults with the horizon scaled and fields overridden.

    Explicit ``horizon`` or ``seed`` entries in ``overrides`` win over
    the positional ``scale``/``seed`` arguments, so callers can pin an
    exact horizon without reverse-engineering the 600 s baseline.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    overrides.setdefault("horizon", 600.0 * scale)
    return SimulationConfig(seed=seed, **overrides)


def default_rates(scale: float) -> List[float]:
    """The sweep's x-axis; thinned at very small scales to save time."""
    if scale >= 0.08:
        return list(PAPER_RATES)
    return [100.0, 150.0, 180.0, 210.0, 250.0]


def run_single(
    config: SimulationConfig,
    factory: SchedulerFactory,
    tracer: Optional[TracerLike] = None,
) -> RunResult:
    """One run of one policy under one configuration.

    Pass a :class:`repro.obs.Tracer` to record the run's telemetry;
    tracing never changes the result (the tracer only observes).
    """
    return SimulationHarness(config, factory(), tracer=tracer).run()


def _sweep_cell(cell: "tuple[SimulationConfig, SchedulerFactory]") -> RunResult:
    """One (config, factory) sweep cell — module-level so the spawn
    start method can pickle it for :func:`sweep_rates`'s parallel path."""
    config, factory = cell
    return run_single(config, factory)


def sweep_rates(
    config: SimulationConfig,
    factories: Dict[str, SchedulerFactory],
    rates: Sequence[float],
    *,
    parallel: int = 1,
) -> Dict[str, List[RunResult]]:
    """Run each policy at each arrival rate (identical arrivals per rate).

    ``parallel > 1`` fans the cells across a spawn-context process
    pool (factories must then be picklable, i.e. module-level); the
    returned mapping is identical to the sequential one — each cell is
    a pure function of (config, seed), so only wall time changes.
    """
    names = list(factories)
    cells: List["tuple[SimulationConfig, SchedulerFactory]"] = []
    for rate in rates:
        rate_cfg = config.with_overrides(arrival_rate=float(rate))
        for name in names:
            cells.append((rate_cfg, factories[name]))
    if parallel > 1:
        from repro.experiments.fleet import parallel_map  # local: avoid cycle

        results = parallel_map(_sweep_cell, cells, workers=parallel)
    else:
        results = [_sweep_cell(cell) for cell in cells]
    out: Dict[str, List[RunResult]] = {name: [] for name in names}
    for index, result in enumerate(results):
        out[names[index % len(names)]].append(result)
    return out


def quality_energy_series(
    figure: FigureResult,
    results: Dict[str, List[RunResult]],
    rates: Sequence[float],
    *,
    quality_panel: str = "quality",
    energy_panel: str = "energy",
) -> None:
    """Fill the standard quality/energy panels from sweep results."""
    for name, runs in results.items():
        q = Series(label=name)
        e = Series(label=name)
        for rate, run in zip(rates, runs):
            q.add(rate, run.quality)
            e.add(rate, run.energy)
        figure.add_series(quality_panel, q)
        figure.add_series(energy_panel, e)
