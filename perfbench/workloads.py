"""The four perfbench workloads, written as data over repro's public API.

A workload is a list of cells run back to back in one process.  A cell
is built exactly as a figure or chaos run builds it: ``scaled_config``
(or ``chaos_config``), then the scheduler, then the telemetry sink the
CLI would attach, then ``SimulationHarness`` and
``harness.workload.materialize()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.check.sanitizer import SanitizingTracer
from repro.config import SimulationConfig
from repro.experiments.fig03_schedulers import FACTORIES
from repro.experiments.registry import chaos_config, get_chaos_scenario
from repro.experiments.runner import default_rates, scaled_config
from repro.metrics.collector import RunResult
from repro.obs import StreamingTracer, Tracer
from repro.server.harness import SimulationHarness

#: Telemetry sinks of the ``telemetry`` workload, built the way the CLI
#: builds them (``repro.cli._new_tracer_if``).
SINKS: Dict[str, Callable[[SimulationConfig, object], object]] = {
    "null": lambda config, scheduler: None,
    "full": lambda config, scheduler: Tracer(),
    "stream": lambda config, scheduler: StreamingTracer(),
    "sanitize": SanitizingTracer.for_run,
}

LOAD_MODEL = (
    "closed loop: one process, one thread, cells back to back "
    "(no parallel_map, no fleet workers, no host-side arrivals)"
)


@dataclass(frozen=True)
class Cell:
    """One (configuration, scheduler, sink) simulation run."""

    key: str
    scale: float
    rate: float
    scheduler: str
    sink: str = "null"
    chaos: Optional[str] = None

    def config(self, seed: int) -> SimulationConfig:
        if self.chaos is not None:
            return chaos_config(get_chaos_scenario(self.chaos), scale=self.scale, seed=seed)
        return scaled_config(self.scale, seed, arrival_rate=self.rate)

    def build(self, seed: int) -> Tuple[SimulationHarness, int]:
        """The harness, ready to run, and the number of jobs it materialised."""
        config = self.config(seed)
        scheduler = FACTORIES[self.scheduler]()
        tracer = SINKS[self.sink](config, scheduler)
        harness = SimulationHarness(config, scheduler, tracer=tracer)
        return harness, len(harness.workload.materialize())


@dataclass(frozen=True)
class Workload:
    """A named cell list plus the reason it is in the benchmark."""

    name: str
    why: str
    stresses: str
    bypasses: str
    cells: Tuple[Cell, ...]
    #: The cell whose simulated Q and E are reported end to end.
    focus: str


#: Horizon scale of ``paper_sweep`` (12 simulated seconds per cell).
PAPER_SCALE = 0.02


def _paper_sweep() -> Tuple[Cell, ...]:
    return tuple(
        Cell(f"{name}@{rate:g}", PAPER_SCALE, rate, name)
        for rate in default_rates(PAPER_SCALE)
        for name in FACTORIES
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_sweep",
            why="Fig. 3's six schedulers at every default rate (scale 0.02): "
            "what users run to regenerate figures; it reaches every GE mode "
            "and gives sim and server their largest share",
            stresses="sim, server, baselines.queue_order, core.ge in every mode, "
            "power (ES and WF), core.quality_opt, core.energy_opt",
            bypasses="obs, check, chaos (null tracer, no disturbances)",
            cells=_paper_sweep(),
            focus="GE@150",
        ),
        Workload(
            name="ge_light",
            why="GE alone at 100/s (scale 0.05), below the critical load: ES "
            "branch and AES mode with many small rounds, so the LF cut, round "
            "bookkeeping and caches dominate",
            stresses="core.cutting, core.ge, core.planner, server.core, power (ES)",
            bypasses="core.quality_opt (cheap calls), WF, baselines, obs, check, chaos",
            cells=(Cell("GE@100", 0.05, 100.0, "GE"),),
            focus="GE@100",
        ),
        Workload(
            name="ge_overload",
            why="GE alone at 250/s (scale 0.05), past saturation: WF branch, "
            "mostly BQ mode with large per-core batches, so Quality-OPT "
            "dominates and the LF cut barely runs",
            stresses="core.quality_opt, power (WF), core.planner, core.energy_opt",
            bypasses="core.cutting (a few dozen calls), ES, baselines, obs, check, chaos",
            cells=(Cell("GE@250", 0.05, 250.0, "GE"),),
            focus="GE@250",
        ),
        Workload(
            name="telemetry",
            why="chaos perfect_storm at 150/s (scale 0.05) run with the null, "
            "full, streaming and sanitizing sinks on identical inputs: the "
            "only workload where obs, check and chaos work",
            stresses="obs (Tracer, StreamingTracer), check (SanitizingTracer), "
            "chaos (core fault, budget dip, burst), core.ge chaos rounds",
            bypasses="baselines; every other workload shows the null path stays flat",
            cells=tuple(
                Cell(f"storm/{sink}", 0.05, 150.0, "GE", sink=sink, chaos="perfect_storm")
                for sink in SINKS
            ),
            focus="storm/null",
        ),
    )
}


def ge_saving_vs_be(results: Dict[str, RunResult], scale: float, q_ge: float) -> float:
    """Fig. 3's headline, computed the way ``fig03_schedulers.run`` does:
    GE's best energy saving against BE over the rates where GE still
    meets the quality target."""
    best = 0.0
    for rate in default_rates(scale):
        ge = results[f"GE@{rate:g}"]
        be = results[f"BE@{rate:g}"]
        if ge.quality >= q_ge - 0.02 and be.energy > 0:
            best = max(best, 1.0 - ge.energy / be.energy)
    return best

