"""The simulation harness: one runnable experiment.

:class:`SimulationHarness` wires together the simulator, the multicore
server, the workload, the quality monitor, the metrics collector and a
:class:`repro.server.scheduler.Scheduler`.  It owns the mechanics every
policy shares, so schedulers stay pure policy code:

* the **waiting queue** of arrived-but-unassigned jobs;
* **deadline events** — at each job's deadline, unfinished work is
  aborted, partial progress credited, and the job settled;
* **settlement bookkeeping** — every settled job updates the quality
  monitor and the metrics collector exactly once;
* the **quantum timer** (if the scheduler requests one).

Event priorities at one instant: arrivals first (a job arriving exactly
at a quantum boundary is visible to that quantum).  Completions,
deadline expiries and the quantum trigger share ``PRIORITY_LOW`` and
fire in push order, so a job's deadline event, pushed at its arrival,
fires before a completion due at the same instant: a cut job whose
last segment ends exactly at its deadline is settled ``expired``, not
``cut`` (ROADMAP item 1 is the fix).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.chaos.injector import ChaosInjector, InjectorLike, NULL_INJECTOR
from repro.config import SimulationConfig
from repro.errors import SchedulingError
from repro.metrics.collector import MetricsCollector, RunResult
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.quality.monitor import QualityMonitor
from repro.server.machine import MulticoreServer
from repro.server.scheduler import Scheduler
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_LOW
from repro.workload.generator import Workload
from repro.workload.job import Job, JobOutcome

__all__ = ["SimulationHarness"]


class SimulationHarness:
    """Bind a scheduler to the paper's simulation environment and run it.

    Parameters
    ----------
    config:
        The full simulation configuration (workload, machine, quality).
    scheduler:
        The policy under test.  The harness calls :meth:`Scheduler.bind`
        immediately, so the scheduler may inspect the machine/config.
    workload:
        Optional workload override (must expose ``install(sim, sink)``);
        defaults to ``config.workload()``.  Passing the same
        materialized workload to several harnesses compares policies on
        identical arrivals.
    monitor:
        Optional quality-monitor override (e.g. the class-aware monitor
        of :mod:`repro.mixed`); defaults to a cumulative
        :class:`QualityMonitor` on the config's quality function.
    tracer:
        Optional :class:`repro.obs.Tracer` recording job spans, core
        timelines and scheduler events for this run.  Defaults to the
        zero-overhead null tracer (tracing off).  Tracing only observes
        state — it never schedules events — so a traced run's
        :class:`RunResult` is bit-identical to an untraced one.
    """

    def __init__(
        self,
        config: SimulationConfig,
        scheduler: Scheduler,
        workload: Optional[Workload] = None,
        monitor: Optional[QualityMonitor] = None,
        tracer: Optional[TracerLike] = None,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.sim = Simulator()
        self.model = config.power_model()
        self.scale = config.speed_scale(self.model)
        core_models = list(config.core_models())
        core_scales = [config.speed_scale(m) for m in core_models]
        self.machine = MulticoreServer(
            self.sim,
            m=config.m,
            budget=config.budget,
            model=self.model,
            scale=self.scale,
            models=core_models,
            scales=core_scales,
            on_idle=self._core_became_idle,
            on_settle=self._job_settled_by_core,
            tracer=self.tracer,
        )
        self.quality_function = config.quality_function()
        self.monitor = monitor if monitor is not None else QualityMonitor(self.quality_function)
        self.metrics = MetricsCollector()
        self.queue: List[Job] = []
        self._queued_ids: set[int] = set()
        self._workload = workload if workload is not None else config.workload()
        self._total_jobs = 0
        self._recorded: set[int] = set()
        self._drain_until = 0.0
        self._running = False
        # Disturbance injection (repro.chaos): armed only when the
        # config carries a schedule; otherwise the shared null injector
        # keeps the run on the exact pre-chaos code path.
        self.injector: InjectorLike = (
            NULL_INJECTOR
            if config.disturbances is None
            else ChaosInjector(self, config.disturbances)
        )
        scheduler.bind(self)

    @property
    def workload(self) -> Workload:
        """The workload driving this run (clairvoyant schedulers may
        materialize it to see the future; online ones must not)."""
        return self._workload

    # ------------------------------------------------------------------
    # Queue primitives for schedulers
    # ------------------------------------------------------------------
    def take_from_queue(self, job: Job) -> None:
        """Remove one job from the waiting queue (scheduler assigned it)."""
        if job.jid not in self._queued_ids:
            raise SchedulingError(f"job {job.jid} is not in the waiting queue")
        self._queued_ids.discard(job.jid)
        self.queue.remove(job)

    def take_all_queued(self) -> List[Job]:
        """Drain the whole waiting queue (batch assignment)."""
        jobs, self.queue = self.queue, []
        self._queued_ids.clear()
        return jobs

    def settle_job(self, job: Job, outcome: JobOutcome) -> None:
        """Settle a job on the scheduler's behalf and record it.

        Used for deliberate discards: LF-cut targets already reached
        and Quality-OPT second-cut victims.
        """
        job.settle(outcome)
        self._record(job)

    def requeue_job(self, job: Job) -> None:
        """Return an unsettled job to the waiting queue (chaos requeue).

        The core pin is released so the next scheduling round may
        re-assign the job anywhere; progress already credited is kept
        (the work was done before the disturbance).
        """
        job.core = None
        self.queue.append(job)
        self._queued_ids.add(job.jid)

    def kill_job(self, job: Job) -> None:
        """Settle a job immediately with its progress-implied outcome.

        The chaos ``kill`` core-failure policy: whatever volume the dead
        core had credited decides COMPLETED/CUT/DROPPED exactly like a
        deadline expiry would.
        """
        job.settle_auto()
        self._record(job)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _job_arrived(self, job: Job) -> None:
        if self.tracer.enabled:
            self.tracer.job_arrived(job, self.sim.now)
        self.queue.append(job)
        self._queued_ids.add(job.jid)
        # Same priority as segment completions, and pushed before them:
        # at a shared instant this expiry fires first (ROADMAP item 1).
        # partial() beats a per-job lambda closure on this per-arrival
        # hot path (one fewer frame to build and to call through).
        self.sim.at(
            job.deadline, partial(self._deadline_expired, job),
            priority=PRIORITY_LOW, name="deadline",
        )
        self.scheduler.on_arrival(job)

    def _deadline_expired(self, job: Job) -> None:
        if job.settled:
            return
        idle_core = None
        if job.jid in self._queued_ids:
            self.take_from_queue(job)
        elif job.core is not None:
            core = self.machine.cores[job.core]
            core.abort_job(job)
            if not core.has_work:
                # The abort drained the core; surface the idle-core
                # trigger (Core only notifies on natural completion).
                idle_core = job.core
        job.settle_auto()
        self._record(job)
        if idle_core is not None:
            self.scheduler.on_core_idle(idle_core)

    def _job_settled_by_core(self, job: Job) -> None:
        self._record(job)

    def _record(self, job: Job) -> None:
        if job.jid in self._recorded:  # pragma: no cover - double-settle guard
            raise SchedulingError(f"job {job.jid} recorded twice")
        self._recorded.add(job.jid)
        self.monitor.record_job(job, time=self.sim.now)
        self.metrics.record_settle(job)
        if self.tracer.enabled:
            self.tracer.job_settled(job, self.sim.now)

    def _core_became_idle(self, core_index: int) -> None:
        self.scheduler.on_core_idle(core_index)

    def _quantum_tick(self) -> None:
        self.scheduler.on_quantum()
        if self.tracer.enabled:
            # Sample after the scheduler acted, so the speeds reflect
            # the plan installed at this quantum boundary.
            self.tracer.sample_cores(self.machine, self.sim.now)
        if self.sim.now + self.scheduler.quantum <= self._drain_until:
            self.sim.schedule(
                self.scheduler.quantum, self._quantum_tick,
                priority=PRIORITY_LOW, name="quantum",
            )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the full simulation and return its summary.

        Arrivals stop at ``config.horizon``; the run then drains until
        every job has settled (at most one deadline window later).
        Energy and speed statistics are integrated over the drained
        span, matching the paper's ``E = ∫_{s_1}^{d_n} P(t) dt``.
        """
        if self._running:
            raise SchedulingError("harness cannot be run twice")
        self._running = True
        cfg = self.config
        if self.tracer.enabled:
            self.tracer.run_started(
                self.sim.now,
                scheduler=self.scheduler.name,
                arrival_rate=cfg.arrival_rate,
                horizon=cfg.horizon,
                seed=cfg.seed,
                cores=cfg.m,
                budget=cfg.budget,
                q_ge=cfg.q_ge,
                quantum=self.scheduler.quantum,
                config_fingerprint=cfg.fingerprint(),
                **(
                    {"disturbances": len(cfg.disturbances)}
                    if cfg.disturbances is not None
                    else {}
                ),
            )
            self.tracer.sample_cores(self.machine, self.sim.now)
        # Drain until the last deadline so every job settles, even when
        # a custom workload's deadlines exceed horizon + window_high.
        all_jobs = self._workload.materialize()
        last_deadline = max((j.deadline for j in all_jobs), default=cfg.horizon)
        self._drain_until = max(cfg.horizon, last_deadline)
        self._total_jobs = self._workload.install(self.sim, self._job_arrived)
        self.injector.install(self.sim)
        if self.scheduler.quantum is not None:
            self.sim.schedule(
                self.scheduler.quantum, self._quantum_tick,
                priority=PRIORITY_LOW, name="quantum",
            )
        self.sim.run(until=self._drain_until)
        self.scheduler.on_run_end()
        if self.tracer.enabled:
            self.tracer.metrics.gauge("sim.events_processed").set(
                self.sim.events_processed
            )
            self.tracer.run_finished(
                self.machine, self.sim.now, events=self.sim.events_processed
            )
        if self.metrics.jobs != self._total_jobs:  # pragma: no cover - invariant
            raise SchedulingError(
                f"settled {self.metrics.jobs} of {self._total_jobs} jobs — "
                "some jobs were lost by the scheduler"
            )
        return self._result()

    def _result(self) -> RunResult:
        end = self.sim.now
        aes_fraction = getattr(self.scheduler, "aes_fraction", None)
        if callable(aes_fraction):
            aes_fraction = aes_fraction()
        return RunResult(
            scheduler=self.scheduler.name,
            arrival_rate=self.config.arrival_rate,
            quality=self.monitor.quality,
            energy=self.machine.energy(end),
            static_energy=self.config.static_power_per_core * self.config.m * end,
            jobs=self.metrics.jobs,
            outcomes=self.metrics.outcomes,
            aes_fraction=aes_fraction,
            mean_speed=self.machine.mean_speed(end),
            speed_variance=self.machine.speed_variance(end),
            utilization=self.machine.utilization(end),
            completed_volume=self.machine.total_completed_volume(),
            duration=end,
        )
