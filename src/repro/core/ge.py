"""The Good Enough (GE) scheduler (paper §III) and its siblings.

:class:`GEScheduler` implements the full §III-E loop.  At every trigger
(quantum / idle-core / counter, §III-E):

1. drain the waiting queue and pin the jobs to cores with Cumulative
   Round-Robin;
2. decide AES vs BQ from the monitored quality (compensation, §III-C);
3. in AES, apply the Longest-First cut across all active jobs so the
   projected cumulative quality lands on the target (§III-B);
4. estimate the load and distribute the power budget — Equal-Sharing
   below the critical load, Water-Filling above it (§III-D);
5. per core, run Quality-OPT (second cut under the power cap) and
   Energy-OPT (YDS speeds), then install the segment plan.

The BE and OQ evaluation baselines are parameterizations of the same
class (§IV-A-1) and are exposed via :func:`make_be` / :func:`make_oq`;
:func:`make_ge` builds the paper's default GE.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Literal, Optional, Tuple

import numpy as np

from repro.core.assignment import AssignmentPolicy, CumulativeRoundRobin
from repro.core.decisions import Decision
from repro.errors import SchedulingError
from repro.core.cutting import WaterlineMemo, lf_cut_waterline
from repro.core.load import ArrivalRateEstimator
from repro.core.modes import ExecutionMode, ModeController
from repro.core.planner import build_core_plan, core_power_demand, edf_sort
from repro.obs.tracer import TracerLike
from repro.units import PerSecond, QualityFrac, Seconds, Volume, WattsArray
from repro.power.distribution import EqualSharing, PowerDistributionPolicy, WaterFilling
from repro.server.scheduler import Scheduler
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.server.harness import SimulationHarness
    from repro.server.machine import MulticoreServer

__all__ = ["GEScheduler", "make_ge", "make_be", "make_oq"]

DistributionMode = Literal["hybrid", "es", "wf"]


class GEScheduler(Scheduler):
    """The Good Enough scheduler and its BE/OQ/no-compensation variants.

    Parameters
    ----------
    q_offset:
        Added to the configured ``Q_GE`` to form the controller target
        (0.02 for the OQ baseline, 0 for GE).
    compensated:
        Enable the AES↔BQ compensation policy (§III-C).  ``False``
        pins the scheduler to AES (OQ, and Fig. 5's no-compensation
        arm).
    cutting:
        Enable the AES job cutting at all.  ``False`` forces BQ mode
        permanently — that is the BE baseline.
    distribution:
        "hybrid" (paper default), or pin to "es" / "wf" for the Fig. 6/7
        ablation arms.
    cut_with_history:
        When True the LF cut subsidizes the batch with the monitor's
        cumulative surplus, cutting deeper after good stretches.  The
        paper's cut is batch-local (history off): deficits are repaired
        only by the BQ compensation switch, which is what makes the
        Fig. 5 ablation meaningful.  The history variant is kept as an
        ablation (see ``benchmarks/test_ablation_cut_history.py``).
    assignment:
        Batch assignment policy; defaults to C-RR.
    name:
        Reported name; defaults to "GE".
    """

    def __init__(
        self,
        *,
        q_offset: QualityFrac = 0.0,
        compensated: bool = True,
        cutting: bool = True,
        distribution: DistributionMode = "hybrid",
        assignment: Optional[AssignmentPolicy] = None,
        cut_with_history: bool = False,
        name: str = "GE",
    ) -> None:
        super().__init__()
        if distribution not in ("hybrid", "es", "wf"):
            raise ValueError(f"unknown distribution mode {distribution!r}")
        self.name = name
        self.q_offset = float(q_offset)
        self.compensated = bool(compensated)
        self.cutting = bool(cutting)
        self.cut_with_history = bool(cut_with_history)
        #: Optional second-cut allocator override (see planner.build_core_plan).
        self._allocator = None
        self.distribution_mode: DistributionMode = distribution
        self._assignment = assignment
        # Bound in bind():
        self.controller: Optional[ModeController] = None
        self.estimator = ArrivalRateEstimator()
        # The hybrid distribution (§III-D): ES below the critical load,
        # WF above it (see _policy_for).
        self._es = EqualSharing()
        self._wf = WaterFilling()
        self._active: List[List[Job]] = []
        self._critical_rate: PerSecond = float("inf")
        self._q_target: QualityFrac = 1.0
        # Chaos state (repro.chaos): indices of currently-failed cores
        # and the mean demand used to rescale the critical load when
        # capacity changes.  Both stay untouched in undisturbed runs, so
        # the hot path only ever pays `if self._failed_cores:` checks.
        self._failed_cores: set[int] = set()
        self._mean_demand: Volume = 0.0
        self._reschedules = 0
        self._last_policy: Optional[str] = None
        # Hot-path caches (sized in bind(); see docs/performance.md).
        self._waterline_memo = WaterlineMemo()
        self._zero_demands = np.zeros(0)
        self._cap_memo: List[Optional[Tuple[float, float, float]]] = []

    # ------------------------------------------------------------------
    def bind(self, harness: "SimulationHarness") -> None:
        super().bind(harness)
        cfg = harness.config
        self.quantum = cfg.quantum
        self._q_target = min(1.0, cfg.q_ge + self.q_offset)
        self._critical_rate = cfg.critical_load_rate()
        self.controller = ModeController(
            harness.monitor,
            self._q_target,
            compensated=self.compensated,
            start_time=harness.sim.now,
            on_switch=self._on_mode_switch,
        )
        if self._assignment is None:
            self._assignment = CumulativeRoundRobin(cfg.m)
        self._active = [[] for _ in range(cfg.m)]
        self._failed_cores = set()
        self._mean_demand = cfg.demand_distribution().mean
        self._waterline_memo = WaterlineMemo()
        self._zero_demands = np.zeros(cfg.m)
        self._cap_memo = [None] * cfg.m

    # ------------------------------------------------------------------
    # Triggers (paper §III-E)
    # ------------------------------------------------------------------
    def on_arrival(self, job: Job) -> None:
        self.estimator.observe(job.arrival)
        harness = self.harness
        if len(harness.queue) >= harness.config.counter_threshold:
            self.reschedule()  # counter trigger
        elif any(
            not core.has_work and not core.failed
            for core in harness.machine.cores
        ):
            # A job arrived while at least one core sits idle: treat as
            # the idle-core trigger so short deadlines are not lost
            # waiting for the quantum (see DESIGN.md §5).
            self.reschedule()

    def on_core_idle(self, core_index: int) -> None:
        if self.harness.queue:
            self.reschedule()

    def on_quantum(self) -> None:
        self.reschedule()

    # ------------------------------------------------------------------
    # Disturbance hooks (repro.chaos)
    # ------------------------------------------------------------------
    def on_core_failed(self, core_index: int) -> None:
        """React to a core failure: forget its jobs, shrink capacity.

        The injector has already killed or re-queued the affected jobs,
        so the core's active set is stale; C-RR keeps its pinned-forever
        discipline for every *other* job.  The critical-load threshold
        is rescaled to the surviving capacity and a round runs now so
        re-queued jobs land on live cores this instant.
        """
        self._failed_cores.add(core_index)
        self._active[core_index] = []
        self._refresh_critical_rate()
        self.reschedule()

    def on_core_recovered(self, core_index: int) -> None:
        self._failed_cores.discard(core_index)
        self._refresh_critical_rate()
        self.reschedule()

    def on_budget_change(self, budget: float) -> None:
        """Re-distribute immediately under the new ``H``.

        The reschedule recomputes caps through ES/WF with the machine's
        current budget, so the instantaneous power drops (or rises) at
        the dip (or restore) instant, never one quantum later.
        """
        self._refresh_critical_rate()
        self.reschedule()

    def _refresh_critical_rate(self) -> None:
        """Rescale the light/heavy switch to the current capacity.

        With every core alive at the configured budget this reproduces
        ``config.critical_load_rate()`` exactly; under chaos the
        equal-share capacity is recomputed over the surviving cores at
        the machine's *current* budget.
        """
        harness = self.harness
        assert harness is not None
        cfg = harness.config
        machine = harness.machine
        alive = machine.alive_count
        if alive == machine.m and machine.budget == cfg.budget:
            self._critical_rate = cfg.critical_load_rate()
            return
        if alive == 0 or self._mean_demand <= 0:
            self._critical_rate = 0.0
            return
        share = machine.budget / alive
        capacity = sum(
            machine.models[i].throughput(machine.scales[i].max_speed_at_power(share))
            for i in range(machine.m)
            if i not in self._failed_cores
        )
        self._critical_rate = (
            cfg.critical_load_fraction * capacity / self._mean_demand
        )

    def _redirect(self, core_idx: int) -> int:
        """Next alive core at/after ``core_idx`` (cyclic).

        Applied to C-RR assignments only while cores are failed, so the
        undisturbed assignment sequence is untouched.
        """
        if core_idx not in self._failed_cores:
            return core_idx
        m = self.harness.machine.m  # type: ignore[union-attr]
        for step in range(1, m):
            candidate = (core_idx + step) % m
            if candidate not in self._failed_cores:
                return candidate
        return core_idx  # unreachable: the all-dead case parks the batch

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _on_mode_switch(self, now: Seconds, old: ExecutionMode, new: ExecutionMode) -> None:
        """ModeController observer → mode_switch / compensation events."""
        tracer = self.harness.tracer
        if not tracer.enabled:
            return
        tracer.scheduler_event(
            "mode_switch", now, **{"from": old.value, "to": new.value}
        )
        # A compensation episode is exactly a BQ excursion of the
        # compensated controller (§III-C).
        if self.compensated and self.cutting:
            if new is ExecutionMode.BQ:
                tracer.scheduler_event("compensation_start", now)
            elif old is ExecutionMode.BQ:
                tracer.scheduler_event("compensation_end", now)

    # ------------------------------------------------------------------
    # The scheduling round
    # ------------------------------------------------------------------
    def reschedule(self) -> None:
        """Run one full §III-E scheduling round at the current instant.

        The round is profiled as the ``scheduler.round`` phase (with
        ``cut.lf`` / ``power.distribute`` / ``planner.*`` nested inside
        it); phase timers measure host wall time only and never feed
        back into the schedule.
        """
        if self.harness is None or self.controller is None or self._assignment is None:
            raise SchedulingError(
                "GE scheduler used before bind(); attach it to a SimulationHarness first"
            )
        tracer = self.harness.tracer
        with tracer.profiler.phase("scheduler.round") as round_phase:
            self._run_round(tracer)
        if tracer.enabled:
            tracer.metrics.histogram("scheduler.round_latency_ms", bound=10.0).observe(
                round_phase.elapsed * 1e3
            )

    def _run_round(self, tracer: TracerLike) -> None:
        # reschedule() already rejected unbound use; narrow for typing.
        assert (
            self.harness is not None
            and self.controller is not None
            and self._assignment is not None
        )
        harness = self.harness
        now = harness.sim.now
        machine = harness.machine
        tracing = tracer.enabled
        prof = tracer.profiler
        queue_depth = len(harness.queue)
        self._reschedules += 1

        # Freeze in-flight progress so 'processed' is current everywhere.
        for core in machine.cores:
            core.checkpoint()

        # 1. Batch-assign the queue with C-RR (jobs stay pinned forever).
        # An empty batch skips the policy call (and the O(m·jobs) load
        # scan feeding it) — no built-in policy acts on zero jobs.
        batch = harness.take_all_queued()
        if batch and self._failed_cores and len(self._failed_cores) >= machine.m:
            # Every core is dead (chaos): park the batch back in the
            # queue until a recovery event restores capacity.
            for job in batch:
                harness.requeue_job(job)
            batch = []
        if batch:
            assigned = self._assignment.assign(batch, self._core_loads())
            if self._failed_cores:
                # C-RR is blind to failures; bounce dead-core picks to
                # the next alive core (chaos only — no-op otherwise).
                assigned = [(job, self._redirect(idx)) for job, idx in assigned]
            for job, core_idx in assigned:
                job.assign(core_idx)
                self._active[core_idx].append(job)
                if tracing:
                    tracer.job_assigned(job, core_idx, now)

        # Refresh active sets: drop settled jobs and jobs whose deadline
        # has passed (their expiry event settles them this instant).
        per_core: List[List[Job]] = []
        for idx in range(machine.m):
            live = [j for j in self._active[idx] if not j.settled and j.deadline > now]
            self._active[idx] = [j for j in self._active[idx] if not j.settled]
            per_core.append(edf_sort(live))

        # 2. Mode decision (compensation policy).
        if not self.cutting:
            mode = ExecutionMode.BQ
            self.controller.force(mode, now)
        else:
            mode = self.controller.decide(now)

        # 3. Targets: LF cut in AES, full demands in BQ.
        all_jobs = [j for jobs in per_core for j in jobs]
        with prof.phase("cut.lf"):
            target_of = self._targets_for(all_jobs, mode)
        if tracing and mode is ExecutionMode.AES and all_jobs:
            total_demand = sum(j.demand for j in all_jobs)
            total_target = sum(target_of[j.jid] for j in all_jobs)
            cut_fraction = 1.0 - total_target / total_demand if total_demand else 0.0
            tracer.scheduler_event(
                "lf_cut", now, jobs=len(all_jobs), cut_fraction=cut_fraction
            )
            tracer.metrics.histogram("scheduler.cut_fraction").observe(cut_fraction)
            # Per-job cut events only for this round's batch, so each
            # job gets at most one (targets are recomputed every round).
            for job in batch:
                target = target_of.get(job.jid)  # absent: expired this instant
                if target is not None and target < job.demand * (1.0 - 1e-12):
                    tracer.job_cut(job, target, now)

        # 4. Power demands and distribution (per-core models support the
        # heterogeneous-machine extension; identical when homogeneous).
        # The branch is picked first: ES ignores the demand values, so
        # the per-core demand scan runs only for the WF branch.
        with prof.phase("power.distribute"):
            policy = self._policy_for(now)
            if policy.needs_demands:
                demands_w = self._power_demands(per_core, target_of, now, machine)
            else:
                demands_w = self._zero_demands
            if self._failed_cores:
                caps, dist_policy = self._distribute_alive(policy, demands_w, machine)
            else:
                distribution = policy.distribute(demands_w, machine.budget)
                caps = distribution.caps
                dist_policy = distribution.policy

        if tracing and self._last_policy not in (None, dist_policy):
            tracer.scheduler_event(
                "policy_flip",
                now,
                **{"from": self._last_policy, "to": dist_policy},
            )
        self._last_policy = dist_policy

        if tracing:
            tracer.decision(Decision(
                time=now,
                mode=mode.value,
                policy=dist_policy,
                batch_size=len(batch),
                active_jobs=len(all_jobs),
                monitor_quality=harness.monitor.quality,
                caps=tuple(float(c) for c in caps),
            ))

        # 5. Per-core planning and installation.
        quality_opt_calls = 0
        energy_opt_calls = 0
        caps_n = len(caps)
        with prof.phase("planner.build"):
            for idx, jobs in enumerate(per_core):
                core = machine.cores[idx]
                if not jobs:
                    # Nothing to plan.  Clearing an already-idle core is
                    # a no-op (the speed timeline dedupes same-value
                    # writes), so only cores holding stale segments need
                    # the call.
                    if core.has_work:
                        core.set_plan([])
                    continue
                cap = float(caps[idx]) if caps_n else 0.0
                cap_memo = self._cap_memo[idx]
                if cap_memo is not None and cap_memo[0] == cap:
                    speed_cap, capacity = cap_memo[1], cap_memo[2]
                else:
                    speed_cap = machine.scales[idx].max_speed_at_power(cap)
                    capacity = machine.models[idx].throughput(speed_cap)
                    self._cap_memo[idx] = (cap, speed_cap, capacity)
                plan = build_core_plan(
                    jobs,
                    [target_of[j.jid] for j in jobs],
                    now,
                    cap,
                    machine.models[idx],
                    machine.scales[idx],
                    allocator=self._allocator,
                    profiler=prof,
                    speed_cap=speed_cap,
                    capacity=capacity,
                )
                if tracing:
                    quality_opt_calls += 1  # Quality-OPT runs once per planned core
                    if plan.segments:
                        energy_opt_calls += 1  # Energy-OPT ran on the survivors
                core.set_plan(plan.segments)
                for job, outcome in plan.settle_now:
                    harness.settle_job(job, outcome)

        if tracing:
            metrics = tracer.metrics
            metrics.counter("scheduler.rounds").inc()
            metrics.counter("planner.quality_opt_calls").inc(quality_opt_calls)
            metrics.counter("planner.energy_opt_calls").inc(energy_opt_calls)
            metrics.gauge("scheduler.queue_depth").set(queue_depth)
            metrics.histogram("scheduler.batch_size", bound=64).observe(len(batch))
            metrics.histogram("scheduler.active_jobs", bound=256).observe(len(all_jobs))

    # ------------------------------------------------------------------
    def _targets_for(
        self, all_jobs: List[Job], mode: ExecutionMode
    ) -> Dict[int, Volume]:
        """Per-job total target volumes for this round.

        The default is the paper's behaviour: a global LF waterline cut
        across the active jobs in AES mode, full demands in BQ mode.
        Subclasses may override (e.g. the clairvoyant reference computes
        targets offline over the whole workload).
        """
        harness = self.harness
        targets = [float(j.demand) for j in all_jobs]  # BQ: full demands
        if mode is ExecutionMode.AES and all_jobs:
            base_achieved = harness.monitor.achieved if self.cut_with_history else 0.0
            base_potential = harness.monitor.potential if self.cut_with_history else 0.0
            targets = lf_cut_waterline(
                harness.quality_function,
                targets,
                self._q_target,
                base_achieved=base_achieved,
                base_potential=base_potential,
                memo=self._waterline_memo,
            ).tolist()
        return {job.jid: t for job, t in zip(all_jobs, targets)}

    def _policy_for(self, now: Seconds) -> PowerDistributionPolicy:
        """The distribution branch for this round (may tick the estimator)."""
        if self.distribution_mode == "es":
            return self._es
        if self.distribution_mode == "wf":
            return self._wf
        heavy = self.estimator.is_heavy(now, self._critical_rate)
        return self._wf if heavy else self._es

    def _power_demands(
        self,
        per_core: List[List[Job]],
        target_of: Dict[int, Volume],
        now: Seconds,
        machine: "MulticoreServer",
    ) -> WattsArray:
        """Per-core power demands (W) for the water-filling branch."""
        demands_w = np.zeros(machine.m)
        models = machine.models
        for idx, jobs in enumerate(per_core):
            if not jobs:
                continue  # an empty core demands exactly 0 W
            extras = [max(0.0, target_of[j.jid] - j.processed) for j in jobs]
            demands_w[idx] = core_power_demand(jobs, extras, now, models[idx])
        return demands_w

    def _distribute_alive(
        self,
        policy: PowerDistributionPolicy,
        demands_w: WattsArray,
        machine: "MulticoreServer",
    ) -> Tuple[WattsArray, str]:
        """Distribute the budget over the *alive* cores only (chaos).

        ES splits ``H`` into ``H/alive`` shares and WF water-fills the
        surviving demands; dead cores are capped at exactly 0 W.
        """
        alive = [i for i in range(machine.m) if i not in self._failed_cores]
        caps = np.zeros(machine.m)
        if not alive:
            return caps, policy.name
        sub = demands_w[alive] if policy.needs_demands else np.zeros(len(alive))
        decision = policy.distribute(sub, machine.budget)
        caps[alive] = decision.caps
        return caps, decision.policy

    def _core_loads(self) -> List[Volume]:
        return [
            sum(j.remaining for j in jobs if not j.settled) for jobs in self._active
        ]

    # -- reporting ---------------------------------------------------------
    def aes_fraction(self) -> Optional[float]:
        """Fraction of time in AES mode (Fig. 1); None before binding."""
        if self.controller is None:
            return None
        return self.controller.aes_fraction(self.harness.sim.now)

    @property
    def reschedules(self) -> int:
        """Number of scheduling rounds executed."""
        return self._reschedules

    def describe(self) -> str:
        comp = "comp" if self.compensated else "no-comp"
        cut = "cut" if self.cutting else "no-cut"
        return f"{self.name} (target={self._q_target}, {comp}, {cut}, {self.distribution_mode})"


def make_ge(**kwargs: object) -> GEScheduler:
    """The paper's GE with default knobs."""
    return GEScheduler(name=kwargs.pop("name", "GE"), **kwargs)


def make_be() -> GEScheduler:
    """BE baseline: always Best-Quality mode, always Water-Filling."""
    return GEScheduler(name="BE", cutting=False, distribution="wf")


def make_oq() -> GEScheduler:
    """OQ baseline: target Q_GE + 2 %, no compensation policy."""
    return GEScheduler(name="OQ", q_offset=0.02, compensated=False)
