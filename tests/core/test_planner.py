"""Tests for per-core plan construction."""

from __future__ import annotations

import pytest

from repro.core.planner import build_core_plan, core_power_demand, edf_sort
from repro.power.dvfs import ContinuousSpeedScale, DiscreteSpeedScale
from repro.power.models import PowerModel
from repro.workload.job import Job, JobOutcome

MODEL = PowerModel()
SCALE = ContinuousSpeedScale(MODEL)


def job(jid, deadline, demand, processed=0.0, arrival=0.0):
    j = Job(jid=jid, arrival=arrival, deadline=deadline, demand=demand)
    if processed:
        j.add_progress(processed)
    return j


class TestEdfSort:
    def test_sorts_by_deadline_then_jid(self):
        jobs = [job(2, 2.0, 10.0), job(1, 1.0, 10.0), job(3, 1.0, 10.0)]
        assert [j.jid for j in edf_sort(jobs)] == [1, 3, 2]


class TestPowerDemand:
    def test_single_job(self):
        jobs = [job(1, 1.0, 100.0)]
        # 100 units in 1 s -> 0.1 GHz -> 5·0.01 = 0.05 W.
        assert core_power_demand(jobs, [100.0], 0.0, MODEL) == pytest.approx(0.05)

    def test_critical_prefix_dominates(self):
        jobs = [job(1, 0.1, 200.0), job(2, 10.0, 10.0)]
        # Prefix 1: 2000 u/s; prefix 2: 21 u/s -> need 2 GHz -> 20 W.
        assert core_power_demand(jobs, [200.0, 10.0], 0.0, MODEL) == pytest.approx(20.0)

    def test_no_work_no_demand(self):
        jobs = [job(1, 1.0, 100.0)]
        assert core_power_demand(jobs, [0.0], 0.0, MODEL) == 0.0

    def test_empty(self):
        assert core_power_demand([], [], 0.0, MODEL) == 0.0


class TestBuildCorePlan:
    def test_plenty_of_power_full_plan(self):
        jobs = [job(1, 1.0, 100.0), job(2, 2.0, 200.0)]
        plan = build_core_plan(jobs, [100.0, 200.0], 0.0, 320.0, MODEL, SCALE)
        assert len(plan.segments) == 2
        assert not plan.settle_now
        assert plan.segments[0].job.jid == 1
        # YDS: the critical prefix is both jobs (300 units by t=2),
        # intensity 150 u/s = 0.15 GHz shared by the block.
        assert plan.segments[0].speed == pytest.approx(0.15)
        assert plan.segments[1].speed == pytest.approx(0.15)

    def test_target_reached_settles_cut(self):
        j = job(1, 1.0, 200.0, processed=150.0)
        plan = build_core_plan([j], [120.0], 0.0, 320.0, MODEL, SCALE)
        assert not plan.segments
        assert plan.settle_now == [(j, JobOutcome.CUT)]

    def test_target_reached_settles_completed(self):
        j = job(1, 1.0, 200.0, processed=200.0)
        plan = build_core_plan([j], [200.0], 0.0, 320.0, MODEL, SCALE)
        assert plan.settle_now == [(j, JobOutcome.COMPLETED)]

    def test_unprocessed_zero_target_settles_dropped(self):
        j = job(1, 1.0, 200.0)
        plan = build_core_plan([j], [0.0], 0.0, 320.0, MODEL, SCALE)
        assert plan.settle_now == [(j, JobOutcome.DROPPED)]

    def test_power_cap_triggers_second_cut(self):
        # 2000 units due in 1 s needs 2 GHz = 20 W; cap at 5 W -> 1 GHz
        # -> only 1000 units fit.
        j = job(1, 1.0, 2000.0)
        plan = build_core_plan([j], [2000.0], 0.0, 5.0, MODEL, SCALE)
        assert len(plan.segments) == 1
        assert plan.segments[0].volume == pytest.approx(1000.0, rel=1e-6)
        assert plan.segments[0].speed == pytest.approx(1.0)

    def test_second_cut_prefers_quality_efficient_jobs(self):
        # Two jobs sharing one deadline under a tight cap: volumes level.
        jobs = [job(1, 1.0, 900.0), job(2, 1.0, 300.0)]
        plan = build_core_plan(jobs, [900.0, 300.0], 0.0, 5.0, MODEL, SCALE)
        vols = {s.job.jid: s.volume for s in plan.segments}
        assert vols[2] == pytest.approx(300.0, rel=1e-6)
        assert vols[1] == pytest.approx(700.0, rel=1e-6)

    def test_zero_power_settles_everything(self):
        jobs = [job(1, 1.0, 100.0, processed=50.0), job(2, 1.0, 100.0)]
        plan = build_core_plan(jobs, [100.0, 100.0], 0.0, 0.0, MODEL, SCALE)
        assert not plan.segments
        outcomes = {j.jid: o for j, o in plan.settle_now}
        assert outcomes[1] is JobOutcome.CUT
        assert outcomes[2] is JobOutcome.DROPPED

    def test_segments_meet_deadlines(self):
        jobs = [job(1, 0.2, 150.0), job(2, 0.5, 400.0), job(3, 0.6, 100.0)]
        plan = build_core_plan(
            jobs, [150.0, 400.0, 100.0], 0.0, 320.0, MODEL, SCALE
        )
        t = 0.0
        for seg in plan.segments:
            t += seg.volume / (seg.speed * 1000.0)
            assert t <= seg.job.deadline + 1e-9

    def test_discrete_scale_rounds_up_within_cap(self):
        scale = DiscreteSpeedScale(MODEL, levels=[0.5, 1.0, 1.5, 2.0])
        j = job(1, 1.0, 700.0)  # needs 0.7 GHz
        plan = build_core_plan([j], [700.0], 0.0, 20.0, MODEL, scale)
        assert plan.segments[0].speed == 1.0  # ceil(0.7) on the ladder

    def test_discrete_scale_respects_cap(self):
        scale = DiscreteSpeedScale(MODEL, levels=[0.5, 1.0, 1.5, 2.0])
        # Cap 5 W -> 1.0 GHz max level; need 0.7 GHz -> ceil is 1.0 = cap.
        j = job(1, 1.0, 700.0)
        plan = build_core_plan([j], [700.0], 0.0, 5.0, MODEL, scale)
        assert plan.segments[0].speed == 1.0

    def test_empty_jobs(self):
        plan = build_core_plan([], [], 0.0, 20.0, MODEL, SCALE)
        assert not plan.segments and not plan.settle_now


class TestDiscreteDvfsBatches:
    """S4: discrete-DVFS planning on the degenerate batch shapes —
    every emitted speed must sit ON the ladder, never above the
    power-cap's rectified maximum level."""

    LADDER = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]

    def _scale(self):
        return DiscreteSpeedScale(MODEL, levels=self.LADDER)

    def test_all_equal_demands_one_merged_block_on_ladder(self):
        scale = self._scale()
        n = 4
        jobs = [job(i, 1.0, 300.0) for i in range(n)]
        plan = build_core_plan(jobs, [300.0] * n, 0.0, 320.0, MODEL, scale)
        assert len(plan.segments) == n
        # Equal deadlines and demands merge into one YDS block: every
        # segment carries the same ladder speed.
        speeds = {seg.speed for seg in plan.segments}
        assert len(speeds) == 1
        (speed,) = speeds
        assert speed in self.LADDER
        # 4 × 300 units in 1 s needs 1.2 GHz -> ceil to 1.25 on the ladder.
        assert speed == 1.25

    def test_all_equal_demands_capped_by_power(self):
        scale = self._scale()
        n = 4
        jobs = [job(i, 1.0, 300.0) for i in range(n)]
        # 5 W cap -> 1.0 GHz max; the 1.2 GHz need is rectified to 1.0.
        plan = build_core_plan(jobs, [300.0] * n, 0.0, 5.0, MODEL, scale)
        for seg in plan.segments:
            assert seg.speed <= scale.max_speed_at_power(5.0) + 1e-12
            assert seg.speed in self.LADDER

    def test_staircase_speeds_stay_on_ladder(self):
        scale = self._scale()
        jobs = [job(1, 0.25, 200.0), job(2, 1.0, 300.0), job(3, 2.0, 100.0)]
        plan = build_core_plan(
            jobs, [200.0, 300.0, 100.0], 0.0, 320.0, MODEL, scale
        )
        cap = scale.max_speed_at_power(320.0)
        assert plan.segments
        for seg in plan.segments:
            assert seg.speed in self.LADDER
            assert seg.speed <= cap + 1e-12

    def test_precomputed_cap_kwargs_change_nothing(self):
        """The speed_cap/capacity memo kwargs must be pure shortcuts."""
        scale = self._scale()
        jobs = [job(1, 0.5, 200.0), job(2, 1.0, 300.0)]
        targets = [200.0, 300.0]
        base = build_core_plan(jobs, targets, 0.0, 20.0, MODEL, scale)
        cap = scale.max_speed_at_power(20.0)
        memod = build_core_plan(
            jobs,
            targets,
            0.0,
            20.0,
            MODEL,
            scale,
            speed_cap=cap,
            capacity=MODEL.throughput(cap),
        )
        assert [
            (s.job.jid, s.volume, s.speed) for s in base.segments
        ] == [(s.job.jid, s.volume, s.speed) for s in memod.segments]
