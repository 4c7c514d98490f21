"""Tests for the scheduling decision log, a sink on the trace stream."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.decisions import Decision, DecisionLog
from repro.core.ge import GEScheduler
from repro.obs import Buffer, Tracer
from repro.server.harness import SimulationHarness


def make_decision(time=1.0, mode="aes", policy="ES", caps=(20.0, 20.0)):
    return Decision(
        time=time, mode=mode, policy=policy, batch_size=3,
        active_jobs=10, monitor_quality=0.91, caps=caps,
    )


class TestDecisionLog:
    def test_record_and_iterate(self):
        log = DecisionLog()
        log.record(make_decision(1.0))
        log.record(make_decision(2.0))
        assert len(log) == 2
        assert [d.time for d in log] == [1.0, 2.0]
        assert log.last.time == 2.0
        assert log.total_recorded == 2

    def test_ring_buffer_evicts_oldest(self):
        log = DecisionLog(capacity=3)
        for t in range(5):
            log.record(make_decision(float(t)))
        assert len(log) == 3
        assert [d.time for d in log] == [2.0, 3.0, 4.0]
        assert log.total_recorded == 5

    def test_mode_changes(self):
        log = DecisionLog()
        for t, mode in [(1, "aes"), (2, "aes"), (3, "bq"), (4, "aes")]:
            log.record(make_decision(float(t), mode=mode))
        assert log.mode_changes() == [(1.0, "aes"), (3.0, "bq"), (4.0, "aes")]

    def test_rows_and_limit(self):
        log = DecisionLog()
        for t in range(10):
            log.record(make_decision(float(t)))
        rows = log.to_rows(limit=2)
        assert len(rows) == 2
        assert "ΣP=" in rows[0]

    def test_total_cap(self):
        assert make_decision(caps=(10.0, 15.0)).total_cap == pytest.approx(25.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DecisionLog(capacity=0)


def run_logged(cfg, scheduler, *sinks):
    """Run ``scheduler`` with a tracer whose sinks are ``sinks``."""
    SimulationHarness(cfg, scheduler, tracer=Tracer(sinks=sinks)).run()


class TestIntegration:
    def test_ge_populates_log(self):
        log = DecisionLog()
        cfg = SimulationConfig(arrival_rate=120.0, horizon=3.0, seed=2)
        scheduler = GEScheduler()
        run_logged(cfg, scheduler, log)
        assert len(log) > 10
        assert log.total_recorded == scheduler.reschedules
        for d in log:
            assert d.mode in ("aes", "bq")
            assert d.policy in ("ES", "WF")
            assert d.total_cap <= cfg.budget * (1 + 1e-9)
            assert 0.0 <= d.monitor_quality <= 1.0

    def test_log_shows_wf_under_heavy_load(self):
        log = DecisionLog()
        cfg = SimulationConfig(arrival_rate=230.0, horizon=3.0, seed=2)
        run_logged(cfg, GEScheduler(), log)
        policies = {d.policy for d in log}
        assert "WF" in policies  # heavy load engages water-filling


class TestTracerMigration:
    """The log is a bounded sink next to the tracer's other sinks."""

    def test_none_capacity_falls_back_to_default_bound(self):
        from repro.core.decisions import DEFAULT_CAPACITY

        log = DecisionLog(capacity=None)
        assert log.capacity == DEFAULT_CAPACITY  # never unbounded

    def test_capacity_property(self):
        assert DecisionLog(capacity=5).capacity == 5

    def test_record_emits_through_tracer(self):
        log = DecisionLog(capacity=2)
        tracer = Tracer(sinks=(Buffer(), log))
        for t in range(4):
            tracer.decision(make_decision(float(t)))
        # Ring buffer still bounded...
        assert len(log) == 2
        assert [d.time for d in log] == [2.0, 3.0]
        assert log.last == make_decision(3.0)  # the event round-trips
        # ...but the buffer next to it kept the full decision stream.
        decisions = [e for e in tracer.events if e.kind == "decision"]
        assert [e.time for e in decisions] == [0.0, 1.0, 2.0, 3.0]
        assert decisions[0].attrs["policy"] == "ES"

    def test_no_tracer_is_still_fine(self):
        log = DecisionLog()
        log.record(make_decision())
        assert len(log) == 1

    def test_ge_with_shared_tracer_emits_each_round_once(self):
        log = DecisionLog()
        tracer = Tracer(sinks=(Buffer(), log))
        cfg = SimulationConfig(arrival_rate=120.0, horizon=2.0, seed=2)
        scheduler = GEScheduler()
        SimulationHarness(cfg, scheduler, tracer=tracer).run()
        decisions = [e for e in tracer.events if e.kind == "decision"]
        assert len(decisions) == scheduler.reschedules
        assert log.total_recorded == scheduler.reschedules
        assert [d.time for d in log] == [e.time for e in decisions]

    def test_ge_without_log_still_emits_decisions(self):
        tracer = Tracer()
        cfg = SimulationConfig(arrival_rate=120.0, horizon=2.0, seed=2)
        scheduler = GEScheduler()
        SimulationHarness(cfg, scheduler, tracer=tracer).run()
        decisions = [e for e in tracer.events if e.kind == "decision"]
        assert len(decisions) == scheduler.reschedules
