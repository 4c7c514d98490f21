"""End-to-end tracing of real simulation runs."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.ge import make_ge
from repro.obs import Tracer, read_jsonl, write_jsonl
from repro.server.harness import SimulationHarness


@pytest.fixture(scope="module")
def traced_run():
    """One traced GE run shared by the assertions below."""
    config = SimulationConfig(arrival_rate=150.0, horizon=4.0, seed=3)
    tracer = Tracer()
    scheduler = make_ge()
    result = SimulationHarness(config, scheduler, tracer=tracer).run()
    return config, scheduler, tracer, result


class TestJobSpans:
    def test_every_job_has_a_closed_span(self, traced_run):
        _, _, tracer, result = traced_run
        job_spans = tracer.to_trace().spans_named("job")
        assert len(job_spans) == result.jobs
        assert all(not s.open for s in job_spans)
        assert tracer.open_spans() == []

    def test_span_attrs_carry_outcome_and_volume(self, traced_run):
        _, _, tracer, result = traced_run
        trace = tracer.to_trace()
        outcomes = {}
        for span in trace.spans_named("job"):
            outcomes[span.attrs["outcome"]] = outcomes.get(span.attrs["outcome"], 0) + 1
            assert 0.0 <= span.attrs["processed"] <= span.attrs["demand"] * (1 + 1e-9)
        assert outcomes == result.outcomes

    def test_exec_slices_nest_inside_their_job_span(self, traced_run):
        _, _, tracer, _ = traced_run
        trace = tracer.to_trace()
        by_id = {s.span_id: s for s in trace.spans}
        exec_spans = trace.spans_named("exec")
        assert exec_spans, "GE run must produce execution slices"
        for ex in exec_spans:
            assert ex.parent_id is not None
            parent = by_id[ex.parent_id]
            assert parent.name == "job"
            assert parent.attrs["jid"] == ex.attrs["jid"]
            assert ex.start >= parent.start - 1e-9
            assert ex.end is not None and ex.end <= parent.end + 1e-9

    def test_lifecycle_events_are_ordered(self, traced_run):
        _, _, tracer, _ = traced_run
        trace = tracer.to_trace()
        for span in trace.spans_named("job")[:200]:
            kinds = [e.kind for e in trace.span_events(span)]
            assert kinds[0] == "enqueue"
            assert kinds[-1] == "settle"
            times = [e.time for e in trace.span_events(span)]
            assert times == sorted(times)


class TestSchedulerEvents:
    def test_mode_switches_recorded(self, traced_run):
        _, scheduler, tracer, _ = traced_run
        switches = tracer.to_trace().events_of("mode_switch")
        assert len(switches) == scheduler.controller.switches
        assert len(switches) > 0  # quality-constrained run must compensate
        for event in switches:
            assert {event.attrs["from"], event.attrs["to"]} == {"aes", "bq"}

    def test_compensation_episodes_pair_up(self, traced_run):
        _, _, tracer, _ = traced_run
        trace = tracer.to_trace()
        starts = trace.events_of("compensation_start")
        ends = trace.events_of("compensation_end")
        assert len(starts) > 0
        assert len(starts) - len(ends) in (0, 1)  # last episode may be open

    def test_decisions_match_reschedules(self, traced_run):
        _, scheduler, tracer, _ = traced_run
        decisions = tracer.to_trace().events_of("decision")
        assert len(decisions) == scheduler.reschedules
        for event in decisions[:50]:
            assert event.attrs["mode"] in ("aes", "bq")
            assert event.attrs["policy"] in ("ES", "WF")

    def test_metrics_registry_populated(self, traced_run):
        config, scheduler, tracer, _ = traced_run
        metrics = tracer.to_trace().metrics
        assert metrics["scheduler.rounds"]["value"] == scheduler.reschedules
        assert metrics["scheduler.batch_size"]["count"] == scheduler.reschedules
        assert metrics["planner.quality_opt_calls"]["value"] > 0
        assert metrics["planner.energy_opt_calls"]["value"] > 0
        assert metrics["scheduler.cut_fraction"]["max"] <= 1.0

    def test_traced_run_result_is_consistent(self, traced_run):
        _, scheduler, _, result = traced_run
        assert result.scheduler == "GE"
        assert scheduler.reschedules > 0
        assert result.jobs == sum(result.outcomes.values())
        assert 0.0 <= result.quality <= 1.0
        assert result.energy > 0.0


class TestCoreTimelines:
    def test_samples_at_quantum_boundaries(self, traced_run):
        config, scheduler, tracer, result = traced_run
        trace = tracer.to_trace()
        times = sorted({s.time for s in trace.samples})
        quantum = scheduler.quantum
        # Start sample, one per quantum tick, and the final run-end sample.
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(result.duration)
        interior = times[1:-1]
        for t in interior:
            assert (t / quantum) == pytest.approx(round(t / quantum))

    def test_every_sample_instant_covers_all_cores(self, traced_run):
        config, _, tracer, _ = traced_run
        trace = tracer.to_trace()
        per_time = {}
        for s in trace.samples:
            per_time.setdefault(s.time, set()).add(s.core)
        for cores in per_time.values():
            assert cores == set(range(config.m))

    def test_cumulative_energy_matches_run_result(self, traced_run):
        _, _, tracer, result = traced_run
        trace = tracer.to_trace()
        final = {}
        for s in trace.samples:  # chronological: last write wins
            final[s.core] = s.energy
        assert sum(final.values()) == pytest.approx(result.energy, rel=1e-9)

    def test_energy_is_monotone_per_core(self, traced_run):
        _, _, tracer, _ = traced_run
        last = {}
        for s in tracer.to_trace().samples:
            assert s.energy >= last.get(s.core, 0.0) - 1e-12
            last[s.core] = s.energy


class TestRoundTripOnRealRun:
    def test_jsonl_round_trip_identical(self, traced_run, tmp_path):
        _, _, tracer, _ = traced_run
        trace = tracer.to_trace()
        path = tmp_path / "run.jsonl"
        write_jsonl(trace, path)
        assert read_jsonl(path) == trace
