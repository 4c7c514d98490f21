"""The sink model: one tracer emits, sinks compose.

* the tracer subclasses only choose sinks — every hook lives on
  :class:`Tracer`, so a record is built once whatever consumes it;
* stream and sanitize sinks ride one run together without perturbing
  it or each other, and the sanitizer still trips;
* a JSONL spill next to a buffer writes the buffer's records.
"""

from __future__ import annotations

import re

import pytest

from repro.check.sanitizer import Sanitizer, SanitizerViolation, SanitizingTracer
from repro.config import SimulationConfig
from repro.core.ge import make_ge
from repro.obs import Buffer, JsonlSpill, StreamingTracer, Tracer, read_jsonl
from repro.server.harness import SimulationHarness
from tests.check.test_sanitizer import _OverBudgetScheduler

HOOK = re.compile(
    r"job_\w+|exec_\w+|run_\w+|scheduler_event|decision|sample_cores"
    r"|begin_span|end_span|event"
)


def stream_and_sanitize(config, scheduler):
    tracer = StreamingTracer()
    tracer.sinks += (Sanitizer.for_run(config, scheduler),)
    return tracer


def host_free(summary):
    """A stream summary without the metrics that time the host."""
    out = dict(summary)
    out["metrics"] = {
        k: v for k, v in summary["metrics"].items()
        if not k.startswith("prof.") and k != "scheduler.round_latency_ms"
    }
    return out


@pytest.mark.parametrize("cls", [StreamingTracer, SanitizingTracer])
def test_tracer_subclasses_define_no_hook(cls):
    assert issubclass(cls, Tracer)
    assert [name for name in vars(cls) if HOOK.fullmatch(name)] == []


class TestStreamAndSanitize:
    def test_composed_run_matches_untraced_and_stream_alone(self):
        config = SimulationConfig(arrival_rate=150.0, horizon=4.0, seed=3)
        plain = SimulationHarness(config, make_ge()).run()
        alone = StreamingTracer()
        SimulationHarness(config, make_ge(), tracer=alone).run()
        scheduler = make_ge()
        both = stream_and_sanitize(config, scheduler)
        result = SimulationHarness(config, scheduler, tracer=both).run()
        assert result == plain
        assert host_free(both.summary()) == host_free(alone.summary())
        (sanitizer,) = [s for s in both.sinks if isinstance(s, Sanitizer)]
        assert sanitizer.checks_run > 1000

    def test_composed_run_still_trips_on_over_budget_plan(self):
        config = SimulationConfig(
            arrival_rate=80.0, horizon=4.0, seed=5, m=2, budget=40.0
        )
        scheduler = _OverBudgetScheduler()
        tracer = stream_and_sanitize(config, scheduler)
        with pytest.raises(SanitizerViolation) as err:
            SimulationHarness(config, scheduler, tracer=tracer).run()
        assert err.value.invariant == "power_budget"


def test_spill_next_to_buffer_writes_the_buffered_trace(tmp_path):
    config = SimulationConfig(arrival_rate=150.0, horizon=2.0, seed=5)
    path = tmp_path / "trace.jsonl"
    spill = JsonlSpill(path)
    tracer = Tracer(sinks=(Buffer(), spill))
    SimulationHarness(config, make_ge(), tracer=tracer).run()
    trace, spilled = tracer.to_trace(), read_jsonl(path)
    assert spill.written > 0
    assert sorted(s.span_id for s in spilled.spans) == [s.span_id for s in trace.spans]
    assert spilled.events == trace.events
    assert spilled.samples == trace.samples
    assert spilled.meta == trace.meta
