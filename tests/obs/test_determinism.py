"""Tracing must not perturb the simulation.

Pins the acceptance property: a fixed-seed GE run produces a
bit-identical :class:`RunResult` with tracing enabled vs. disabled.
The tracer only observes state (it never schedules simulator events),
so any drift here means an instrumentation point mutated the run.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.ge import make_be, make_ge
from repro.obs import Tracer, write_jsonl
from repro.server.harness import SimulationHarness


def run_result(config, factory, tracer=None):
    return SimulationHarness(config, factory(), tracer=tracer).run()


class TestTracingIsInvisible:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_ge_run_result_bit_identical(self, seed):
        config = SimulationConfig(arrival_rate=150.0, horizon=5.0, seed=seed)
        plain = run_result(config, make_ge)
        traced = run_result(config, make_ge, tracer=Tracer())
        # Field-by-field equality of the frozen dataclass: every float
        # must match exactly, not approximately.
        assert traced == plain

    def test_be_run_result_bit_identical(self):
        config = SimulationConfig(arrival_rate=180.0, horizon=4.0, seed=2)
        assert run_result(config, make_be, tracer=Tracer()) == run_result(
            config, make_be
        )

    def test_traced_runs_are_repeatable(self, tmp_path):
        # A trace is a pure function of config, seed and scheduler: no
        # field of it (meta and metrics included) reads the host.
        config = SimulationConfig(arrival_rate=140.0, horizon=4.0, seed=11)
        t1, t2 = Tracer(), Tracer()
        r1 = run_result(config, make_ge, tracer=t1)
        r2 = run_result(config, make_ge, tracer=t2)
        assert r1 == r2
        a, b = t1.to_trace(), t2.to_trace()
        assert [s.to_record() for s in a.spans] == [s.to_record() for s in b.spans]
        assert [e.to_record() for e in a.events] == [e.to_record() for e in b.events]
        assert a.samples == b.samples
        assert a == b
        write_jsonl(t1, tmp_path / "a.jsonl")
        write_jsonl(t2, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
