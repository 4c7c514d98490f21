"""Smoke tests for the example scripts.

Each example is importable as a module with a ``main()``; the cheap
ones are executed end-to-end (capturing stdout), the expensive ones are
only checked for importability so the suite stays fast — the benchmark
suite and CI docs cover running them for real.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = [
    "quickstart",
    "job_cutting_demo",
    "websearch_server",
    "capacity_planning",
    "custom_policy",
    "diurnal_load",
    "analysis_vs_simulation",
    "mixed_tenancy",
]


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports_and_has_main(name):
    module = load_example(name)
    assert callable(module.main)


def test_job_cutting_demo_runs(capsys):
    load_example("job_cutting_demo").main()
    out = capsys.readouterr().out
    assert "aggregate quality after cut : 0.9000" in out
    assert "#" in out  # the bars rendered


def test_custom_policy_example_runs(capsys, monkeypatch):
    module = load_example("custom_policy")
    module.main()
    out = capsys.readouterr().out
    assert "G-EDF" in out and "GE" in out


def test_custom_policy_scheduler_passes_audit():
    """The example's scheduler is real code: audit it physically."""
    from repro.config import SimulationConfig
    from repro.server.harness import SimulationHarness
    from repro.validation import validate_run

    module = load_example("custom_policy")
    cfg = SimulationConfig(arrival_rate=120.0, horizon=3.0, seed=2)
    harness = SimulationHarness(cfg, module.GreedyEDFCut())
    harness.run()
    validate_run(harness).raise_if_failed()
