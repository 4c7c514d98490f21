"""Tests for the figure registry and the fleet scenario table."""

from __future__ import annotations

import pytest

from repro.experiments.registry import (
    FIGURES,
    FLEET_SCENARIOS,
    get_figure,
    list_figures,
)
from repro.server.harness import SimulationHarness


def test_all_twelve_figures_registered():
    assert len(FIGURES) == 12
    assert sorted(FIGURES) == [f"fig{i:02d}" for i in range(1, 13)]


def test_get_figure_accepts_aliases():
    assert get_figure("fig03").figure_id == "fig03"
    assert get_figure("3").figure_id == "fig03"
    assert get_figure("03").figure_id == "fig03"
    assert get_figure("12").figure_id == "fig12"


def test_get_figure_unknown_raises():
    with pytest.raises(KeyError):
        get_figure("13")
    with pytest.raises(ValueError):
        get_figure("nope")


def test_list_figures_sorted():
    ids = [spec.figure_id for spec in list_figures()]
    assert ids == sorted(ids)


def test_every_spec_is_callable_with_scale():
    for spec in list_figures():
        assert callable(spec.run)
        assert spec.default_scale > 0


def test_fleet_scenarios_cover_the_ge_family():
    assert {"ge_light", "ge_nominal", "ge_heavy", "ge_discrete"} <= set(FLEET_SCENARIOS)


def test_ge_discrete_pin():
    """GE on the 0.25 GHz DVFS ladder at scale 0.02, seed 1, untraced.

    Counts are exact; Q and E are pinned to a 1e-6 relative tolerance.
    """
    scenario = FLEET_SCENARIOS["ge_discrete"]
    harness = SimulationHarness(scenario.config(0.02, 1), scenario.factory())
    result = harness.run()
    assert result.jobs == 1797
    assert result.outcomes == {"completed": 994, "cut": 609, "expired": 194}
    assert harness.sim.events_processed == 5120
    assert harness.scheduler.reschedules == 495
    assert result.quality == pytest.approx(0.9002966574468846, rel=1e-6)
    assert result.energy == pytest.approx(2312.3241001271017, rel=1e-6)
