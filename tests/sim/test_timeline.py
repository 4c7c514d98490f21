"""Unit tests for piecewise-constant timelines."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.timeline import StepTimeline


def test_integral_of_constant():
    tl = StepTimeline(initial_value=2.0)
    assert tl.integral(10.0) == pytest.approx(20.0)


def test_integral_of_steps():
    tl = StepTimeline(initial_value=0.0)
    tl.set_value(2.0, 3.0)  # [2, 5): 3
    tl.set_value(5.0, 1.0)  # [5, 10): 1
    assert tl.integral(10.0) == pytest.approx(0 * 2 + 3 * 3 + 1 * 5)


def test_integral_with_transform():
    tl = StepTimeline(initial_value=2.0)
    tl.set_value(1.0, 3.0)
    # ∫ v² = 4·1 + 9·1 on [0,2]
    assert tl.integral(2.0, transform=lambda v: v * v) == pytest.approx(13.0)


def test_time_average():
    tl = StepTimeline(initial_value=0.0)
    tl.set_value(5.0, 10.0)
    assert tl.time_average(10.0) == pytest.approx(5.0)


def test_same_time_overwrite():
    tl = StepTimeline(initial_value=0.0)
    tl.set_value(1.0, 5.0)
    tl.set_value(1.0, 7.0)
    assert tl.integral(2.0) == pytest.approx(7.0)


def test_redundant_value_is_elided():
    tl = StepTimeline(initial_value=3.0)
    tl.set_value(1.0, 3.0)
    tl.set_value(2.0, 3.0)
    assert len(tl) == 1


def test_overwrite_collapses_to_previous_segment():
    tl = StepTimeline(initial_value=3.0)
    tl.set_value(1.0, 5.0)
    tl.set_value(1.0, 3.0)  # back to the original value
    assert len(tl) == 1


def test_chronological_enforcement():
    tl = StepTimeline()
    tl.set_value(5.0, 1.0)
    with pytest.raises(SimulationError):
        tl.set_value(4.0, 2.0)
    with pytest.raises(SimulationError):
        tl.set_value(float("nan"), 2.0)
