"""Tests for the simulation configuration."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.config import PAPER_DEFAULTS, SimulationConfig
from repro.errors import ConfigurationError
from repro.power.dvfs import ContinuousSpeedScale, DiscreteSpeedScale


def test_paper_defaults_match_section_iv_b():
    cfg = PAPER_DEFAULTS
    assert cfg.m == 16
    assert cfg.budget == 320.0
    assert cfg.q_ge == 0.9
    assert cfg.quality_c == 0.003
    assert cfg.quantum == 0.5
    assert cfg.counter_threshold == 8
    assert cfg.horizon == 600.0
    assert cfg.window_low == cfg.window_high == 0.150
    assert cfg.demand_distribution().mean == pytest.approx(192.0, abs=0.5)


def test_derived_operating_points():
    cfg = PAPER_DEFAULTS
    assert cfg.equal_share_speed() == pytest.approx(2.0)
    assert cfg.equal_share_capacity() == pytest.approx(32000.0)
    # §IV-B: critical load 154 r/s at the defaults.
    assert cfg.critical_load_rate() == pytest.approx(154.0, abs=1.0)
    assert cfg.saturation_rate() == pytest.approx(166.7, abs=0.5)


def test_with_overrides_creates_variant():
    cfg = PAPER_DEFAULTS.with_overrides(arrival_rate=200.0, m=8)
    assert cfg.arrival_rate == 200.0
    assert cfg.m == 8
    assert PAPER_DEFAULTS.arrival_rate == 150.0  # original untouched


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        PAPER_DEFAULTS.m = 4  # type: ignore[misc]


def test_speed_scale_continuous_by_default():
    assert isinstance(PAPER_DEFAULTS.speed_scale(), ContinuousSpeedScale)


def test_speed_scale_discrete_when_levels_given():
    cfg = PAPER_DEFAULTS.with_overrides(discrete_levels=(0.5, 1.0, 2.0))
    scale = cfg.speed_scale()
    assert isinstance(scale, DiscreteSpeedScale)
    assert scale.top_speed == 2.0


def test_top_speed_caps_continuous():
    cfg = PAPER_DEFAULTS.with_overrides(top_speed=1.5)
    assert cfg.speed_scale().max_speed_at_power(1e9) == 1.5


def test_top_speed_trims_ladder():
    cfg = PAPER_DEFAULTS.with_overrides(
        discrete_levels=(0.5, 1.0, 2.0, 3.0), top_speed=1.5
    )
    assert cfg.speed_scale().top_speed == 1.0


def test_workload_is_seeded():
    a = PAPER_DEFAULTS.with_overrides(horizon=2.0).workload().materialize()
    b = PAPER_DEFAULTS.with_overrides(horizon=2.0).workload().materialize()
    assert [j.arrival for j in a] == [j.arrival for j in b]


def test_critical_rate_scales_with_capacity():
    doubled = PAPER_DEFAULTS.with_overrides(m=32)
    assert doubled.critical_load_rate() == pytest.approx(
        2**0.5 * PAPER_DEFAULTS.critical_load_rate(), rel=1e-6
    )


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(arrival_rate=0.0)
    for field, bad in [
        ("horizon", math.nan), ("horizon", math.inf), ("horizon", -1.0), ("horizon", 0.0),
        ("arrival_rate", math.nan), ("arrival_rate", math.inf),
        ("budget", math.nan), ("budget", math.inf), ("budget", 0.0), ("budget", -1.0),
        ("quantum", math.nan), ("quantum", math.inf),
        ("m", 0),
    ]:
        with pytest.raises(ConfigurationError, match=field):
            SimulationConfig(**{field: bad})
    with pytest.raises(ConfigurationError):
        SimulationConfig(q_ge=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(quantum=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(counter_threshold=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(critical_load_fraction=0.0)
