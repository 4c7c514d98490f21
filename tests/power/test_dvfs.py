"""Tests for continuous and discrete speed scaling."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.power.dvfs import ContinuousSpeedScale, DiscreteSpeedScale
from repro.power.models import PowerModel

MODEL = PowerModel()


class TestContinuous:
    def test_quantize_is_identity_below_top(self):
        scale = ContinuousSpeedScale(MODEL)
        assert scale.quantize(1.234) == 1.234
        assert scale.ceil(1.234) == 1.234

    def test_top_speed_clamps(self):
        scale = ContinuousSpeedScale(MODEL, top_speed=2.0)
        assert scale.quantize(5.0) == 2.0
        assert scale.max_speed_at_power(1000.0) == 2.0

    def test_max_speed_at_power(self):
        scale = ContinuousSpeedScale(MODEL)
        assert scale.max_speed_at_power(20.0) == pytest.approx(2.0)

    def test_invalid_top(self):
        with pytest.raises(ConfigurationError):
            ContinuousSpeedScale(MODEL, top_speed=0.0)

    def test_negative_rejected(self):
        scale = ContinuousSpeedScale(MODEL)
        with pytest.raises(ValueError):
            scale.quantize(-1.0)


class TestDiscrete:
    def ladder(self):
        return DiscreteSpeedScale(MODEL, levels=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    def test_quantize_rounds_down(self):
        scale = self.ladder()
        assert scale.quantize(1.7) == 1.5
        assert scale.quantize(0.4) == 0.0
        assert scale.quantize(2.0) == 2.0
        assert scale.quantize(99.0) == 3.0

    def test_ceil_rounds_up(self):
        scale = self.ladder()
        assert scale.ceil(1.7) == 2.0
        assert scale.ceil(0.1) == 0.5
        assert scale.ceil(2.0) == 2.0
        assert scale.ceil(0.0) == 0.0
        assert scale.ceil(99.0) == 3.0  # clamps at the top level

    def test_max_speed_at_power_quantizes(self):
        scale = self.ladder()
        # 20 W allows exactly 2.0 GHz.
        assert scale.max_speed_at_power(20.0) == 2.0
        # 19 W allows at most 1.949 GHz -> level 1.5.
        assert scale.max_speed_at_power(19.0) == 1.5

    def test_default_ladder(self):
        scale = DiscreteSpeedScale(MODEL)
        assert scale.top_speed == pytest.approx(3.0)
        assert scale.levels[0] == pytest.approx(0.25)

    def test_invalid_ladders(self):
        with pytest.raises(ConfigurationError):
            DiscreteSpeedScale(MODEL, levels=[])
        with pytest.raises(ConfigurationError):
            DiscreteSpeedScale(MODEL, levels=[0.0, 1.0])

