"""Tests for aggregate quality Q(J) = Σf(c)/Σf(p)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quality.aggregate import aggregate_quality, quality_ratio
from repro.quality.functions import ExponentialQuality

F = ExponentialQuality(c=0.003, x_max=1000.0)


def test_full_processing_is_one():
    demands = [100.0, 500.0, 900.0]
    assert aggregate_quality(F, demands, demands) == pytest.approx(1.0)


def test_no_processing_is_zero():
    demands = [100.0, 500.0]
    assert aggregate_quality(F, [0.0, 0.0], demands) == pytest.approx(0.0)


def test_empty_set_is_one():
    assert aggregate_quality(F, [], []) == 1.0
    assert quality_ratio(0.0, 0.0) == 1.0


def test_partial_processing_matches_formula():
    processed = np.array([50.0, 400.0])
    demands = np.array([100.0, 800.0])
    expected = (F(50.0) + F(400.0)) / (F(100.0) + F(800.0))
    assert aggregate_quality(F, processed, demands) == pytest.approx(expected)


def test_processed_above_demand_rejected():
    with pytest.raises(ValueError):
        aggregate_quality(F, [200.0], [100.0])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        aggregate_quality(F, [1.0, 2.0], [1.0])


@given(
    st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=30),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_scaling_processed_lowers_quality(demands, frac):
    """Processing a fraction of every job yields Q in [f-bound, 1]."""
    demands_arr = np.asarray(demands)
    q = aggregate_quality(F, demands_arr * frac, demands_arr)
    assert 0.0 <= q <= 1.0 + 1e-12
    if frac < 1.0:
        # Concavity: quality is at least the volume fraction.
        assert q >= frac - 1e-9
