"""Tests for the class-aware Quality-OPT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality_opt import prefix_feasible, quality_opt
from repro.mixed.quality_opt import quality_opt_mixed
from repro.quality.functions import ExponentialQuality

F_A = ExponentialQuality(c=0.003, x_max=1000.0)
F_B = ExponentialQuality(c=0.0009, x_max=1000.0)
F_STEEP = ExponentialQuality(c=0.009, x_max=1000.0)


def test_reduces_to_shared_quality_opt():
    """Identical functions: mixed and shared implementations agree."""
    bounds = [300.0, 200.0, 400.0]
    dls = [0.3, 0.6, 0.9]
    shared = quality_opt(bounds, dls, 0.0, 600.0)
    mixed = quality_opt_mixed([F_A] * 3, bounds, dls, 0.0, 600.0)
    assert np.allclose(shared, mixed, atol=1.0)


def test_reduces_with_offsets():
    bounds = [300.0, 300.0]
    dls = [1.0, 1.0]
    offs = [100.0, 0.0]
    shared = quality_opt(bounds, dls, 0.0, 200.0, offsets=offs)
    mixed = quality_opt_mixed([F_A, F_A], bounds, dls, 0.0, 200.0, offsets=offs)
    assert np.allclose(shared, mixed, atol=1.0)


def test_plenty_of_capacity_grants_everything():
    out = quality_opt_mixed([F_A, F_B], [100.0, 200.0], [10.0, 20.0], 0.0, 1000.0)
    assert out == pytest.approx([100.0, 200.0])


def test_zero_capacity_grants_nothing():
    out = quality_opt_mixed([F_A, F_B], [100.0, 200.0], [1.0, 2.0], 0.0, 0.0)
    assert out == pytest.approx([0.0, 0.0])


def test_scarce_capacity_equalizes_marginals():
    """Under one shared deadline the KKT optimum equalizes the marginal
    quality f'_i at the allocation — the defining property."""
    out = quality_opt_mixed([F_STEEP, F_B], [500.0, 500.0], [1.0, 1.0], 0.0, 400.0)
    assert float(np.sum(out)) == pytest.approx(400.0, rel=1e-6)
    m0 = float(F_STEEP.derivative(float(out[0])))
    m1 = float(F_B.derivative(float(out[1])))
    assert m0 == pytest.approx(m1, rel=1e-4)
    # The allocation differs across classes (it is not a volume split).
    assert abs(out[0] - out[1]) > 10.0


def test_beats_shared_f_allocation_on_mixed_objective():
    """The class-aware optimum scores at least as well as allocating
    with the (wrong) shared-f water-filling."""
    functions = [F_STEEP, F_B, F_STEEP, F_B]
    bounds = [400.0, 400.0, 300.0, 300.0]
    dls = [0.5, 0.5, 1.0, 1.0]
    cap = 500.0
    mixed = quality_opt_mixed(functions, bounds, dls, 0.0, cap)
    blind = quality_opt(bounds, dls, 0.0, cap)

    def score(x):
        return sum(float(f(v)) for f, v in zip(functions, x))

    assert score(mixed) >= score(blind) - 1e-6


def test_matches_brute_force_two_jobs():
    functions = [F_STEEP, F_B]
    bounds = [300.0, 300.0]
    dls = [0.4, 1.0]
    cap = 500.0
    out = quality_opt_mixed(functions, bounds, dls, 0.0, cap)
    val = sum(float(f(v)) for f, v in zip(functions, out))
    best = -1.0
    for x0 in np.linspace(0, 300, 61):
        for x1 in np.linspace(0, 300, 61):
            if x0 <= cap * 0.4 + 1e-9 and x0 + x1 <= cap * 1.0 + 1e-9:
                best = max(best, float(F_STEEP(x0)) + float(F_B(x1)))
    assert val >= best - 1e-3


def test_prefix_feasibility_always_holds():
    functions = [F_A, F_B, F_STEEP]
    bounds = [400.0, 350.0, 250.0]
    dls = [0.2, 0.5, 0.8]
    cap = 700.0
    out = quality_opt_mixed(functions, bounds, dls, 0.0, cap)
    assert prefix_feasible(out, cap * np.asarray(dls), rel_tol=1e-6)
    assert np.all(out <= np.asarray(bounds) + 1e-9)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        quality_opt_mixed([F_A], [1.0, 2.0], [1.0, 2.0], 0.0, 10.0)
    with pytest.raises(ValueError):
        quality_opt_mixed([F_A], [-1.0], [1.0], 0.0, 10.0)
    with pytest.raises(ValueError):
        quality_opt_mixed([F_A, F_B], [1.0, 1.0], [2.0, 1.0], 0.0, 10.0)


@settings(max_examples=30, deadline=None)
@given(
    bounds=st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=5),
    gaps=st.lists(st.floats(min_value=0.05, max_value=0.5), min_size=5, max_size=5),
    capacity=st.floats(min_value=0.0, max_value=1500.0),
    pattern=st.integers(min_value=0, max_value=31),
)
def test_property_feasible_and_bounded(bounds, gaps, capacity, pattern):
    n = len(bounds)
    dls = list(np.cumsum(gaps[:n]))
    functions = [F_A if (pattern >> i) & 1 else F_B for i in range(n)]
    out = quality_opt_mixed(functions, bounds, dls, 0.0, capacity)
    assert np.all(out >= -1e-9)
    assert np.all(out <= np.asarray(bounds) + 1e-9)
    assert prefix_feasible(out, capacity * np.asarray(dls), rel_tol=1e-6)
