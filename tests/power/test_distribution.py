"""Tests for ES / WF power distribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InfeasibleError
from repro.power.distribution import EqualSharing, WaterFilling, water_fill


class TestWaterFill:
    def test_all_demands_met_when_budget_suffices(self):
        demands = np.array([5.0, 10.0, 3.0])
        alloc = water_fill(demands, 100.0)
        assert alloc == pytest.approx(demands)

    def test_budget_exhausted_when_scarce(self):
        demands = np.array([5.0, 50.0, 50.0])
        alloc = water_fill(demands, 45.0)
        assert float(np.sum(alloc)) == pytest.approx(45.0)

    def test_low_demands_satisfied_first(self):
        """§III-D: 'satisfying the low demand first'."""
        demands = np.array([2.0, 100.0, 3.0])
        alloc = water_fill(demands, 25.0)
        assert alloc[0] == pytest.approx(2.0)
        assert alloc[2] == pytest.approx(3.0)
        assert alloc[1] == pytest.approx(20.0)

    def test_equal_demands_share_equally(self):
        alloc = water_fill(np.array([50.0, 50.0, 50.0]), 90.0)
        assert alloc == pytest.approx([30.0, 30.0, 30.0])

    def test_water_level_property(self):
        """Capped entries share a common level above every met demand."""
        demands = np.array([1.0, 9.0, 20.0, 30.0])
        alloc = water_fill(demands, 30.0)
        capped = alloc < demands - 1e-9
        levels = alloc[capped]
        assert np.allclose(levels, levels[0])
        assert np.all(alloc[~capped] <= levels[0] + 1e-9)

    def test_zero_budget(self):
        alloc = water_fill(np.array([5.0, 10.0]), 0.0)
        assert alloc == pytest.approx([0.0, 0.0])

    def test_empty_demands(self):
        assert water_fill(np.array([]), 10.0).size == 0

    def test_negative_budget_raises(self):
        with pytest.raises(InfeasibleError):
            water_fill(np.array([1.0]), -1.0)

    def test_negative_demand_raises(self):
        with pytest.raises(ValueError):
            water_fill(np.array([-1.0]), 1.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=32),
        st.floats(min_value=0.0, max_value=500.0),
    )
    def test_invariants(self, demands, budget):
        demands_arr = np.asarray(demands)
        alloc = water_fill(demands_arr, budget)
        assert np.all(alloc >= -1e-9)
        assert np.all(alloc <= demands_arr + 1e-9)
        total = float(np.sum(alloc))
        assert total <= budget + 1e-6
        # Either every demand is met or the budget is exhausted.
        if not np.allclose(alloc, demands_arr):
            assert total == pytest.approx(budget, abs=1e-6)


class TestPolicies:
    def test_equal_sharing_ignores_demands(self):
        es = EqualSharing()
        decision = es.distribute(np.array([100.0, 0.0, 3.0, 7.0]), 80.0)
        assert decision.caps == pytest.approx([20.0] * 4)
        assert decision.policy == "ES"

    def test_equal_sharing_empty(self):
        assert EqualSharing().distribute(np.array([]), 80.0).caps.size == 0

    def test_wf_grants_surplus(self):
        wf = WaterFilling()
        decision = wf.distribute(np.array([10.0, 10.0]), 100.0)
        assert float(np.sum(decision.caps)) == pytest.approx(100.0)
        assert decision.caps == pytest.approx([50.0, 50.0])

    def test_wf_without_surplus(self):
        # The bare allocator leaves the surplus that WF's policy grants.
        caps = water_fill(np.array([10.0, 10.0]), 100.0)
        assert caps == pytest.approx([10.0, 10.0])

    def test_wf_scarce_budget_matches_water_fill(self):
        demands = np.array([5.0, 50.0, 45.0])
        wf = WaterFilling()
        assert wf.distribute(demands, 45.0).caps == pytest.approx(
            water_fill(demands, 45.0)
        )


# ---------------------------------------------------------------------------
# S2: float-drift renormalization — the cap-sum invariant Σ caps ≤ budget
# must hold EXACTLY (not just within epsilon), because the runtime
# sanitizer's power_budget invariant audits Σ core power ≤ H every
# quantum and cumulative ulp drift previously tripped it.
# ---------------------------------------------------------------------------


class TestCapSumInvariant:
    def test_known_overshoot_case_is_renormalized(self):
        """Regression: this concrete vector makes the raw closed-form
        level overshoot the budget by ~3.4e-13; water_fill must charge
        the excess to the largest cap."""
        rng = np.random.default_rng(2698)
        n = int(rng.integers(2, 24))
        demands = rng.uniform(0.0, 80.0, n)
        budget = float(np.sum(demands)) * float(rng.uniform(0.3, 0.95))

        # Reproduce the raw (un-renormalized) closed-form level.
        order = np.argsort(demands, kind="stable")
        sorted_d = demands[order]
        prefix = np.cumsum(sorted_d)
        below = np.concatenate([[0.0], prefix[:-1]])
        lo_bounds = np.concatenate([[0.0], sorted_d[:-1]])
        candidates = (budget - below) / (n - np.arange(n))
        valid = (lo_bounds - 1e-12 <= candidates) & (candidates <= sorted_d + 1e-12)
        level = float(candidates[int(np.argmax(valid))])
        raw = np.minimum(demands, level)
        assert float(np.sum(raw)) > budget  # the drift this test pins

        caps = water_fill(demands, budget)
        assert float(np.sum(caps)) <= budget
        assert np.all(caps >= 0.0)
        assert np.all(caps <= demands + 1e-12)
        # Renormalization shifts one cap by a few ulps, nothing more.
        assert np.max(np.abs(caps - raw)) < 1e-9

    @given(
        demands=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=32
        ),
        frac=st.floats(min_value=0.05, max_value=1.5),
    )
    def test_property_water_fill_never_exceeds_budget(self, demands, frac):
        demands = np.asarray(demands)
        budget = float(np.sum(demands)) * frac + 1e-9
        caps = water_fill(demands, budget)
        assert float(np.sum(caps)) <= budget
        assert np.all(caps >= 0.0)

    @given(
        demands=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=32
        ),
        frac=st.floats(min_value=0.05, max_value=1.5),
    )
    def test_property_wf_policy_never_exceeds_budget(self, demands, frac):
        """The surplus-granting WF policy branch must uphold the same
        exact invariant after spreading headroom."""
        demands = np.asarray(demands)
        budget = float(np.sum(demands)) * frac + 1e-9
        decision = WaterFilling().distribute(demands, budget)
        assert float(np.sum(decision.caps)) <= budget


class TestDecisionCaches:
    """ES memoizes its last decision: repeats must return the very same
    object and any input change must rebuild it.  WF recomputes every
    call, and a reused instance must agree with a fresh one."""

    def test_es_cache_ignores_demand_values(self):
        es = EqualSharing()
        first = es.distribute(np.array([1.0, 2.0]), 40.0)
        second = es.distribute(np.array([30.0, 7.0]), 40.0)  # values differ
        assert second is first  # ES only reads the count
        third = es.distribute(np.array([1.0, 2.0, 3.0]), 40.0)
        assert third is not first
        fourth = es.distribute(np.array([1.0, 2.0, 3.0]), 50.0)
        assert fourth is not third

    def test_cached_decision_matches_fresh_policy(self):
        rng = np.random.default_rng(3)
        wf_reused = WaterFilling()
        for _ in range(20):
            d = rng.uniform(0.0, 100.0, 8)
            budget = float(rng.uniform(50.0, 500.0))
            a = wf_reused.distribute(d, budget)
            fresh = WaterFilling().distribute(d, budget)
            assert a.caps.tolist() == fresh.caps.tolist()

    def test_needs_demands_flags(self):
        assert EqualSharing.needs_demands is False
        assert WaterFilling.needs_demands is True
