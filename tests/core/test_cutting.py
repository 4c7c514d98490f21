"""Tests for Longest-First job cutting."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutting import WaterlineMemo, lf_cut_stepwise, lf_cut_waterline
from repro.quality.aggregate import quality_ratio
from repro.quality.functions import (
    ExponentialQuality,
    LinearQuality,
    LogQuality,
    PowerQuality,
    QualityFunction,
)
from repro.units import Dimensionless, QualityFrac, VolumeArray, VolumeSeq

F = ExponentialQuality(c=0.003, x_max=1000.0)


def batch_quality(targets, demands, base_a=0.0, base_p=0.0):
    a = base_a + float(np.sum(F(np.asarray(targets))))
    p = base_p + float(np.sum(F(np.asarray(demands))))
    return a / p


CUTTERS = [lf_cut_waterline, lf_cut_stepwise]


@pytest.mark.parametrize("cut", CUTTERS, ids=["waterline", "stepwise"])
class TestCutContract:
    def test_hits_target_quality(self, cut):
        demands = [900.0, 620.0, 380.0, 180.0]
        targets = cut(F, demands, 0.9)
        assert batch_quality(targets, demands) == pytest.approx(0.9, abs=1e-3)

    def test_never_exceeds_demand(self, cut):
        demands = [900.0, 620.0, 380.0, 180.0]
        targets = cut(F, demands, 0.85)
        assert np.all(targets <= np.asarray(demands) + 1e-9)
        assert np.all(targets >= 0.0)

    def test_longest_cut_first(self, cut):
        """Shorter jobs keep their full demand while longer ones are cut."""
        demands = np.array([1000.0, 100.0])
        targets = cut(F, demands, 0.95)
        assert targets[1] == pytest.approx(100.0)
        assert targets[0] < 1000.0

    def test_cut_jobs_share_a_level(self, cut):
        demands = np.array([1000.0, 900.0, 800.0, 50.0])
        targets = cut(F, demands, 0.8)
        cut_mask = targets < demands - 1e-6
        levels = targets[cut_mask]
        assert levels.size >= 2
        assert np.allclose(levels, levels[0], atol=1e-2)

    def test_target_one_means_no_cut(self, cut):
        demands = [500.0, 300.0]
        targets = cut(F, demands, 1.0)
        assert targets == pytest.approx(demands)

    def test_empty_batch(self, cut):
        assert cut(F, [], 0.9).size == 0

    def test_preserves_input_order(self, cut):
        demands = [100.0, 1000.0, 500.0]
        targets = cut(F, demands, 0.9)
        # Job 0 is shortest: never cut below longer jobs' level.
        assert targets[0] == pytest.approx(100.0)
        assert targets[1] <= 1000.0

    def test_invalid_inputs(self, cut):
        with pytest.raises(ValueError):
            cut(F, [0.0], 0.9)
        with pytest.raises(ValueError):
            cut(F, [10.0], 0.0)
        with pytest.raises(ValueError):
            cut(F, [10.0], 1.5)
        nan, inf = float("nan"), float("inf")
        for demands in ([nan, 100.0], [100.0, nan], [100.0, inf], [-inf, 100.0], [-5.0]):
            with pytest.raises(ValueError, match="demands"):
                cut(F, demands, 0.9)
        for history in ({"base_achieved": nan}, {"base_potential": nan},
                        {"base_achieved": inf, "base_potential": inf},
                        {"base_potential": -inf}):
            with pytest.raises(ValueError, match="history"):
                cut(F, [100.0, 300.0], 0.9, **history)
        with pytest.raises(ValueError, match="q_target"):
            cut(F, [100.0, 300.0], nan)

    def test_underwater_history_disables_cutting(self, cut):
        """If history already sank the quality below target, the cut
        returns full demands (BQ handles the rest)."""
        demands = [500.0, 500.0]
        base_p = 100 * float(F(500.0))
        base_a = 0.5 * base_p  # history quality 0.5 << 0.9
        targets = cut(F, demands, 0.9, base_achieved=base_a, base_potential=base_p)
        assert targets == pytest.approx(demands)

    def test_surplus_history_cuts_deeper(self, cut):
        demands = [500.0, 500.0]
        plain = cut(F, demands, 0.9)
        base_p = 100 * float(F(500.0))
        subsidized = cut(F, demands, 0.9, base_achieved=base_p, base_potential=base_p)
        assert float(np.sum(subsidized)) < float(np.sum(plain))


def test_waterline_and_stepwise_agree():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = rng.integers(1, 12)
        demands = rng.uniform(50.0, 1000.0, n)
        q = rng.uniform(0.5, 0.99)
        a = lf_cut_waterline(F, demands, q)
        b = lf_cut_stepwise(F, demands, q)
        assert np.allclose(a, b, atol=0.5), (demands, q, a, b)


def test_linear_quality_cut_is_proportionalish():
    """With linear f the cut still hits the target exactly."""
    f = LinearQuality(x_max=1000.0)
    demands = [1000.0, 500.0]
    targets = lf_cut_waterline(f, demands, 0.8)
    achieved = (targets[0] + targets[1]) / (1000.0 + 500.0)
    assert achieved == pytest.approx(0.8, abs=1e-3)


def test_concavity_saves_work():
    """At Q=0.9 the concave cut removes much more than 10% of volume —
    the whole premise of the paper."""
    demands = np.full(20, 800.0)
    targets = lf_cut_waterline(F, demands, 0.9)
    volume_kept = float(np.sum(targets)) / float(np.sum(demands))
    assert volume_kept < 0.75


@settings(max_examples=80, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=25),
    q=st.floats(min_value=0.05, max_value=0.999),
)
def test_property_quality_hits_target(demands, q):
    targets = lf_cut_waterline(F, demands, q)
    achieved = batch_quality(targets, demands)
    assert achieved == pytest.approx(q, abs=5e-3) or achieved >= q


@settings(max_examples=50, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=2, max_size=15),
    q=st.floats(min_value=0.3, max_value=0.99),
)
def test_property_monotone_in_demand_order(demands, q):
    """Longer jobs never end up with smaller targets than shorter ones
    get cut to — the LF (longest-first) property."""
    targets = lf_cut_waterline(F, demands, q)
    order = np.argsort(demands)
    sorted_targets = np.asarray(targets)[order]
    assert np.all(np.diff(sorted_targets) >= -1e-6)


# ---------------------------------------------------------------------------
# S1: the waterline cut must land on the *feasible* side of the target —
# returned targets never leave aggregate quality below q_target when
# cutting actually happened.
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=20),
    q=st.floats(min_value=0.05, max_value=0.999),
)
def test_property_waterline_feasible_side(demands, q):
    targets = lf_cut_waterline(F, demands, q)
    full_q = batch_quality(demands, demands)
    if full_q <= q:
        # Cannot afford cutting: targets must be the full demands.
        assert np.asarray(targets).tolist() == [float(d) for d in demands]
    else:
        assert batch_quality(targets, demands) >= q - 1e-9


@settings(max_examples=80, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=12),
    q=st.floats(min_value=0.3, max_value=0.99),
    base_a=st.floats(min_value=0.0, max_value=50.0),
    base_extra=st.floats(min_value=0.0, max_value=30.0),
)
def test_property_waterline_feasible_side_with_history(demands, q, base_a, base_extra):
    """The guarantee holds on top of monitor history (base terms)."""
    base_p = base_a + base_extra  # potential >= achieved, as the monitor keeps it
    targets = lf_cut_waterline(
        F, demands, q, base_achieved=base_a, base_potential=base_p
    )
    full_q = batch_quality(demands, demands, base_a=base_a, base_p=base_p)
    if full_q > q:
        assert batch_quality(targets, demands, base_a=base_a, base_p=base_p) >= q - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=2, max_size=12),
    q=st.floats(min_value=0.3, max_value=0.99),
)
def test_property_waterline_vs_stepwise_agree(demands, q):
    """Regression vs the paper-literal procedure: same quality outcome
    and near-identical targets."""
    wl = lf_cut_waterline(F, demands, q)
    sw = lf_cut_stepwise(F, demands, q)
    assert batch_quality(wl, demands) == pytest.approx(
        batch_quality(sw, demands), abs=5e-3
    )
    assert np.allclose(wl, sw, atol=1e-2 * max(demands))


# ---------------------------------------------------------------------------
# S3: the _batch_quality empty/zero-potential convention, pinned.
# ---------------------------------------------------------------------------


class TestBatchQualityConvention:
    def test_empty_batch_zero_history_is_vacuous_one(self):
        from repro.core.cutting import _batch_quality
        from repro.quality.aggregate import quality_ratio

        empty = np.zeros(0)
        assert quality_ratio(0.0, 0.0) == 1.0
        assert _batch_quality(F, empty, empty, 0.0, 0.0) == 1.0

    def test_empty_batch_with_history_is_the_history_ratio(self):
        from repro.core.cutting import _batch_quality
        from repro.quality.aggregate import quality_ratio

        empty = np.zeros(0)
        assert _batch_quality(F, empty, empty, 3.0, 4.0) == quality_ratio(3.0, 4.0)
        assert _batch_quality(F, empty, empty, 3.0, 4.0) == pytest.approx(0.75)

    def test_matches_quality_ratio_on_real_batches(self):
        from repro.core.cutting import _batch_quality
        from repro.quality.aggregate import quality_ratio

        demands = np.array([500.0, 200.0])
        targets = np.array([300.0, 200.0])
        expected = quality_ratio(
            1.0 + float(np.sum(F(targets))), 2.0 + float(np.sum(F(demands)))
        )
        assert _batch_quality(F, targets, demands, 1.0, 2.0) == expected


# ---------------------------------------------------------------------------
# WaterlineMemo: the cross-round cache must be a pure, mutation-safe
# single-entry memo whose key covers every input that can change the cut.
# ---------------------------------------------------------------------------


class TestWaterlineMemo:
    def _cut(self, memo, demands, q=0.9, base_a=0.0, base_p=0.0):
        from repro.core.cutting import lf_cut_waterline

        return lf_cut_waterline(
            F, demands, q, base_achieved=base_a, base_potential=base_p, memo=memo
        )

    def test_hit_returns_equal_result_and_counts(self):
        from repro.core.cutting import WaterlineMemo

        memo = WaterlineMemo()
        demands = np.array([900.0, 620.0, 380.0])
        first = self._cut(memo, demands)
        assert (memo.hits, memo.misses) == (0, 1)
        second = self._cut(memo, demands)
        assert (memo.hits, memo.misses) == (1, 1)
        assert first.tolist() == second.tolist()

    def test_cached_result_is_mutation_safe(self):
        from repro.core.cutting import WaterlineMemo

        memo = WaterlineMemo()
        demands = np.array([900.0, 620.0, 380.0])
        first = self._cut(memo, demands)
        pristine = first.tolist()
        first[:] = -1.0  # caller trashes its copy
        second = self._cut(memo, demands)
        assert second.tolist() == pristine

    def test_any_key_component_change_misses(self):
        from repro.core.cutting import WaterlineMemo

        memo = WaterlineMemo()
        demands = np.array([900.0, 620.0, 380.0])
        self._cut(memo, demands)
        self._cut(memo, np.array([900.0, 620.0, 381.0]))  # demands changed
        assert memo.hits == 0
        self._cut(memo, np.array([900.0, 620.0, 381.0]), q=0.8)  # target changed
        assert memo.hits == 0
        self._cut(memo, np.array([900.0, 620.0, 381.0]), q=0.8, base_a=1.0, base_p=2.0)
        assert memo.hits == 0  # history changed
        self._cut(memo, np.array([900.0, 620.0, 381.0]), q=0.8, base_a=1.0, base_p=2.0)
        assert memo.hits == 1
        assert memo.misses == 4

    def test_memoized_equals_unmemoized(self):
        from repro.core.cutting import WaterlineMemo

        rng = np.random.default_rng(11)
        memo = WaterlineMemo()
        for _ in range(30):
            demands = rng.uniform(1.0, 1000.0, int(rng.integers(1, 10)))
            q = float(rng.uniform(0.3, 0.99))
            plain = lf_cut_waterline(F, demands, q)
            memod = self._cut(memo, demands, q=q)
            memod2 = self._cut(memo, demands, q=q)  # hit path
            assert plain.tolist() == memod.tolist() == memod2.tolist()


# ---------------------------------------------------------------------------
# Bitwise oracle: the NumPy formulation of the waterline cut, kept verbatim
# from before the scalar rewrite.  The scalar cut must return the same bytes.
# ---------------------------------------------------------------------------


def _lf_cut_waterline_ref(
    f: QualityFunction,
    demands: VolumeSeq,
    q_target: QualityFrac,
    *,
    base_achieved: Dimensionless = 0.0,
    base_potential: Dimensionless = 0.0,
    tol: Dimensionless = 1e-6,
    max_iter: int = 60,
    memo: Optional[WaterlineMemo] = None,
) -> VolumeArray:
    """LF cut as a waterline: targets are ``min(p_j, L)``.

    Finds the smallest level ``L`` such that the aggregate quality of
    the batch (on top of the monitor history) is at least ``q_target``.
    The aggregate quality is non-decreasing in ``L``, so binary search
    applies.  Returns per-job target volumes in the input order.

    If even full processing cannot reach the target (the history is too
    far underwater), no cutting is performed (targets = demands); the
    mode controller will be in BQ mode in that situation anyway.

    Feasibility guarantee: whenever cutting happens (full processing
    would exceed the target), the returned targets satisfy
    ``_batch_quality(f, targets, demands, ...) >= q_target`` — the
    binary search keeps ``hi`` on the feasible side of the bracket at
    every step, so the returned level is never the infeasible ``lo``.

    ``memo`` optionally caches the last result across rounds; see
    :class:`WaterlineMemo`.
    """
    demands_arr = np.asarray(demands, dtype=float)
    if demands_arr.size == 0:
        return demands_arr.copy()
    if np.any(demands_arr <= 0):
        raise ValueError("demands must be positive")
    if not 0.0 < q_target <= 1.0:
        raise ValueError(f"q_target must be in (0, 1], got {q_target!r}")

    key: Optional[Tuple[bytes, float, float, float]] = None
    if memo is not None:
        key = (demands_arr.tobytes(), q_target, base_achieved, base_potential)
        cached = memo.get(key)
        if cached is not None:
            return cached

    top = float(np.max(demands_arr))
    # Evaluate f over the demand vector once; every bisection step below
    # reuses these per-job values instead of recomputing the whole batch.
    f_demands = np.asarray(f(demands_arr), dtype=float)
    sum_f_demands = float(np.sum(f_demands))
    potential = base_potential + sum_f_demands
    full_q = quality_ratio(base_achieved + sum_f_demands, potential)
    if full_q <= q_target:
        targets = demands_arr.copy()  # cannot afford any cutting
        if memo is not None and key is not None:
            memo.put(key, targets)
        return targets
    zero_q = quality_ratio(
        base_achieved + float(np.sum(f(np.zeros_like(demands_arr)))), potential
    )
    if zero_q >= q_target:
        targets = np.zeros_like(demands_arr)  # history surplus covers the batch
        if memo is not None and key is not None:
            memo.put(key, targets)
        return targets

    lo, hi = 0.0, top
    q_hi = full_q  # quality at the feasible (hi) end of the bracket
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        # min(d_j, mid) maps each job to either its own f(d_j) — already
        # in f_demands — or to f(mid); the shape-preserving select keeps
        # the summation order identical to evaluating f on the clipped
        # vector, so the search trajectory is bit-for-bit unchanged.
        f_mid = float(f(np.float64(mid)))
        achieved = base_achieved + float(
            np.sum(np.where(demands_arr <= mid, f_demands, f_mid))
        )
        q = quality_ratio(achieved, potential)
        if q < q_target:
            lo = mid
        else:
            hi = mid
            q_hi = q
        if hi - lo <= tol * max(1.0, top):
            break
    if q_hi < q_target:  # pragma: no cover - the invariant above forbids this
        hi, q_hi = top, full_q  # defensive: fall back to the known-feasible end
    targets = np.minimum(demands_arr, hi)
    if memo is not None and key is not None:
        memo.put(key, targets)
    return targets


FAMILIES = [
    ExponentialQuality(c=0.003, x_max=1000.0),
    ExponentialQuality(c=0.01, x_max=1000.0),
    ExponentialQuality(c=0.003, x_max=300.0),  # demands above x_max clamp
    LogQuality(),
    PowerQuality(0.37),
    LinearQuality(x_max=1000.0),
]
FAMILY_IDS = ["exp", "exp-c0.01", "exp-xmax300", "log", "power", "linear"]


def _first_midpoint_quality(f, demands, base_achieved=0.0, base_potential=0.0):
    """The aggregate quality the oracle computes at its first midpoint.

    Used as ``q_target``, it puts a tie on the oracle's first comparison,
    so an error of one ulp in the sum or in ``f(mid)`` turns the search.
    """
    d = np.asarray(demands, dtype=float)
    f_d = np.asarray(f(d), dtype=float)
    mid = 0.5 * (0.0 + float(np.max(d)))
    f_mid = float(f(np.float64(mid)))
    achieved = base_achieved + float(np.sum(np.where(d <= mid, f_d, f_mid)))
    return quality_ratio(achieved, base_potential + float(np.sum(f_d)))


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("f", FAMILIES, ids=FAMILY_IDS)
    def test_seeded_batches_bitwise_equal(self, f):
        """Every length from 1 to 64 and a few past 128 (where ``_sum``
        halves recursively), each with and without history, with and
        without duplicate demands, as a list and as an ndarray; the
        target is drawn at random, or ties the oracle's first step."""
        rng = np.random.default_rng(14)
        outcomes = {"full": 0, "zero": 0, "cut": 0}
        for n in [*range(1, 65), 129, 136, 200, 257, 300]:
            for duplicates in (False, True):
                demands = rng.uniform(1.0, 1000.0, n)
                if duplicates:
                    demands = rng.choice(demands[: max(1, n // 3)], n)
                    demands[-1] = 0.5 * float(np.max(demands))  # a job at the first midpoint
                q = float(rng.uniform(0.3, 0.999))
                potential = float(rng.uniform(0.0, 3.0 * n))
                history = {
                    "base_achieved": potential * float(rng.uniform(0.8, 1.0)),
                    "base_potential": potential,
                }
                for kw in ({}, history):
                    for batch in (demands, demands.tolist()):
                        got = lf_cut_waterline(f, batch, q, **kw)
                        ref = _lf_cut_waterline_ref(f, batch, q, **kw)
                        assert got.tobytes() == ref.tobytes(), (n, q, kw)
                    if got.tolist() == demands.tolist():
                        outcomes["full"] += 1
                    elif not got.any():
                        outcomes["zero"] += 1
                    else:
                        outcomes["cut"] += 1
                    tie = _first_midpoint_quality(f, demands, **kw)
                    for q_tie in (tie, float(np.nextafter(tie, 2.0))):
                        if 0.0 < q_tie <= 1.0:
                            got = lf_cut_waterline(f, demands, q_tie, **kw)
                            ref = _lf_cut_waterline_ref(f, demands, q_tie, **kw)
                            assert got.tobytes() == ref.tobytes(), (n, q_tie, kw)
        assert outcomes["cut"] > 100
        assert outcomes["full"] > 0 and outcomes["zero"] > 0, outcomes

    @pytest.mark.parametrize("f", FAMILIES, ids=FAMILY_IDS)
    def test_single_job_ties_bitwise_equal(self, f):
        """One-job batches whose target ties the oracle's first step: the
        quality there is f(top/2)/f(top), so an error of one ulp in f at
        the midpoint turns the search."""
        rng = np.random.default_rng(41)
        for top in rng.uniform(1.0, 1000.0, 400).tolist():
            tie = _first_midpoint_quality(f, [top])
            for q in (tie, float(np.nextafter(tie, 2.0))):
                if q <= 1.0:
                    got = lf_cut_waterline(f, [top], q)
                    ref = _lf_cut_waterline_ref(f, [top], q)
                    assert got.tobytes() == ref.tobytes(), (top, q)

    def test_whole_run_replay_bitwise(self, monkeypatch):
        """Every LF cut of a real GE run at 100/s (scale 0.01) matches
        the oracle bit for bit: real demands, history terms and memo."""
        import repro.core.ge as ge
        from repro.core.ge import make_ge
        from repro.experiments.runner import scaled_config
        from repro.server.harness import SimulationHarness

        calls, mismatches = [], []

        def checked(f, demands, q_target, **kw):
            got = lf_cut_waterline(f, demands, q_target, **kw)
            kw.pop("memo", None)
            ref = _lf_cut_waterline_ref(f, demands, q_target, **kw)
            if got.tobytes() != ref.tobytes():
                mismatches.append((list(demands), q_target, kw))
            calls.append(got.tolist() != list(demands))
            return got

        monkeypatch.setattr(ge, "lf_cut_waterline", checked)
        config = scaled_config(0.01, 1, arrival_rate=100.0)
        SimulationHarness(config, make_ge()).run()
        assert mismatches == []
        assert len(calls) > 200
        assert sum(calls) > len(calls) // 2  # most calls cut the batch

    @pytest.mark.parametrize(
        "f", [FAMILIES[0], FAMILIES[3], FAMILIES[4], FAMILIES[5]],
        ids=["exp", "log", "power", "linear"],
    )
    def test_float64_call_keeps_array_numerics(self, f):
        """The oracle also calls ``f(np.float64(mid))``, so it cannot catch
        a wrong ``np.float64`` branch in ``QualityFunction.__call__``: pin
        it to the array path's result for a 0-d input."""
        rng = np.random.default_rng(3)
        xs = [0.0, f.x_max, *rng.uniform(0.0, 1.2 * f.x_max, 2000).tolist()]
        for x in xs:
            got = f(np.float64(x))
            assert type(got) is float
            assert got == f(np.array(x))  # the 0-d array path
            if not isinstance(f, PowerQuality):
                # NumPy's scalar ``**`` takes libm's pow, which differs
                # from the vectorized loop in the last bit on some inputs.
                assert got == float(f(np.array([x]))[0])
        with pytest.raises(ValueError, match="non-negative"):
            f(np.float64(-1.0))
