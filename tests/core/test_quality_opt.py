"""Tests for Quality-OPT (partial processing under capacity limits)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality_opt import _sum, prefix_feasible, quality_opt
from repro.errors import InfeasibleError
from repro.quality.functions import ExponentialQuality

F = ExponentialQuality(c=0.003, x_max=1000.0)


def brute_force(bounds, deadlines, now, capacity, offsets=None, grid=12):
    """Grid-search reference optimum of Σ f(offset + x)."""
    n = len(bounds)
    offsets = offsets or [0.0] * n
    capacities = [capacity * (d - now) for d in deadlines]
    best_val, best_x = -1.0, None
    axes = [np.linspace(0.0, b, grid) for b in bounds]
    for xs in itertools.product(*axes):
        if not prefix_feasible(np.asarray(xs), np.asarray(capacities)):
            continue
        val = sum(float(F(o + x)) for o, x in zip(offsets, xs))
        if val > best_val:
            best_val, best_x = val, xs
    return best_val, best_x


class TestQualityOpt:
    def test_plenty_of_capacity_grants_everything(self):
        out = quality_opt([100.0, 200.0], [10.0, 20.0], 0.0, 1000.0)
        assert out == pytest.approx([100.0, 200.0])

    def test_zero_capacity_grants_nothing(self):
        out = quality_opt([100.0, 200.0], [1.0, 2.0], 0.0, 0.0)
        assert out == pytest.approx([0.0, 0.0])

    def test_empty_input(self):
        assert quality_opt([], [], 0.0, 100.0).size == 0

    def test_equalizes_volumes_under_shared_deadline(self):
        """With one shared deadline and concave f, the optimum levels
        total volumes (water-filling)."""
        out = quality_opt([300.0, 300.0, 50.0], [1.0, 1.0, 1.0], 0.0, 250.0)
        # 250 units to split; job 2 takes its full 50, jobs 0/1 get 100 each.
        assert out[2] == pytest.approx(50.0)
        assert out[0] == pytest.approx(100.0)
        assert out[1] == pytest.approx(100.0)

    def test_offsets_shift_the_waterline(self):
        """A job with prior progress receives less extra volume."""
        out = quality_opt(
            [300.0, 300.0], [1.0, 1.0], 0.0, 200.0, offsets=[100.0, 0.0]
        )
        # Levels total volumes: job0 at 100+50=150, job1 at 150.
        assert out[0] == pytest.approx(50.0)
        assert out[1] == pytest.approx(150.0)

    def test_binding_prefix_limits_early_jobs(self):
        """An early tight deadline caps the first job independently."""
        out = quality_opt([500.0, 500.0], [0.1, 10.0], 0.0, 1000.0)
        assert out[0] == pytest.approx(100.0)  # 1000 u/s · 0.1 s
        assert out[1] == pytest.approx(500.0)

    def test_unused_early_capacity_flows_to_later_jobs(self):
        out = quality_opt([10.0, 500.0], [1.0, 1.0], 0.0, 300.0)
        assert out == pytest.approx([10.0, 290.0])

    def test_result_is_prefix_feasible(self):
        bounds = [400.0, 300.0, 200.0, 100.0]
        dls = [0.2, 0.5, 0.6, 1.0]
        out = quality_opt(bounds, dls, 0.0, 800.0)
        capacities = 800.0 * (np.array(dls) - 0.0)
        assert prefix_feasible(out, capacities)
        assert np.all(out <= np.array(bounds) + 1e-9)

    def test_matches_brute_force_two_jobs(self):
        bounds = [300.0, 200.0]
        dls = [0.4, 1.0]
        out = quality_opt(bounds, dls, 0.0, 400.0, offsets=[0.0, 50.0])
        val = sum(float(F(o + x)) for o, x in zip([0.0, 50.0], out))
        ref, _ = brute_force(bounds, dls, 0.0, 400.0, offsets=[0.0, 50.0], grid=60)
        assert val >= ref - 1e-3

    def test_matches_brute_force_three_jobs(self):
        bounds = [250.0, 150.0, 350.0]
        dls = [0.3, 0.6, 0.9]
        out = quality_opt(bounds, dls, 0.0, 600.0)
        val = sum(float(F(x)) for x in out)
        ref, _ = brute_force(bounds, dls, 0.0, 600.0, grid=25)
        assert val >= ref - 1e-3

    def test_negative_capacity_raises(self):
        with pytest.raises(InfeasibleError):
            quality_opt([10.0], [1.0], 0.0, -5.0)

    def test_past_deadline_raises(self):
        with pytest.raises(InfeasibleError):
            quality_opt([10.0], [1.0], 2.0, 100.0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            quality_opt([10.0, 20.0], [1.0], 0.0, 100.0)
        with pytest.raises(ValueError):
            quality_opt([-1.0], [1.0], 0.0, 100.0)
        with pytest.raises(ValueError):
            quality_opt([1.0, 1.0], [2.0, 1.0], 0.0, 100.0)

    @pytest.mark.parametrize(
        "args, error",
        [
            (([math.nan], [1.0], 0.0, 2.0), ValueError),
            (([5.0, math.nan], [1.0, 2.0], 0.0, 3.0), ValueError),
            (([5.0, 5.0], [math.nan, 2.0], 0.0, 3.0), ValueError),
            (([5.0], [math.nan], 0.0, 2.0), InfeasibleError),
            (([5.0, 5.0], [1.0, 2.0], 0.0, math.nan), InfeasibleError),
            (([5.0, 5.0], [1.0, 2.0], math.nan, 3.0), InfeasibleError),
        ],
        ids=[
            "nan-bound-single",
            "nan-bound-pair",
            "nan-deadline-pair",
            "nan-deadline-single",
            "nan-capacity",
            "nan-now",
        ],
    )
    def test_nan_inputs_raise_typed_errors(self, args, error):
        """NaN fails every ``not (x >= 0)`` check instead of leaking into
        the grant or silently dropping every job."""
        with pytest.raises(error):
            quality_opt(*args)

    def test_nan_offset_rejected(self):
        with pytest.raises(ValueError, match="offsets"):
            quality_opt([5.0, 5.0], [1.0, 2.0], 0.0, 3.0, offsets=[0.0, math.nan])

    @settings(max_examples=60, deadline=None)
    @given(
        bounds=st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=6),
        gaps=st.lists(st.floats(min_value=0.05, max_value=0.5), min_size=6, max_size=6),
        capacity=st.floats(min_value=0.0, max_value=2000.0),
    )
    def test_property_feasible_and_bounded(self, bounds, gaps, capacity):
        dls = list(np.cumsum(gaps[: len(bounds)]))
        out = quality_opt(bounds, dls, 0.0, capacity)
        assert np.all(out >= -1e-9)
        assert np.all(out <= np.asarray(bounds) + 1e-9)
        assert prefix_feasible(out, capacity * np.asarray(dls), rel_tol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        bounds=st.lists(st.floats(min_value=1.0, max_value=400.0), min_size=2, max_size=4),
        capacity=st.floats(min_value=50.0, max_value=1500.0),
    )
    def test_property_beats_proportional_truncation(self, bounds, capacity):
        """The optimum is at least as good as naively scaling everything
        to fit the total capacity (a natural but suboptimal scheme)."""
        n = len(bounds)
        dls = [1.0] * n
        out = quality_opt(bounds, dls, 0.0, capacity)
        opt_val = sum(float(F(x)) for x in out)
        total = sum(bounds)
        scale = min(1.0, capacity / total)
        naive = sum(float(F(b * scale)) for b in bounds)
        assert opt_val >= naive - 1e-6


# ---------------------------------------------------------------------------
# Optimality certificate.  It reads only the inputs and the grant, never a
# helper of quality_opt.py, so it checks the answer rather than the method.
# ---------------------------------------------------------------------------


def assert_certified(bounds, deadlines, now, capacity, offsets, x, rel=1e-9):
    """Assert that the grant ``x`` is optimal for every shared concave ``f``.

    These are the KKT conditions of the problem.  The grant is feasible
    (``0 <= x <= b``, every EDF prefix fits).  Cut at its tight prefixes,
    it splits into consecutive blocks.  Inside a block there is one water
    level ``w``: every job sits at 0 with ``o >= w``, at its bound with
    ``o + b <= w``, or at the level ``o + x = w``.  The levels do not
    decrease from block to block.  A last block that ends on no tight
    prefix has spare capacity, so it must grant every bound in full.
    Volumes compare within ``rel`` of the batch's largest volume.
    """
    n = len(bounds)
    offs = [0.0] * n if offsets is None else [float(o) for o in offsets]
    caps = [max(capacity * (d - now), 0.0) for d in deadlines]
    tol = rel * max([1.0] + [o + b for o, b in zip(offs, bounds)])
    tight = []
    total = 0.0
    for k in range(n):
        assert 0.0 <= x[k] <= bounds[k], f"job {k}: grant {x[k]} outside [0, {bounds[k]}]"
        total += x[k]
        cap_tol = rel * max(1.0, caps[k])
        assert total <= caps[k] + cap_tol, f"prefix {k} overflows: {total} > {caps[k]}"
        tight.append(total >= caps[k] - cap_tol)

    level = -math.inf
    start = 0
    while start < n:
        end = start
        while end < n - 1 and not tight[end]:
            end += 1
        if not tight[end]:
            assert all(x[i] >= bounds[i] - tol for i in range(start, n)), (
                f"jobs {start}..{n - 1} are cut although the last prefix has slack"
            )
        low, high = -math.inf, math.inf  # the levels the block can take
        for i in range(start, end + 1):
            if x[i] > tol:  # above 0, so w >= o + x
                low = max(low, offs[i] + x[i])
            if x[i] < bounds[i] - tol:  # below its bound, so w <= o + x
                high = min(high, offs[i] + x[i])
        level = max(level, low)  # the lowest level the block can take
        assert level <= high + tol, f"jobs {start}..{end}: no common level"
        start = end + 1


@st.composite
def _batches(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    volume = st.floats(min_value=0.0, max_value=400.0)
    bounds = draw(st.lists(st.just(0.0) | volume, min_size=n, max_size=n))
    # Zero gaps give duplicate deadlines, and a zero first gap a prefix
    # with no capacity at all.
    gaps = draw(st.lists(st.just(0.0) | st.floats(0.0, 0.5), min_size=n, max_size=n))
    now = draw(st.floats(min_value=0.0, max_value=5.0))
    capacity = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=2000.0))
    offsets = draw(st.none() | st.lists(st.floats(0.0, 300.0), min_size=n, max_size=n))
    deadlines = (now + np.cumsum(gaps)).tolist()
    return bounds, deadlines, now, capacity, offsets


class TestOptimalityCertificate:
    @settings(max_examples=300, deadline=None)
    @given(batch=_batches())
    def test_grant_is_certified_optimal(self, batch):
        bounds, deadlines, now, capacity, offsets = batch
        x = quality_opt(bounds, deadlines, now, capacity, offsets=offsets).tolist()
        assert_certified(bounds, deadlines, now, capacity, offsets, x)

    def test_certificate_rejects_suboptimal_grants(self):
        bounds, deadlines = [300.0, 300.0, 50.0], [1.0, 1.0, 1.0]
        # Proportional truncation: feasible and tight, but not level.
        with pytest.raises(AssertionError, match="no common level"):
            assert_certified(bounds, deadlines, 0.0, 250.0, None, [b * 250 / 650 for b in bounds])
        # Levelled, but 10 units of capacity left unused.
        with pytest.raises(AssertionError, match="slack"):
            assert_certified(bounds, deadlines, 0.0, 250.0, None, [95.0, 95.0, 50.0])
        # Over the capacity of the first deadline.
        with pytest.raises(AssertionError, match="overflows"):
            assert_certified([500.0, 500.0], [0.1, 10.0], 0.0, 1000.0, None, [150.0, 500.0])
        assert_certified(bounds, deadlines, 0.0, 250.0, None, [100.0, 100.0, 50.0])


# ---------------------------------------------------------------------------
# Bitwise equivalence of the list-based hot path against the original
# all-numpy formulation it replaced (see the comments in quality_opt.py:
# the rewrite must not change simulated results by even an ulp).
# ---------------------------------------------------------------------------

_EPS = 1e-12


def _waterline_ref(offsets, bounds, budget):
    """Verbatim copy of the pre-optimization `_waterline_for_budget`."""
    tops = offsets + bounds
    if float(np.sum(bounds)) <= budget + _EPS:
        return float("inf")
    points = np.unique(np.concatenate([offsets, tops]))

    def allocated(w):
        return float(np.sum(np.clip(w - offsets, 0.0, bounds)))

    lo = float(points[0])
    hi = float(points[-1])
    for p in points:
        if allocated(float(p)) >= budget - _EPS:
            hi = float(p)
            break
        lo = float(p)
    alloc_lo = allocated(lo)
    active = np.sum((offsets <= lo + _EPS) & (tops > lo + _EPS))
    if active <= 0:
        return hi
    return lo + (budget - alloc_lo) / float(active)


def _quality_opt_ref(bounds, deadlines, now, capacity_per_second, offsets=None):
    """Verbatim copy of the pre-optimization `quality_opt` main path."""
    bounds_arr = np.asarray(bounds, dtype=float)
    dls = np.asarray(deadlines, dtype=float)
    n = bounds_arr.size
    if n == 0:
        return np.zeros(0)
    offs = np.zeros(n) if offsets is None else np.asarray(offsets, dtype=float)
    capacities = capacity_per_second * (dls - now)
    capacities = np.maximum(capacities, 0.0)
    if n == 1:
        return np.array([min(bounds_arr[0], capacities[0])])
    result = np.zeros(n)
    start = 0
    consumed = 0.0
    while start < n:
        best_k = None
        best_w = float("inf")
        sub_off = offs[start:]
        sub_bnd = bounds_arr[start:]
        for k in range(n - start):
            budget = capacities[start + k] - consumed
            if budget <= _EPS:
                w = -float("inf") if np.any(sub_bnd[: k + 1] > _EPS) else float("inf")
                if w < best_w:
                    best_w = w
                    best_k = k
                continue
            w = _waterline_ref(sub_off[: k + 1], sub_bnd[: k + 1], budget)
            if w < best_w - _EPS:
                best_w = w
                best_k = k
        if best_k is None or best_w == float("inf"):
            result[start:] = bounds_arr[start:]
            break
        block = slice(start, start + best_k + 1)
        if best_w == -float("inf"):
            alloc = np.zeros(best_k + 1)
        else:
            alloc = np.clip(best_w - offs[block], 0.0, bounds_arr[block])
        result[block] = alloc
        consumed += float(np.sum(alloc))
        start = start + best_k + 1
    return result


class TestBitwiseAgainstReference:
    """The optimized quality_opt must match the original algorithm bit
    for bit on random batches covering every regime: every bound fitting,
    binding prefixes, zero-capacity prefixes, nonzero offsets, and
    duplicate deadlines."""

    def _random_case(self, rng, low=1, high=12):
        n = int(rng.integers(low, high))
        bounds = rng.uniform(0.0, 300.0, n)
        # Occasionally zero out bounds to exercise the positive-bound flag.
        bounds[rng.uniform(size=n) < 0.15] = 0.0
        gaps = rng.uniform(0.0, 2.0, n)
        # Duplicate-deadline clusters with probability ~1/3.
        gaps[rng.uniform(size=n) < 0.3] = 0.0
        now = float(rng.uniform(0.0, 5.0))
        deadlines = now + 1e-3 + np.cumsum(gaps)
        capacity = float(rng.uniform(0.0, 400.0))
        offsets = None
        if rng.uniform() < 0.5:
            offsets = rng.uniform(0.0, 150.0, n)
        return bounds, deadlines, now, capacity, offsets

    def test_random_batches_bitwise_equal(self):
        rng = np.random.default_rng(1234)
        for _ in range(400):
            bounds, dls, now, cap, offs = self._random_case(rng)
            got = quality_opt(bounds, dls, now, cap, offsets=offs)
            ref = _quality_opt_ref(bounds, dls, now, cap, offsets=offs)
            assert got.tolist() == ref.tolist()

    def test_large_batches_bitwise_equal(self):
        """8 to 64 jobs: past 7 elements ``np.sum`` leaves its
        left-to-right loop for eight pairwise accumulators."""
        rng = np.random.default_rng(4321)
        for _ in range(100):
            bounds, dls, now, cap, offs = self._random_case(rng, low=8, high=65)
            got = quality_opt(bounds, dls, now, cap, offsets=offs)
            ref = _quality_opt_ref(bounds, dls, now, cap, offsets=offs)
            assert got.tobytes() == ref.tobytes()

    def test_generous_capacity_hits_fast_path_bitwise(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            bounds = rng.uniform(0.1, 50.0, n)
            deadlines = 1.0 + np.cumsum(rng.uniform(0.1, 1.0, n))
            cap = float(np.sum(bounds)) * 10.0  # every prefix fits
            got = quality_opt(bounds, deadlines, 0.0, cap)
            ref = _quality_opt_ref(bounds, deadlines, 0.0, cap)
            assert got.tolist() == ref.tolist() == bounds.tolist()

    def test_list_and_array_inputs_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            bounds, dls, now, cap, offs = self._random_case(rng)
            from_arrays = quality_opt(bounds, dls, now, cap, offsets=offs)
            from_lists = quality_opt(
                bounds.tolist(),
                dls.tolist(),
                now,
                cap,
                offsets=None if offs is None else offs.tolist(),
            )
            assert from_arrays.tolist() == from_lists.tolist()

    def test_row_reduction_matches_per_point_scan(self):
        """The breakpoint allocations of a waterline solve agree bit for
        bit three ways: NumPy's row-wise 2-D ``np.sum(..., axis=1)``,
        the oracle's per-point 1-D scan, and ``_sum`` over each row."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 16))
            offsets = rng.uniform(0.0, 200.0, n)
            bounds = rng.uniform(0.0, 200.0, n)
            points = np.unique(np.concatenate([offsets, offsets + bounds]))
            clipped = np.clip(points[:, None] - offsets, 0.0, bounds)
            rows = np.sum(clipped, axis=1)
            scan = [float(np.sum(np.clip(p - offsets, 0.0, bounds))) for p in points]
            assert rows.tolist() == scan
            assert rows.tolist() == [_sum(row) for row in clipped.tolist()]

    def test_single_job_edge_cases(self):
        assert quality_opt([5.0], [2.0], 0.0, 10.0).tolist() == [5.0]
        assert quality_opt([5.0], [1.0], 0.0, 2.0).tolist() == [2.0]
        assert quality_opt([5.0], [1.0], 1.0, 2.0).tolist() == [0.0]
        with pytest.raises(ValueError, match="non-negative"):
            quality_opt([-1.0], [1.0], 0.0, 2.0)
        with pytest.raises(InfeasibleError):
            quality_opt([5.0], [0.5], 1.0, 2.0)
        with pytest.raises(InfeasibleError):
            quality_opt([5.0], [1.0], 0.0, -2.0)
        with pytest.raises(ValueError, match="offsets"):
            quality_opt([5.0], [1.0], 0.0, 2.0, offsets=[-0.5])

    def test_whole_run_replay_bitwise(self, monkeypatch):
        """Every Quality-OPT call of a real GE run at 250/s (scale 0.01)
        matches the oracle bit for bit: real offsets, binding prefixes
        and the batch sizes a core actually plans."""
        import repro.core.planner as planner
        from repro.core.ge import make_ge
        from repro.experiments.runner import scaled_config
        from repro.server.harness import SimulationHarness

        calls, mismatches = [], []

        def checked(bounds, deadlines, now, capacity, offsets=None):
            got = quality_opt(bounds, deadlines, now, capacity, offsets=offsets)
            ref = _quality_opt_ref(bounds, deadlines, now, capacity, offsets=offsets)
            if got.tobytes() != ref.tobytes():
                mismatches.append((bounds, deadlines, now, capacity, offsets))
            calls.append(len(bounds) > 1 and got.tolist() != list(bounds))
            return got

        monkeypatch.setattr(planner, "quality_opt", checked)
        config = scaled_config(0.01, 1, arrival_rate=250.0)
        SimulationHarness(config, make_ge()).run()
        assert mismatches == []
        assert len(calls) > 1000
        assert sum(calls) > len(calls) // 2  # most calls cut a multi-job batch


def test_sum_replicates_numpy_pairwise_order():
    """``_sum`` equals ``np.sum`` at every length through the 8-element
    and 128-element switches of NumPy's pairwise summation."""
    rng = np.random.default_rng(2025)
    for n in range(301):
        for _ in range(3):
            values = 10.0 ** rng.uniform(-8.0, 10.0, n)
            assert _sum(values.tolist()) == float(np.sum(np.asarray(values)))
