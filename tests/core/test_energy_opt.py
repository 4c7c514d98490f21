"""Tests for Energy-OPT (YDS speed scaling)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy_opt import (
    BlockSpeed,
    energy_of_blocks,
    per_job_speeds,
    yds_schedule,
    yds_schedule_general,
)
from repro.errors import InfeasibleError


def power(s: float) -> float:
    return 5.0 * (s / 1000.0) ** 2  # speeds here are units/second


class TestYdsAgreeable:
    def test_single_job_runs_at_exact_intensity(self):
        blocks = yds_schedule([100.0], [1.0], now=0.0)
        assert len(blocks) == 1
        assert blocks[0].speed == pytest.approx(100.0)
        assert blocks[0].jobs == (0,)

    def test_speeds_are_non_increasing(self):
        blocks = yds_schedule(
            [300.0, 50.0, 50.0, 10.0], [0.5, 1.0, 2.0, 10.0], now=0.0
        )
        speeds = [b.speed for b in blocks]
        assert speeds == sorted(speeds, reverse=True)

    def test_every_job_scheduled_once(self):
        vols = [10.0, 20.0, 30.0, 40.0]
        blocks = yds_schedule(vols, [1.0, 2.0, 3.0, 4.0], now=0.0)
        scheduled = sorted(j for b in blocks for j in b.jobs)
        assert scheduled == [0, 1, 2, 3]

    def test_feasibility_every_deadline_met(self):
        vols = [120.0, 80.0, 200.0, 30.0]
        dls = [0.4, 0.8, 1.5, 1.6]
        blocks = yds_schedule(vols, dls, now=0.0)
        speeds = per_job_speeds(blocks, len(vols))
        t = 0.0
        for i, (v, d) in enumerate(zip(vols, dls)):
            t += v / speeds[i]
            assert t <= d + 1e-9

    def test_critical_block_finishes_exactly_at_its_deadline(self):
        # Job 0 is critical: 200 units by t=0.5 -> 400 u/s.
        blocks = yds_schedule([200.0, 10.0], [0.5, 10.0], now=0.0)
        assert blocks[0].speed == pytest.approx(400.0)
        assert blocks[1].speed == pytest.approx(10.0 / 9.5)

    def test_equal_intensity_merges_into_one_block(self):
        # Both prefixes have intensity 100: one block of two jobs.
        blocks = yds_schedule([100.0, 100.0], [1.0, 2.0], now=0.0)
        assert len(blocks) == 1
        assert blocks[0].jobs == (0, 1)

    def test_nonzero_now_offsets_spans(self):
        blocks = yds_schedule([100.0], [11.0], now=10.0)
        assert blocks[0].speed == pytest.approx(100.0)

    def test_max_speed_violation_raises(self):
        with pytest.raises(InfeasibleError):
            yds_schedule([1000.0], [1.0], now=0.0, max_speed=500.0)

    def test_max_speed_tolerates_float_noise(self):
        blocks = yds_schedule([500.0], [1.0], now=0.0, max_speed=500.0 * (1 - 1e-12))
        assert blocks[0].speed <= 500.0

    def test_deadline_before_now_raises(self):
        with pytest.raises(InfeasibleError):
            yds_schedule([10.0], [1.0], now=2.0)

    def test_unsorted_deadlines_rejected(self):
        with pytest.raises(ValueError):
            yds_schedule([1.0, 1.0], [2.0, 1.0], now=0.0)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError):
            yds_schedule([0.0], [1.0], now=0.0)

    def test_optimal_vs_constant_speed(self):
        """YDS energy never exceeds running at the max-prefix intensity."""
        vols = [50.0, 150.0, 30.0]
        dls = [1.0, 1.5, 4.0]
        blocks = yds_schedule(vols, dls, now=0.0)
        e_opt = energy_of_blocks(blocks, vols, power)
        worst = max(np.cumsum(vols) / np.array(dls))
        e_const = sum(power(worst) * v / worst for v in vols)
        assert e_opt <= e_const + 1e-9

    def test_optimality_vs_grid_search_two_jobs(self):
        """Brute-force the 2-job case: YDS matches the grid optimum."""
        vols = [100.0, 60.0]
        dls = [0.8, 1.2]
        blocks = yds_schedule(vols, dls, now=0.0)
        e_opt = energy_of_blocks(blocks, vols, power)
        best = np.inf
        # Grid over job-0 finish time; job 1 then uses the rest.
        for t0 in np.linspace(0.05, 0.8, 400):
            s0 = vols[0] / t0
            s1 = vols[1] / (dls[1] - t0)
            if s1 <= 0:
                continue
            e = power(s0) * t0 + power(s1) * (dls[1] - t0)
            best = min(best, e)
        assert e_opt <= best + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=8),
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=8, max_size=8),
    )
    def test_property_feasible_and_nonincreasing(self, vols, gaps):
        dls = list(np.cumsum(gaps[: len(vols)]))
        blocks = yds_schedule(vols, dls, now=0.0)
        speeds = [b.speed for b in blocks]
        assert all(a >= b - 1e-9 for a, b in zip(speeds, speeds[1:]))
        per_job = per_job_speeds(blocks, len(vols))
        t = 0.0
        for v, d, s in zip(vols, dls, per_job):
            t += v / s
            assert t <= d + 1e-6


class TestYdsGeneral:
    def test_matches_agreeable_specialization(self):
        vols = [120.0, 80.0, 200.0]
        dls = [0.4, 0.9, 1.5]
        releases = [0.0, 0.0, 0.0]
        profile = yds_schedule_general(releases, dls, vols)
        blocks = yds_schedule(vols, dls, now=0.0)
        general_speeds = sorted((s for _, _, s in profile), reverse=True)
        block_speeds = sorted((b.speed for b in blocks), reverse=True)
        # The distinct staircase speeds must coincide.
        assert general_speeds == pytest.approx(block_speeds)

    def test_disjoint_windows(self):
        profile = yds_schedule_general([0.0, 2.0], [1.0, 3.0], [100.0, 10.0])
        speeds = {round(s, 6) for _, _, s in profile}
        assert speeds == {100.0, 10.0}

    def test_classic_nested_example(self):
        # A long job spanning [0, 10] with a burst job in [4, 6].
        profile = yds_schedule_general([0.0, 4.0], [10.0, 6.0], [40.0, 20.0])
        # Critical interval is [4, 6] at (20)/2 = 10? No: the long job
        # may also run there. YDS: interval [4,6] contains only job 2
        # (fully), intensity 10; interval [0,10] has intensity 6. The
        # burst makes [4,6] critical at 10 only if 10 > overall; after
        # removing it the long job gets 8 time units -> speed 5.
        assert profile[0][2] == pytest.approx(10.0)
        assert profile[1][2] == pytest.approx(5.0)

    def test_infeasible_inputs_rejected(self):
        with pytest.raises(ValueError):
            yds_schedule_general([0.0], [0.0], [10.0])
        with pytest.raises(ValueError):
            yds_schedule_general([0.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            yds_schedule_general([0.0, 0.0], [1.0], [1.0, 1.0])


def _yds_ref(vols, dls, now, max_speed=math.inf):
    """Verbatim copy of the retired vectorized `yds_schedule` loop."""
    vols = np.asarray(vols, dtype=float)
    dls = np.asarray(dls, dtype=float)
    n = vols.size
    blocks = []
    start = 0
    t = now
    prefix = np.concatenate([[0.0], np.cumsum(vols)])
    while start < n:
        # Intensity of each candidate prefix of the remaining jobs.
        cumulative = prefix[start + 1 :] - prefix[start]
        spans = dls[start:] - t
        if np.any(spans <= 0):
            raise InfeasibleError("deadline at or before block start — infeasible batch")
        intensity = cumulative / spans
        peak = float(np.max(intensity))
        # Prefer the longest prefix achieving the peak so equal-intensity
        # jobs merge into one maximal critical block (canonical YDS).
        k = int(np.nonzero(intensity >= peak * (1.0 - 1e-12))[0][-1])
        speed = float(intensity[k])
        if speed > max_speed * (1.0 + 1e-9):
            raise InfeasibleError(
                f"required speed {speed:.6g} exceeds cap {max_speed:.6g} units/s"
            )
        speed = min(speed, max_speed)
        jobs = tuple(range(start, start + k + 1))
        blocks.append(BlockSpeed(jobs=jobs, speed=speed))
        t = t + float(cumulative[k]) / speed
        start = start + k + 1
    return blocks


class TestSmallStaircaseBitwise:
    """The Python-list staircase must produce exactly the same blocks
    (indices AND speed bits) as the vectorized NumPy loop it replaced
    (:func:`_yds_ref`), on batches up to 64 jobs."""

    def _shape(self, blocks):
        return [(b.jobs, b.speed) for b in blocks]

    def test_random_batches_bitwise_equal(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            vols = rng.uniform(0.1, 200.0, n)
            gaps = rng.uniform(0.0, 1.5, n)
            gaps[rng.uniform(size=n) < 0.3] = 0.0  # duplicate deadlines
            now = float(rng.uniform(0.0, 3.0))
            dls = now + 1e-3 + np.cumsum(gaps)
            got = yds_schedule(vols, dls, now)
            assert self._shape(got) == self._shape(_yds_ref(vols, dls, now))

    def test_list_and_array_inputs_agree(self):
        vols = [30.0, 10.0, 80.0, 5.0]
        dls = [1.0, 1.0, 2.5, 4.0]
        a = yds_schedule(vols, dls, 0.0)
        b = yds_schedule(np.asarray(vols), np.asarray(dls), 0.0)
        assert self._shape(a) == self._shape(b)

    def test_single_job_cap_slack_and_errors(self):
        blocks = yds_schedule([100.0], [1.0], 0.0, max_speed=100.0)
        assert blocks[0].speed == 100.0  # 1e-9 slack admits the exact cap
        with pytest.raises(InfeasibleError):
            yds_schedule([100.0], [1.0], 0.0, max_speed=99.0)
        with pytest.raises(ValueError, match="positive"):
            yds_schedule([0.0], [1.0], 0.0)
        with pytest.raises(InfeasibleError, match="not after"):
            yds_schedule([1.0], [1.0], 1.0)


# ---------------------------------------------------------------------------
# Optimality certificate.  It reads only the inputs and the blocks, never a
# helper of energy_opt.py, so it checks the staircase rather than the method.
# ---------------------------------------------------------------------------


def assert_yds_certified(vols, dls, now, blocks, tight_rel=1e-9, peak_rel=1e-12):
    """Assert that ``blocks`` is the minimum-energy staircase (no cap).

    With every job released at ``now`` and EDF-ordered deadlines, YDS runs
    consecutive critical intervals: each block starts where the previous
    one ended (at ``now`` first), its jobs are the next ones in EDF order,
    and it runs at the highest intensity ``Σ v / (d_k − start)`` over the
    prefixes of the jobs left at its start.  The certificate checks that
    every block is tight (its jobs finish at its last deadline, within
    ``tight_rel``) and that no such prefix is more intense than the
    block's speed (within ``peak_rel``, plus ``n`` ulps of the volume
    total up to the prefix over its span: a staircase may take a block's
    volume as the difference of two running totals, and a small block
    after large ones then keeps only the totals' absolute precision).
    """
    n = len(vols)
    order = [j for block in blocks for j in block.jobs]
    assert order == list(range(n)), f"blocks do not cover the jobs in order: {order}"
    totals = []
    total = 0.0
    for v in vols:
        total += v
        totals.append(total)
    start_time = now
    for block in blocks:
        first, last = block.jobs[0], block.jobs[-1]
        finish = start_time + sum(vols[first : last + 1]) / block.speed
        assert math.isclose(finish, dls[last], rel_tol=tight_rel), (
            f"block {block.jobs} ends at {finish!r}, not at its deadline {dls[last]!r}"
        )
        volume = 0.0
        for k in range(first, n):
            volume += vols[k]
            span = dls[k] - start_time
            intensity = volume / span
            rounding = n * math.ulp(totals[k]) / span
            assert intensity <= block.speed * (1.0 + peak_rel) + rounding, (
                f"prefix {first}..{k} needs {intensity!r} > block speed {block.speed!r}"
            )
        start_time = dls[last]


@st.composite
def _yds_batches(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    vols = draw(st.lists(st.floats(min_value=0.1, max_value=500.0), min_size=n, max_size=n))
    # Zero gaps give shared deadlines; distinct deadlines stay 0.01 s
    # apart, so a block start's float error stays far below 1e-12 of a span.
    gaps = draw(
        st.lists(st.just(0.0) | st.floats(0.01, 0.5), min_size=n - 1, max_size=n - 1)
    )
    now = draw(st.floats(min_value=0.0, max_value=5.0))
    first = draw(st.floats(min_value=0.01, max_value=0.5))
    dls = (now + first + np.cumsum([0.0] + gaps)).tolist()
    return vols, dls, now


class TestOptimalityCertificate:
    @settings(max_examples=300, deadline=None)
    @given(batch=_yds_batches())
    def test_staircase_is_certified_optimal(self, batch):
        vols, dls, now = batch
        assert_yds_certified(vols, dls, now, yds_schedule(vols, dls, now))

    def test_small_block_after_large_ones(self):
        """Found by hypothesis: job 8's speed is 1.6e-12 relative below
        its exact intensity, the rounding of 2048.123 - 2048.0."""
        vols = [1.0, 1.0, 1.0, 45.0, 500.0, 500.0, 500.0, 500.0, 0.12304296310886674]
        dls = [0.5] * 8 + [1.0]
        assert_yds_certified(vols, dls, 0.0, yds_schedule(vols, dls, 0.0))

    def test_certificate_rejects_wrong_staircases(self):
        vols, dls = [200.0, 10.0], [0.5, 10.0]
        assert_yds_certified(vols, dls, 0.0, yds_schedule(vols, dls, 0.0))
        # One block at the average speed: job 0 alone is more intense.
        with pytest.raises(AssertionError, match="prefix 0..0"):
            assert_yds_certified(vols, dls, 0.0, [BlockSpeed((0, 1), 21.0)])
        # Faster than needed: the first block finishes before its deadline.
        with pytest.raises(AssertionError, match="not at its deadline"):
            assert_yds_certified(
                vols, dls, 0.0, [BlockSpeed((0,), 500.0), BlockSpeed((1,), 10.0 / 9.5)]
            )
        with pytest.raises(AssertionError, match="in order"):
            assert_yds_certified(vols, dls, 0.0, [BlockSpeed((1,), 1.0), BlockSpeed((0,), 1.0)])
