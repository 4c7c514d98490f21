"""Tests for the dynamic power model P = a·s^β."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.power.models import PowerModel

PAPER = PowerModel(a=5.0, beta=2.0, units_per_ghz_second=1000.0)


def test_paper_operating_point():
    """§IV-B: 'The average speed for each core is 2GHz' at 320W/16 = 20W."""
    assert PAPER.power(2.0) == pytest.approx(20.0)
    assert PAPER.speed(20.0) == pytest.approx(2.0)
    assert PAPER.throughput(2.0) == pytest.approx(2000.0)


def test_power_speed_inverse_round_trip():
    for s in (0.0, 0.5, 1.0, 2.0, 3.5):
        assert PAPER.speed(PAPER.power(s)) == pytest.approx(s)


def test_convexity():
    s = np.linspace(0, 4, 50)
    p = PAPER.power(s)
    mid = PAPER.power((s[:-1] + s[1:]) / 2)
    assert np.all(mid <= (p[:-1] + p[1:]) / 2 + 1e-12)


def test_equal_speed_minimizes_total_power():
    """The §III-D thrashing argument: for a fixed total throughput,
    equal speeds minimize Σ P(s_i)."""
    unequal = PAPER.power(1.0) + PAPER.power(3.0)
    equal = 2 * PAPER.power(2.0)
    assert equal < unequal


def test_throughput_round_trip():
    assert PAPER.speed_for_throughput(PAPER.throughput(1.7)) == pytest.approx(1.7)


def test_energy():
    assert PAPER.energy(2.0, 10.0) == pytest.approx(200.0)
    with pytest.raises(ValueError):
        PAPER.energy(2.0, -1.0)


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        PowerModel(a=0.0)
    with pytest.raises(ConfigurationError):
        PowerModel(beta=1.0)
    with pytest.raises(ConfigurationError):
        PowerModel(units_per_ghz_second=0.0)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        PAPER.power(-1.0)
    with pytest.raises(ValueError):
        PAPER.speed(-1.0)


def test_vectorized():
    speeds = np.array([1.0, 2.0, 3.0])
    assert PAPER.power(speeds) == pytest.approx([5.0, 20.0, 45.0])


@given(
    a=st.floats(min_value=0.5, max_value=20.0),
    beta=st.floats(min_value=1.1, max_value=4.0),
    s=st.floats(min_value=0.0, max_value=10.0),
)
def test_inverse_property(a, beta, s):
    model = PowerModel(a=a, beta=beta)
    assert model.speed(model.power(s)) == pytest.approx(s, abs=1e-9, rel=1e-9)


class TestScalarArrayBitwise:
    """The float fast paths must return the very same bits as the NumPy
    path (the contract stated in power/models.py).  ``throughput`` and
    ``speed_for_throughput`` only multiply and divide, which IEEE rounds
    correctly everywhere.  ``power`` has a float path for β = 2 only,
    where NumPy squares; ``speed`` has one for every β, where NumPy
    demotes to ``np.float64`` and takes libm ``pow`` — Python's float
    ``**``, and not ``math.sqrt``.  Any other input stays on NumPy."""

    def test_throughput_roundtrip_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            model = PowerModel(
                a=float(rng.uniform(0.5, 20.0)),
                beta=float(rng.uniform(1.1, 4.0)),
                units_per_ghz_second=float(rng.uniform(1.0, 2000.0)),
            )
            s = float(rng.uniform(0.0, 10.0))
            u = float(rng.uniform(0.0, 5000.0))
            assert model.throughput(s) == float(model.throughput(np.array([s]))[0])
            assert model.speed_for_throughput(u) == float(
                model.speed_for_throughput(np.array([u]))[0]
            )

    def test_power_speed_scalar_semantics_pinned(self):
        # Pin the pow-path semantics the comment in power/models.py
        # documents: a scalar into ``power`` stays a 0-d ufunc pow and
        # matches the array path bitwise, while a scalar into ``speed``
        # demotes to np.float64 after the division and takes libm pow
        # (== the plain Python formula).  Any "optimization" of these
        # methods that flips either pin changes simulated bits.
        rng = np.random.default_rng(43)
        for _ in range(500):
            a = float(rng.uniform(0.5, 20.0))
            beta = float(rng.uniform(1.1, 4.0))
            model = PowerModel(a=a, beta=beta)
            s = float(rng.uniform(0.0, 10.0))
            p = float(rng.uniform(0.0, 500.0))
            assert model.power(s) == float(model.power(np.array([s]))[0])
            assert model.speed(p) == (p / a) ** (1.0 / beta)
            assert model.speed(p) == pytest.approx(
                float(model.speed(np.array([p]))[0]), rel=1e-12
            )

    def test_int_inputs_match_float(self):
        assert PAPER.power(2) == PAPER.power(2.0)
        assert PAPER.speed(20) == PAPER.speed(20.0)
        assert PAPER.throughput(3) == PAPER.throughput(3.0)
        assert PAPER.speed_for_throughput(1500) == PAPER.speed_for_throughput(1500.0)

    def test_scalar_paths_return_python_floats(self):
        assert type(PAPER.power(1.5)) is float
        assert type(PAPER.speed(11.0)) is float
        assert type(PAPER.throughput(1.5)) is float
        assert type(PAPER.speed_for_throughput(800.0)) is float

    def test_np_float64_input_takes_array_path(self):
        s = np.float64(1.7)
        assert PAPER.power(s) == PAPER.power(float(s))

    def test_power_float_path_matches_array_path_for_beta_2(self):
        rng = np.random.default_rng(44)
        speeds = (
            rng.uniform(0.0, 10.0, 50_000).tolist()
            + (10.0 ** rng.uniform(-320.0, 160.0, 50_000)).tolist()
            + [0.0, -0.0, 5e-324, 1e-160, 1.35e154, math.inf]
        )
        with np.errstate(over="ignore", under="ignore"):
            for s in speeds:
                got = PAPER.power(s)
                assert type(got) is float
                assert got == float(PAPER.power(np.array([s]))[0]), s
            other = PowerModel(a=3.7, beta=2.0)
            assert [other.power(s) for s in speeds] == other.power(np.array(speeds)).tolist()
        assert PAPER.power(1.35e154) == math.inf
        assert math.copysign(1.0, PAPER.power(-0.0)) == 1.0

    def test_speed_float_path_is_libm_pow_not_sqrt(self):
        rng = np.random.default_rng(45)
        a = PAPER.a
        powers = rng.uniform(0.0, 1000.0, 100_000).tolist()
        # Inputs where a ``math.sqrt`` rewrite would change the bits.
        assert any(math.sqrt(p / a) != (p / a) ** 0.5 for p in powers)
        for p in powers:
            got = PAPER.speed(p)
            assert got == (p / a) ** 0.5, p
            assert got == PAPER.speed(np.float64(p)), p  # the NumPy path

    def test_float_paths_reject_negatives_and_pass_nan(self):
        cubic = PowerModel(a=5.0, beta=3.0)
        for model in (PAPER, cubic):
            for bad in (-1.0, -5e-324, -math.inf):
                for arg in (bad, np.float64(bad), np.array([bad])):
                    with pytest.raises(ValueError):
                        model.power(arg)
                    with pytest.raises(ValueError):
                        model.speed(arg)
            assert math.isnan(model.power(math.nan))
            assert math.isnan(model.speed(math.nan))
            assert math.isnan(model.power(np.float64(math.nan)))
            assert math.isnan(model.speed(np.float64(math.nan)))
