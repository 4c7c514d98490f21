"""Tests for the sliding-window arrival-rate estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.load import ArrivalRateEstimator
from repro.errors import ConfigurationError


class TestArrivalRate:
    def test_empty_rate_is_zero(self):
        est = ArrivalRateEstimator(window=2.0)
        assert est.rate(10.0) == 0.0

    def test_uniform_arrivals_recover_rate(self):
        est = ArrivalRateEstimator(window=2.0)
        for i in range(400):
            est.observe(i * 0.01)  # 100/s for 4 seconds
        assert est.rate(4.0) == pytest.approx(100.0, rel=0.02)

    def test_old_arrivals_evicted(self):
        est = ArrivalRateEstimator(window=1.0)
        for i in range(100):
            est.observe(i * 0.01)
        assert est.rate(100.0) == 0.0

    def test_is_heavy_threshold(self):
        est = ArrivalRateEstimator(window=1.0)
        for i in range(200):
            est.observe(i * 0.005)  # 200/s
        assert est.is_heavy(1.0, critical_rate=154.0)
        assert not est.is_heavy(1.0, critical_rate=250.0)

    def test_non_monotone_times_rejected(self):
        est = ArrivalRateEstimator()
        est.observe(1.0)
        with pytest.raises(ValueError):
            est.observe(0.5)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            ArrivalRateEstimator(window=0.0)

    def test_poisson_rate_estimate(self):
        rng = np.random.default_rng(1)
        est = ArrivalRateEstimator(window=5.0)
        t = 0.0
        for gap in rng.exponential(1 / 150.0, 3000):
            t += gap
            est.observe(t)
        assert est.rate(t) == pytest.approx(150.0, rel=0.15)

