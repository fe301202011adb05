"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.workload.arrivals import (
    burst_arrivals,
    gamma_arrivals,
    poisson_arrivals,
)


class TestBurst:
    def test_simultaneous_burst(self):
        times = burst_arrivals(10, start=2.0)
        assert len(times) == 10
        assert np.all(times == 2.0)

    def test_jittered_burst_within_window(self):
        rng = np.random.default_rng(0)
        times = burst_arrivals(50, start=1.0, spread=0.5, rng=rng)
        assert len(times) == 50
        assert times.min() >= 1.0
        assert times.max() <= 1.5
        assert np.all(np.diff(times) >= 0)

    def test_spread_requires_rng(self):
        with pytest.raises(ValueError):
            burst_arrivals(5, spread=0.5)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            burst_arrivals(0)
        with pytest.raises(ValueError):
            burst_arrivals(5, spread=-1.0)


class TestPoisson:
    def test_rate_matches(self):
        rng = np.random.default_rng(1)
        times = poisson_arrivals(rate=10.0, duration=200.0, rng=rng)
        assert abs(len(times) / 200.0 - 10.0) < 1.0

    def test_within_horizon(self):
        rng = np.random.default_rng(2)
        times = poisson_arrivals(rate=5.0, duration=10.0, rng=rng, start=100.0)
        assert np.all(times >= 100.0)
        assert np.all(times < 110.0)

    def test_sorted(self):
        rng = np.random.default_rng(3)
        times = poisson_arrivals(rate=5.0, duration=50.0, rng=rng)
        assert np.all(np.diff(times) >= 0)

    def test_exponential_interarrivals(self):
        rng = np.random.default_rng(4)
        times = poisson_arrivals(rate=10.0, duration=500.0, rng=rng)
        gaps = np.diff(times)
        # Exponential: CV ~= 1.
        assert abs(gaps.std() / gaps.mean() - 1.0) < 0.1

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10.0, rng)
        with pytest.raises(ValueError):
            poisson_arrivals(1.0, 0.0, rng)


class TestGamma:
    def test_burstier_than_poisson(self):
        rng = np.random.default_rng(5)
        times = gamma_arrivals(rate=10.0, cv=2.5, duration=500.0, rng=rng)
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() > 1.5

    def test_rate_preserved(self):
        rng = np.random.default_rng(6)
        times = gamma_arrivals(rate=8.0, cv=2.0, duration=400.0, rng=rng)
        assert abs(len(times) / 400.0 - 8.0) < 1.0

    def test_cv_one_is_poisson_like(self):
        rng = np.random.default_rng(7)
        times = gamma_arrivals(rate=10.0, cv=1.0, duration=400.0, rng=rng)
        gaps = np.diff(times)
        assert abs(gaps.std() / gaps.mean() - 1.0) < 0.15

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gamma_arrivals(0.0, 1.0, 10.0, rng)
