"""Unit tests for sliding-window estimators."""

import pytest

from repro.core.estimator import PrefillCostEstimator, SlidingWindowMean


class TestSlidingWindowMean:
    def test_empty_returns_initial(self):
        assert SlidingWindowMean(4).mean() is None
        assert SlidingWindowMean(4, initial=0.5).mean() == 0.5

    def test_mean_of_observations(self):
        window = SlidingWindowMean(4)
        for value in (1.0, 2.0, 3.0):
            window.observe(value)
        assert window.mean() == pytest.approx(2.0)
        assert window.count == 3

    def test_window_slides(self):
        window = SlidingWindowMean(2)
        for value in (1.0, 2.0, 9.0):
            window.observe(value)
        assert window.mean() == pytest.approx(5.5)  # only (2, 9)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingWindowMean(0)


class TestPrefillCostEstimator:
    def test_initial_estimate_positive(self):
        est = PrefillCostEstimator()
        assert est.per_token() > 0
        assert est.estimate_recompute(1000) == pytest.approx(est.per_token() * 1000)

    def test_observations_update_estimate(self):
        est = PrefillCostEstimator(window=4)
        for _ in range(4):
            est.observe_prefill(n_tokens=1000, duration=0.1)
        assert est.per_token() == pytest.approx(1e-4)
        assert est.estimate_recompute(500) == pytest.approx(0.05)

    def test_validation(self):
        est = PrefillCostEstimator()
        with pytest.raises(ValueError):
            est.observe_prefill(0, 0.1)
        with pytest.raises(ValueError):
            est.observe_prefill(10, -0.1)
        with pytest.raises(ValueError):
            est.estimate_recompute(-1)
        with pytest.raises(ValueError):
            PrefillCostEstimator(initial_per_token=0.0)
