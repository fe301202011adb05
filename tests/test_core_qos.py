"""Unit tests for the QoS metric (Eq. 1-2) and effective throughput."""

import pytest

from repro.core.qos import QoSParams, effective_token_weight
from tests.qos_reference import (
    effective_token_count,
    qos_score,
    request_qos_terms,
    token_utility,
)


class TestTokenUtility:
    def test_full_weight_below_threshold(self):
        assert token_utility(5.0, tau=10.0, alpha=0.1) == 1.0
        assert token_utility(10.0, tau=10.0, alpha=0.1) == 1.0

    def test_linear_decay_above_threshold(self):
        assert token_utility(15.0, tau=10.0, alpha=0.1) == pytest.approx(0.5)

    def test_clamped_at_zero(self):
        assert token_utility(100.0, tau=10.0, alpha=0.1) == 0.0

    def test_monotone_nonincreasing(self):
        values = [token_utility(b, 10.0, 0.05) for b in range(0, 50, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestEffectiveWeight:
    def test_piecewise_shape(self):
        # output_len 100: full below 10, zero above 20, linear between.
        assert effective_token_weight(5, 100) == 1.0
        assert effective_token_weight(10, 100) == 1.0
        assert effective_token_weight(15, 100) == pytest.approx(0.5)
        assert effective_token_weight(20, 100) == 0.0
        assert effective_token_weight(50, 100) == 0.0

    def test_thresholds_scale_with_output_length(self):
        assert effective_token_weight(15, 100) < 1.0
        assert effective_token_weight(15, 1000) == 1.0  # 15 < 10% of 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_token_weight(5, 0)
        with pytest.raises(ValueError):
            effective_token_weight(5, 100, tau1_frac=0.3, tau2_frac=0.2)

    def test_effective_count_sums_weights(self):
        count = effective_token_count([0, 0, 15, 50], output_len=100)
        assert count == pytest.approx(1.0 + 1.0 + 0.5 + 0.0)


class TestQoSParams:
    def test_tau_resolution_fixed(self):
        params = QoSParams(tau=42.0)
        assert params.resolve_tau(1000) == 42.0

    def test_tau_resolution_fractional(self):
        params = QoSParams(tau=None, tau_frac=0.1)
        assert params.resolve_tau(500) == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QoSParams(tau=-1.0)
        with pytest.raises(ValueError):
            QoSParams(alpha=0.0)
        with pytest.raises(ValueError):
            QoSParams(lam=-0.1)


class TestQoSScore:
    def test_request_terms_combine_penalties(self):
        params = QoSParams(tau=100.0, alpha=0.01, lam=2.0, mu=3.0)
        term = request_qos_terms(
            occupancies=[0, 0, 0], output_len=10, ttft=1.0, rebuffer=0.5,
            params=params,
        )
        assert term == pytest.approx(3.0 - 2.0 * 1.0 - 3.0 * 0.5)

    def test_stall_reduces_qos(self):
        params = QoSParams()
        clean = request_qos_terms([0] * 10, 100, ttft=0.5, rebuffer=0.0, params=params)
        stalled = request_qos_terms([0] * 10, 100, ttft=0.5, rebuffer=5.0, params=params)
        assert clean > stalled

    def test_high_ttft_reduces_qos(self):
        params = QoSParams()
        fast = request_qos_terms([0] * 10, 100, ttft=0.1, rebuffer=0.0, params=params)
        slow = request_qos_terms([0] * 10, 100, ttft=10.0, rebuffer=0.0, params=params)
        assert fast > slow

    def test_overbuffered_tokens_reduce_qos(self):
        params = QoSParams(tau=None, tau_frac=0.1, alpha=0.05)
        tight = request_qos_terms([0] * 10, 20, ttft=0.0, rebuffer=0.0, params=params)
        fat = request_qos_terms([15] * 10, 20, ttft=0.0, rebuffer=0.0, params=params)
        assert tight > fat

    def test_score_normalised_by_time(self):
        assert qos_score([10.0, 20.0], total_time=10.0) == pytest.approx(3.0)

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            qos_score([1.0], total_time=0.0)


class TestFoldHistMetrics:
    def test_matches_per_token_references(self):
        # Both branches (loop below _FOLD_VECTOR_MIN buckets, array
        # fold from it up) against the per-token folds on the expanded
        # B_{i,j} list.  count * w and w added count times round
        # differently, so the comparison is to a relative 1e-12.
        import itertools
        import random

        from repro.core import qos as qos_module
        from repro.core.qos import fold_hist_metrics

        rng = random.Random(7)
        params = QoSParams()
        edge = qos_module._FOLD_VECTOR_MIN
        for n_buckets, output_len in itertools.product(
                (5, edge - 1, edge, 300), (1, 37, 100, 2000)):
            counts = [rng.randint(1, 9) for _ in range(n_buckets)]
            occupancies = [b for b, count in enumerate(counts)
                           for _ in range(count)]
            effective, utility = fold_hist_metrics(counts, output_len, params)
            assert effective == pytest.approx(
                effective_token_count(occupancies, output_len), rel=1e-12)
            assert utility == pytest.approx(
                request_qos_terms(occupancies, output_len, 0.0, 0.0, params),
                rel=1e-12)

    def test_array_fold_bit_identical_to_loop(self, monkeypatch):
        # Histograms at least _FOLD_VECTOR_MIN buckets long take a
        # numpy fold; its cumsum accumulation must replay the scalar
        # loop's left-to-right additions bit-for-bit.
        import random

        from repro.core import qos as qos_module

        rng = random.Random(3)
        params = QoSParams()
        for _ in range(50):
            n = rng.randint(qos_module._FOLD_VECTOR_MIN, 2000)
            counts = [rng.randint(1, 9) for _ in range(n)]
            output_len = rng.randint(1, 600)
            vec = qos_module.fold_hist_metrics(counts, output_len, params)
            monkeypatch.setattr(qos_module, "_FOLD_VECTOR_MIN", 10**9)
            scalar = qos_module.fold_hist_metrics(counts, output_len, params)
            monkeypatch.undo()
            assert vec == scalar

    def test_validation(self):
        from repro.core.qos import fold_hist_metrics

        with pytest.raises(ValueError):
            fold_hist_metrics([1], 0, QoSParams())
        with pytest.raises(ValueError):
            fold_hist_metrics([1], 10, QoSParams(),
                              tau1_frac=0.3, tau2_frac=0.2)
