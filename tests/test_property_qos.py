"""Property-based tests for the QoS metric and utility functions."""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.qos import QoSParams, effective_token_weight
from tests.qos_reference import request_qos_terms, token_utility
from repro.core.utility import UtilityParams, request_priority, stall_risk

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

occupancy = st.floats(min_value=0.0, max_value=10_000.0)
output_lens = st.integers(min_value=1, max_value=10_000)


class TestWeightProperties:
    @given(b=occupancy, tau=st.floats(0.0, 1000.0), alpha=st.floats(0.001, 1.0))
    def test_token_utility_in_unit_interval(self, b, tau, alpha):
        assert 0.0 <= token_utility(b, tau, alpha) <= 1.0

    @given(b1=occupancy, b2=occupancy, length=output_lens)
    def test_effective_weight_monotone_nonincreasing(self, b1, b2, length):
        low, high = min(b1, b2), max(b1, b2)
        assert effective_token_weight(low, length) >= effective_token_weight(high, length)

    @given(b=occupancy, length=output_lens)
    def test_effective_weight_in_unit_interval(self, b, length):
        assert 0.0 <= effective_token_weight(b, length) <= 1.0

    @given(
        occupancies=st.lists(occupancy, max_size=50),
        length=output_lens,
        ttft=st.floats(0.0, 100.0),
        rebuffer=st.floats(0.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_qos_term_bounded_by_token_count(self, occupancies, length, ttft, rebuffer):
        params = QoSParams()
        term = request_qos_terms(occupancies, length, ttft, rebuffer, params)
        assert term <= len(occupancies)

    @given(
        occupancies=st.lists(occupancy, max_size=30),
        length=output_lens,
        ttft=st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_qos_monotone_in_rebuffer(self, occupancies, length, ttft):
        params = QoSParams()
        clean = request_qos_terms(occupancies, length, ttft, 0.0, params)
        stalled = request_qos_terms(occupancies, length, ttft, 10.0, params)
        assert clean >= stalled


class TestPriorityProperties:
    @given(b=st.floats(0.0, 1000.0))
    def test_stall_risk_in_unit_interval(self, b):
        params = UtilityParams()
        assert 0.0 < stall_risk(b, params) <= 1.0

    @given(b1=st.floats(0.0, 100.0), b2=st.floats(0.0, 100.0))
    def test_stall_risk_monotone(self, b1, b2):
        params = UtilityParams()
        low, high = min(b1, b2), max(b1, b2)
        assert stall_risk(low, params) >= stall_risk(high, params)

    @given(
        occupancy_tokens=st.floats(0.0, 5000.0),
        buffer_s=st.floats(0.0, 500.0),
        length=output_lens,
        t_eff=st.floats(0.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_priority_nonnegative_and_bounded(self, occupancy_tokens, buffer_s, length, t_eff):
        params = UtilityParams()
        priority = request_priority(occupancy_tokens, buffer_s, length, t_eff, params)
        assert 0.0 <= priority <= t_eff + params.gamma

    @given(
        buffer_s=st.floats(0.0, 100.0),
        length=output_lens,
        t_eff=st.floats(0.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_priority_monotone_in_starvation(self, buffer_s, length, t_eff):
        """Less buffer (same everything else) never lowers priority."""
        params = UtilityParams()
        starved = request_priority(0.0, 0.0, length, t_eff, params)
        relaxed = request_priority(0.0, buffer_s, length, t_eff, params)
        assert starved >= relaxed
