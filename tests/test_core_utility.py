"""Unit tests for the utility/priority function (Eq. 3)."""

import math

import pytest

from repro.core.utility import (
    UtilityParams,
    request_priority,
    stall_risk,
    token_value,
)


@pytest.fixture
def params() -> UtilityParams:
    return UtilityParams(gamma=4.0, stall_scale=2.0)


class TestStallRisk:
    def test_empty_buffer_max_risk(self, params):
        assert stall_risk(0.0, params) == 1.0

    def test_decays_with_buffer(self, params):
        assert stall_risk(2.0, params) == pytest.approx(0.3679, rel=1e-3)
        assert stall_risk(10.0, params) < stall_risk(1.0, params)

    def test_negative_buffer_rejected(self, params):
        with pytest.raises(ValueError):
            stall_risk(-0.1, params)


class TestTokenValue:
    def test_low_occupancy_full_value(self, params):
        assert token_value(0, 100, params) == 1.0

    def test_overbuffered_zero_value(self, params):
        assert token_value(30, 100, params) == 0.0

    def test_decay_region(self, params):
        assert 0.0 < token_value(15, 100, params) < 1.0


class TestPriority:
    def test_starving_request_outranks_buffered(self, params):
        starving = request_priority(0, 0.0, 100, 0.5, params)
        buffered = request_priority(50, 5.0, 100, 0.5, params)
        assert starving > buffered

    def test_overhead_reduces_priority(self, params):
        cheap = request_priority(0, 1.0, 100, effective_time=0.5, params=params)
        costly = request_priority(0, 1.0, 100, effective_time=0.1, params=params)
        assert cheap > costly

    def test_negative_effective_time_clamped(self, params):
        priority = request_priority(0, 1.0, 100, effective_time=-1.0, params=params)
        assert priority == pytest.approx(params.gamma * stall_risk(1.0, params))

    def test_gamma_scales_urgency(self):
        gentle = UtilityParams(gamma=1.0)
        urgent = UtilityParams(gamma=10.0)
        p_gentle = request_priority(0, 0.0, 100, 0.5, gentle)
        p_urgent = request_priority(0, 0.0, 100, 0.5, urgent)
        assert p_urgent > p_gentle


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            UtilityParams(gamma=-1.0)
        with pytest.raises(ValueError):
            UtilityParams(stall_scale=0.0)
        with pytest.raises(ValueError):
            UtilityParams(tau1_frac=0.3, tau2_frac=0.2)
        # Non-finite knobs would make request_priority return NaN or
        # ±inf (e.g. 0 * inf), and the balancer needs finite priorities.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                UtilityParams(gamma=bad)
            with pytest.raises(ValueError):
                UtilityParams(stall_scale=bad)
            with pytest.raises(ValueError):
                UtilityParams(tau2_frac=bad)
        with pytest.raises(ValueError):
            UtilityParams(tau1_frac=math.nan)
