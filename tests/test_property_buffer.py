"""Property-based tests for the client buffer's consumption model."""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.client.buffer import ClientBuffer
from tests.conftest import occupancy_at_generation

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

gaps = st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=80)
rates = st.floats(min_value=0.5, max_value=50.0)


def deliver_all(rate, gap_list):
    buffer = ClientBuffer(rate=rate)
    t = 0.0
    for gap in gap_list:
        t += gap
        buffer.deliver(t)
    return buffer, t


class TestConsumptionProperties:
    @given(rate=rates, gap_list=gaps)
    @settings(max_examples=200, deadline=None)
    def test_consumption_times_nondecreasing(self, rate, gap_list):
        buffer, _ = deliver_all(rate, gap_list)
        times = buffer.consumption_times
        assert all(a <= b for a, b in zip(times, times[1:]))

    @given(rate=rates, gap_list=gaps)
    @settings(max_examples=200, deadline=None)
    def test_token_never_consumed_before_generated(self, rate, gap_list):
        buffer, _ = deliver_all(rate, gap_list)
        for gen, consume in zip(buffer.generation_times, buffer.consumption_times):
            assert consume >= gen - 1e-12

    @given(rate=rates, gap_list=gaps)
    @settings(max_examples=200, deadline=None)
    def test_consumption_respects_rate_limit(self, rate, gap_list):
        """Consecutive consumptions are at least 1/rate apart."""
        buffer, _ = deliver_all(rate, gap_list)
        times = buffer.consumption_times
        interval = 1.0 / rate
        for a, b in zip(times, times[1:]):
            assert b - a >= interval - 1e-9

    @given(rate=rates, gap_list=gaps)
    @settings(max_examples=200, deadline=None)
    def test_stall_time_nonnegative_and_bounded(self, rate, gap_list):
        buffer, last = deliver_all(rate, gap_list)
        assert buffer.stall_time >= 0.0
        # Total stall cannot exceed the whole delivery span.
        assert buffer.stall_time <= last + 1e-9

    @given(rate=rates, gap_list=gaps)
    @settings(max_examples=200, deadline=None)
    def test_occupancy_bounds(self, rate, gap_list):
        buffer, last = deliver_all(rate, gap_list)
        occupancy = buffer.occupancy(last)
        assert 0 <= occupancy <= buffer.delivered

    @given(rate=rates, gap_list=gaps)
    @settings(max_examples=200, deadline=None)
    def test_occupancy_at_generation_bounds(self, rate, gap_list):
        buffer, _ = deliver_all(rate, gap_list)
        occupancies = occupancy_at_generation(buffer)
        for idx, occupancy in enumerate(occupancies):
            assert 0 <= occupancy <= idx + 1
        tally = [0] * (max(occupancies) + 1)
        for occupancy in occupancies:
            tally[occupancy] += 1
        assert list(buffer.occupancy_counts) == tally

    @given(rate=rates, gap_list=gaps)
    @settings(max_examples=100, deadline=None)
    def test_fast_delivery_never_stalls(self, rate, gap_list):
        """If every gap is under 1/rate, no stall can occur."""
        interval = 1.0 / rate
        capped = [min(g, interval * 0.9) for g in gap_list]
        buffer, _ = deliver_all(rate, capped)
        assert buffer.stall_time == 0.0
