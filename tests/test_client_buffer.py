"""Unit tests for the client token buffer."""

import pytest

from repro.client.buffer import ClientBuffer
from tests.conftest import occupancy_at_generation


class TestDelivery:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ClientBuffer(rate=0.0)

    def test_out_of_order_delivery_rejected(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(1.0)
        with pytest.raises(ValueError):
            buffer.deliver(0.5)

    def test_delivered_counter(self):
        buffer = ClientBuffer(rate=10.0)
        for t in (0.0, 0.1, 0.2):
            buffer.deliver(t)
        assert buffer.delivered == 3


class TestConsumption:
    def test_first_token_consumed_at_delivery(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(2.0)
        assert buffer.consumption_times == [2.0]

    def test_steady_consumption_when_tokens_ready(self):
        buffer = ClientBuffer(rate=10.0)  # one token per 0.1 s
        for idx in range(4):
            buffer.deliver(0.01 * idx)   # generation outpaces reading
        expected = [0.0, 0.1, 0.2, 0.3]
        assert buffer.consumption_times == pytest.approx(expected)

    def test_consumed_count_monotone_queries(self):
        buffer = ClientBuffer(rate=10.0)
        for idx in range(5):
            buffer.deliver(0.01 * idx)
        assert buffer.consumed_count(0.05) == 1
        assert buffer.consumed_count(0.25) == 3
        assert buffer.consumed_count(10.0) == 5


class TestOccupancy:
    def test_occupancy_grows_with_fast_generation(self):
        buffer = ClientBuffer(rate=1.0)  # slow reader
        for idx in range(10):
            buffer.deliver(0.1 * idx)
        assert buffer.occupancy(1.0) == 8  # 10 delivered, 2 consumed (t=0, t=1)

    def test_occupancy_at_generation_recorded(self):
        buffer = ClientBuffer(rate=1.0)
        for idx in range(5):
            buffer.deliver(0.1 * idx)
        # Token j's occupancy counts itself minus what's been consumed:
        # the first token is consumed the instant it arrives, so the
        # five tokens see B = 0, 1, 2, 3, 4, one token each.
        assert occupancy_at_generation(buffer) == [0, 1, 2, 3, 4]
        assert list(buffer.occupancy_counts) == [1, 1, 1, 1, 1]

    def test_backwards_query_raises(self):
        # The cursor only moves forwards: a query earlier than the last
        # one used to return the later instant's count silently.
        buffer = ClientBuffer(rate=1.0)
        for idx in range(10):
            buffer.deliver(0.1 * idx)
        assert buffer.consumed_count(3.0) == 4
        with pytest.raises(ValueError):
            buffer.consumed_count(1.0)
        assert buffer.consumed_count(3.0) == 4  # the same instant is fine

    def test_deliver_many_walks_the_query_guard(self):
        # deliver_many advances the cursor to its last timestamp: an
        # earlier query must raise, not return the count at 5.0.
        buffer = ClientBuffer(rate=1.0)
        buffer.deliver_many([0.0, 0.5, 1.0, 5.0])
        with pytest.raises(ValueError):
            buffer.consumed_count(2.0)
        assert buffer.consumed_count(5.0) == 4

    def test_deliver_many_walks_the_query_guard_with_nothing_due(self):
        # No consumption is due at the last timestamp (the token at 0.5
        # is consumed at 1.0), yet the guard still moves to 0.5.
        buffer = ClientBuffer(rate=1.0)
        buffer.deliver_many([0.0, 0.5])
        with pytest.raises(ValueError):
            buffer.consumed_count(0.3)
        assert buffer.consumed_count(0.5) == 1

    def test_peek_leaves_the_cursor(self):
        buffer = ClientBuffer(rate=1.0)
        for idx in range(5):
            buffer.deliver(0.1 * idx)  # consumed at 0, 1, 2, 3, 4
        buffer.set_rate(2.0)  # a segment the cursor has not reached
        for idx in range(5, 10):
            buffer.deliver(0.1 * idx)  # consumed at 4.5, 5, ..., 6.5
        assert buffer.peek_consumed_count(5.2) == 7
        assert buffer.peek_consumed_count(9.0) == 10
        # The peeks moved nothing: an earlier real query still answers.
        for now in (1.0, 4.5, 5.2, 9.0):
            peeked = buffer.peek_consumed_count(now)
            assert buffer.consumed_count(now) == peeked

    @pytest.mark.parametrize("rate", [3.0, 7.0, 10.0, 29.0])
    def test_peek_bound_never_undercounts(self, rate):
        # The closed-form bound may overcount by the rounding slack but
        # never undercount, and is exact when nothing is due yet.
        buffer = ClientBuffer(rate=rate)
        for idx in range(400):
            buffer.deliver(0.001 * idx)
        for step in range(1, 700):
            at = 0.0137 * step
            exact = buffer.peek_consumed_count(at)
            bound = buffer.peek_consumed_at_most(at)
            assert exact <= bound <= exact + 2
        assert buffer.peek_consumed_at_most(-1.0) == buffer.peek_consumed_count(-1.0)

    def test_drain_deadline(self):
        buffer = ClientBuffer(rate=2.0)
        for idx in range(5):
            buffer.deliver(0.01 * idx)
        # 4 unread tokens at 2 tok/s = 2 s of slack (1 consumed at start).
        assert buffer.occupancy(0.1) * buffer.interval == pytest.approx(4 * 0.5)


class TestStalls:
    def test_no_stall_when_generation_keeps_up(self):
        buffer = ClientBuffer(rate=10.0)
        for idx in range(20):
            buffer.deliver(0.05 * idx)  # 20 tok/s > 10 tok/s
        assert buffer.stall_time == 0.0

    def test_stall_accrues_on_late_token(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(0.0)    # consumed at 0.0; next wanted at 0.1
        buffer.deliver(0.5)    # 0.4 s late
        assert buffer.stall_time == pytest.approx(0.4)

    def test_startup_delay_not_a_stall(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(5.0)    # huge TTFT, but not a rebuffer event
        assert buffer.stall_time == 0.0

    def test_consumption_shifts_after_stall(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(0.0)
        buffer.deliver(0.5)    # stall; consumed at 0.5
        buffer.deliver(0.52)   # buffered; consumed at 0.6
        assert buffer.consumption_times == pytest.approx([0.0, 0.5, 0.6])
        assert buffer.stall_time == pytest.approx(0.4)

    def test_multiple_stalls_accumulate(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(0.0)
        buffer.deliver(0.3)    # +0.2
        buffer.deliver(0.8)    # +0.4
        assert buffer.stall_time == pytest.approx(0.6)


class TestFinal:
    def test_final_consumption_time(self):
        buffer = ClientBuffer(rate=10.0)
        assert buffer.final_consumption_time() is None
        buffer.deliver(0.0)
        buffer.deliver(0.01)
        assert buffer.final_consumption_time() == pytest.approx(0.1)


class TestDeliverMany:
    def test_empty_timestamps_is_noop(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver_many([])
        assert buffer.delivered == 0
        assert buffer.stall_time == 0.0
        assert list(buffer.occupancy_counts) == []

    def test_single_timestamp_equals_deliver(self):
        bulk = ClientBuffer(rate=10.0)
        scalar = ClientBuffer(rate=10.0)
        for t in (0.0, 0.05, 0.4):
            bulk.deliver_many([t])
            scalar.deliver(t)
        assert bulk.delivered == scalar.delivered
        assert bulk.stall_time == scalar.stall_time
        assert bulk.occupancy_counts == scalar.occupancy_counts
        assert bulk.final_consumption_time() == scalar.final_consumption_time()

    def test_rate_change_mid_delivery_matches_deliver(self):
        # A set_rate landing while the timestamps are being iterated
        # (only reachable from a generator argument) paces the later
        # tokens at the new rate, exactly as deliver + set_rate in the
        # same order would.
        bulk = ClientBuffer(rate=10.0)
        scalar = ClientBuffer(rate=10.0)

        def hostile():
            yield 0.0
            yield 0.05
            bulk.set_rate(20.0)
            yield 0.1
            yield 0.12
            bulk.set_rate(4.0)
            yield 0.5

        bulk.deliver_many(hostile())
        scalar.deliver(0.0)
        scalar.deliver(0.05)
        scalar.set_rate(20.0)
        scalar.deliver(0.1)
        scalar.deliver(0.12)
        scalar.set_rate(4.0)
        scalar.deliver(0.5)
        assert bulk.delivered == scalar.delivered == 5
        assert bulk.stall_time == scalar.stall_time
        assert bulk.occupancy_counts == scalar.occupancy_counts
        assert bulk.final_consumption_time() == scalar.final_consumption_time()
        assert bulk.consumption_times == scalar.consumption_times

    def test_rate_change_between_calls_is_fine(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver_many([0.0, 0.01])
        buffer.set_rate(20.0)
        buffer.deliver_many([0.02, 0.03])
        assert buffer.delivered == 4
