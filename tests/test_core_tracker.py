"""Unit tests for the Request Tracker."""

import pytest

from repro.core.tracker import RequestTracker
from repro.workload.request import RequestState
from tests.conftest import make_request


@pytest.fixture
def tracker() -> RequestTracker:
    return RequestTracker()


class TestRegistration:
    def test_register_creates_buffer(self, tracker):
        entry = tracker.register(make_request(req_id=1, rate=5.0))
        assert entry.buffer.rate == 5.0
        assert 1 in tracker
        assert len(tracker) == 1

    def test_double_register_rejected(self, tracker):
        tracker.register(make_request(req_id=1))
        with pytest.raises(ValueError):
            tracker.register(make_request(req_id=1))

    def test_get_unknown_raises(self, tracker):
        with pytest.raises(KeyError):
            tracker.get(9)


class TestDelivery:
    def test_deliver_updates_request_and_buffer(self, tracker):
        tracker.register(make_request(req_id=1, output=4))
        tracker.deliver_tokens(1, [0.5])
        entry = tracker.get(1)
        assert entry.request.generated == 1
        assert entry.buffer.delivered == 1
        assert entry.request.ttft == pytest.approx(0.5)

    def test_occupancy_and_deadline(self, tracker):
        tracker.register(make_request(req_id=1, output=32, rate=10.0))
        for idx in range(10):
            tracker.deliver_tokens(1, [0.01 * idx])
        occupancy = tracker.occupancy(1, 0.1)
        assert occupancy == 10 - 2  # two consumed by t=0.1
        assert tracker.buffer_seconds(1, 0.1) == pytest.approx(occupancy / 10.0)
        assert tracker.buffer_seconds_many([tracker.get(1).request], 0.1) == [
            tracker.buffer_seconds(1, 0.1)
        ]

    def test_peek_buffers_hold_matches_a_real_query(self, tracker):
        requests = [make_request(req_id=i, output=200, rate=r)
                    for i, r in enumerate((5.0, 10.0, 20.0))]
        for request in requests:
            tracker.register(request)
            for idx in range(120):
                tracker.deliver_tokens(request.req_id, [0.002 * idx])
        for at in (0.5, 2.0, 4.0, 6.5):
            # Peeks first: a real query would move the cursors to `at`.
            answers = {seconds: tracker.peek_buffers_hold(requests, at, seconds)
                       for seconds in (0.0, 1.0, 2.5, 5.0, 30.0)}
            smallest = min(tracker.buffer_seconds_many(requests, at))
            for seconds, holds in answers.items():
                assert holds == (smallest >= seconds), (at, seconds)

    def test_rate_lookup(self, tracker):
        # Buffer seconds are paced at the request's own rate: 8 tokens
        # at t=0, one consumed on arrival, 7 left at 7 tok/s.
        tracker.register(make_request(req_id=3, output=16, rate=7.0))
        for _ in range(8):
            tracker.deliver_tokens(3, [0.0])
        assert tracker.occupancy(3, 0.0) == 7
        assert tracker.buffer_seconds(3, 0.0) == 7 * (1.0 / 7.0)


class TestFinish:
    def test_mark_finished_orders_entries(self, tracker):
        for rid in (1, 2):
            request = make_request(req_id=rid, output=1)
            tracker.register(request)
            request.transition(RequestState.PREFILLING)
            request.transition(RequestState.RUNNING)
        tracker.deliver_tokens(2, [1.0])
        tracker.get(2).request.transition(RequestState.FINISHED)
        tracker.mark_finished(2, 1.0)
        tracker.deliver_tokens(1, [2.0])
        tracker.get(1).request.transition(RequestState.FINISHED)
        tracker.mark_finished(1, 2.0)
        # Without a retirement sink the entries stay, in registration order.
        assert [(e.request.req_id, e.request.finish_time)
                for e in tracker.entries()] == [(1, 2.0), (2, 1.0)]

    def test_first_arrival(self, tracker):
        tracker.register(make_request(req_id=1, arrival=1.0, output=4))
        tracker.register(make_request(req_id=2, arrival=0.5, output=4))
        assert tracker.first_arrival() == 0.5
        tracker.deliver_tokens(1, [3.0])
        assert tracker.first_arrival() == 0.5

    def test_empty_tracker_queries(self, tracker):
        assert tracker.first_arrival() is None
        assert list(tracker.entries()) == []
