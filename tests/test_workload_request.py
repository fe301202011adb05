"""Unit tests for the request lifecycle state machine."""

import pytest

from repro.core.tracker import RequestTracker
from repro.workload.request import InvalidTransition, Request, RequestState
from tests.conftest import make_request


class TestValidation:
    def test_valid_request(self):
        request = make_request()
        assert request.state is RequestState.QUEUED

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prompt": 0},
            {"output": 0},
            {"rate": 0.0},
            {"arrival": -1.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_request(**kwargs)


class TestTransitions:
    def test_normal_lifecycle(self):
        request = make_request()
        for state in (
            RequestState.PREFILLING,
            RequestState.RUNNING,
            RequestState.FINISHED,
        ):
            request.transition(state)
        assert request.is_finished

    def test_preemption_cycle_via_load(self):
        request = make_request()
        request.transition(RequestState.PREFILLING)
        request.transition(RequestState.RUNNING)
        request.transition(RequestState.PREEMPTED)
        request.transition(RequestState.LOADING)
        request.transition(RequestState.RUNNING)
        assert request.state is RequestState.RUNNING

    def test_preemption_cycle_via_recompute(self):
        request = make_request()
        request.transition(RequestState.PREFILLING)
        request.transition(RequestState.RUNNING)
        request.transition(RequestState.PREEMPTED)
        request.transition(RequestState.PREFILLING)
        request.transition(RequestState.RUNNING)
        assert request.state is RequestState.RUNNING

    def test_illegal_transition_raises(self):
        request = make_request()
        with pytest.raises(InvalidTransition):
            request.transition(RequestState.RUNNING)  # must prefill first

    def test_finished_is_terminal(self):
        request = make_request()
        request.transition(RequestState.PREFILLING)
        request.transition(RequestState.RUNNING)
        request.transition(RequestState.FINISHED)
        with pytest.raises(InvalidTransition):
            request.transition(RequestState.RUNNING)


class TestTokens:
    def test_record_token_sets_ttft(self):
        request = make_request(arrival=1.0)
        request.record_token(3.5)
        assert request.ttft == pytest.approx(2.5)
        assert request.first_token_time == 3.5
        assert request.generated == 1

    def test_context_len_tracks_generation(self):
        request = make_request(prompt=64, output=4)
        assert request.context_len == 64
        request.record_token(1.0)
        assert request.context_len == 65
        assert request.remaining_output == 3

    def test_over_generation_rejected(self):
        request = make_request(output=1)
        request.record_token(1.0)
        with pytest.raises(RuntimeError):
            request.record_token(2.0)

    def test_decreasing_timestamps_rejected(self):
        # Order is checked against the client buffer's last generation
        # time, before the request or its buffer moves.
        tracker = RequestTracker(record_traces=False)
        request = make_request(output=4)
        tracker.register(request)
        tracker.deliver_token(request.req_id, 1.0)
        buffer = tracker.get(request.req_id).buffer
        for deliver, late in ((tracker.deliver_token, 0.5),
                              (tracker.deliver_tokens, [0.5, 2.0])):
            with pytest.raises(ValueError):
                deliver(request.req_id, late)
            assert (request.generated, buffer.delivered) == (1, 1)

    def test_repr_is_informative(self):
        request = make_request(req_id=7)
        assert "id=7" in repr(request)
