"""Fast-lane parity tests for the decode path.

A handful of registry cells covering memory pressure, consumer
heterogeneity, clustering, and session callbacks: the default run
(fused windows through the struct-of-arrays batch plane) and the
per-iteration run (every decode iteration through ``complete_decode``)
each reproduce the frozen scalar decode reference
(``scalar_decode_reference.json``) — metrics to rel 1e-9 and the
single-node timeline exactly.  The full registry sweep lives in
``test_property_vectorize.py`` (slow lane).  ``deliver_batch`` is also
checked directly against the scalar ``RequestTracker.deliver_tokens``.
"""

import pytest

from repro.core.tracker import RequestTracker
from repro.scenarios import build_run, get_scenario
from repro.serving.batchstate import deliver_batch
from tests.conftest import assert_matches_scalar_reference

# One cell per workload family, scaled for the fast lane: Table 1
# burst cells on both hardware targets, a multi-replica cluster
# (routing + per-node decode), and multi-turn sessions (finish
# callbacks fire mid-run).  Clusters run their shards inline, so the
# per-iteration patch reaches every replica.
FAST_PARITY_SCENARIOS = [
    ("table1-h200-a", 0.10),
    ("table1-rtx4090-c", 0.25),
    ("cluster-burst-4x", 0.25),
    ("bursty-sessions", 0.25),
]


@pytest.mark.parametrize("name,scale", FAST_PARITY_SCENARIOS)
def test_fast_parity(name, scale, per_iteration):
    spec = get_scenario(name, scale=scale, seed=0, shards=1)
    with per_iteration():
        unfused = build_run(spec).execute()
    assert_matches_scalar_reference(unfused, name, scale, 0)
    assert_matches_scalar_reference(build_run(spec).execute(), name, scale, 0)


class TestDeliverBatchEdges:
    """deliver_batch degenerate shapes, checked against the scalar
    tracker path on identical twins."""

    def _tracked(self, rates):
        # record_traces=False: per-token traces force the scalar
        # fallback row-by-row; the kernel requires compact buffers.
        tracker = RequestTracker(record_traces=False)
        from repro.workload.request import Request
        requests = []
        for i, rate in enumerate(rates):
            request = Request(req_id=i, arrival_time=0.0, prompt_len=4,
                              output_len=64, rate=rate)
            tracker.register(request)
            requests.append(request)
        return tracker, requests

    def test_empty_times_is_noop(self):
        tracker, requests = self._tracked([10.0, 20.0])
        deliver_batch(tracker, requests, [])
        for request in requests:
            assert request.generated == 0
            assert tracker.get(request.req_id).buffer.delivered == 0

    def test_empty_requests_is_noop(self):
        tracker, _ = self._tracked([10.0])
        deliver_batch(tracker, [], [1.0, 2.0])

    @pytest.mark.parametrize("times", [[0.5], [0.5, 0.7, 1.4]])
    def test_matches_scalar_deliver_tokens(self, times):
        rates = [5.0, 10.0, 40.0]
        tracker_v, requests_v = self._tracked(rates)
        tracker_s, requests_s = self._tracked(rates)
        # A warm-up token puts every buffer on the fast path
        # (_last_consume set); a second round exercises carried state.
        for tracker, requests in ((tracker_v, requests_v),
                                  (tracker_s, requests_s)):
            for request in requests:
                tracker.deliver_tokens(request.req_id, [0.1])
        deliver_batch(tracker_v, requests_v, times)
        for request in requests_s:
            tracker_s.deliver_tokens(request.req_id, times)
        later = [t + times[-1] for t in times]
        deliver_batch(tracker_v, requests_v, later)
        for request in requests_s:
            tracker_s.deliver_tokens(request.req_id, later)
        for request_v, request_s in zip(requests_v, requests_s):
            assert request_v.generated == request_s.generated
            assert request_v.token_times == request_s.token_times
            buf_v = tracker_v.get(request_v.req_id).buffer
            buf_s = tracker_s.get(request_s.req_id).buffer
            assert buf_v.occupancy_histogram == buf_s.occupancy_histogram
            assert buf_v.stall_time == buf_s.stall_time
            assert buf_v.delivered == buf_s.delivered
            assert (buf_v.final_consumption_time()
                    == buf_s.final_consumption_time())
            for probe in (0.2, times[-1], 2 * times[-1], 100.0):
                assert buf_v.occupancy(probe) == buf_s.occupancy(probe)

    def test_decreasing_times_raise_via_scalar_fallback(self):
        tracker, requests = self._tracked([10.0])
        tracker.deliver_tokens(requests[0].req_id, [0.1])
        with pytest.raises(ValueError):
            deliver_batch(tracker, requests, [0.5, 0.4])

    def test_equal_times_route_to_scalar_and_succeed(self):
        # Ties are legal deliveries (non-decreasing); the kernel
        # requires strict increase, so it must hand ties to the
        # scalar path, not reject them.
        tracker_v, requests_v = self._tracked([10.0])
        tracker_s, requests_s = self._tracked([10.0])
        deliver_batch(tracker_v, requests_v, [0.5, 0.5])
        tracker_s.deliver_tokens(requests_s[0].req_id, [0.5, 0.5])
        buf_v = tracker_v.get(0).buffer
        buf_s = tracker_s.get(0).buffer
        assert requests_v[0].generated == requests_s[0].generated == 2
        assert buf_v.occupancy_histogram == buf_s.occupancy_histogram
        assert buf_v.occupancy(1.0) == buf_s.occupancy(1.0)

    def test_overflow_raises_before_mutation(self):
        tracker, requests = self._tracked([10.0])
        request = requests[0]
        request.generated = request.output_len - 1
        with pytest.raises(RuntimeError):
            deliver_batch(tracker, requests, [0.1, 0.2])
