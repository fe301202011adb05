"""Fast-lane parity tests for the decode path.

A handful of registry cells covering memory pressure, consumer
heterogeneity, clustering, and session callbacks: the default run
(fused windows through the struct-of-arrays batch plane) and the
per-iteration run (every decode window one iteration, delivered by
``deliver_batch``'s reference path) each reproduce the frozen scalar
decode reference (``scalar_decode_reference.json``) — metrics to rel
1e-9 and the single-node timeline exactly.  The full registry sweep
lives in ``test_property_vectorize.py`` (slow lane).  ``deliver_batch``
is also checked directly against ``RequestTracker.deliver_tokens``:
its reference path (small windows) state for state, its array kernel
(large windows) with exact counts and floats to rel 1e-9.
"""

import itertools
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.client.buffer import ClientBuffer
from repro.core.tracker import RequestTracker
from repro.scenarios import build_run, get_scenario
from repro.serving import batchstate
from repro.serving.batchstate import deliver_batch
from repro.workload.request import Request
from tests.conftest import assert_matches_scalar_reference, occupancy_at_generation

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
        # record_traces=False: per-token traces force the reference
        # path row by row; the array kernel requires compact buffers.
        tracker = RequestTracker(record_traces=False)
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
            buf_v = tracker_v.get(request_v.req_id).buffer
            buf_s = tracker_s.get(request_s.req_id).buffer
            assert (_request_state(request_v, buf_v)
                    == _request_state(request_s, buf_s))
            assert buf_v.occupancy_counts == buf_s.occupancy_counts
            assert buf_v.stall_time == buf_s.stall_time
            assert buf_v.delivered == buf_s.delivered
            assert (buf_v.final_consumption_time()
                    == buf_s.final_consumption_time())
            # Probes at or after the last delivery: both paths walk the
            # cursor there, and an earlier query raises.
            for probe in (later[-1], later[-1] + 0.3, 2 * later[-1], 100.0):
                assert buf_v.occupancy(probe) == buf_s.occupancy(probe)

    def test_k1_matches_scalar_deliver_tokens(self):
        # Three buffers the array kernel cannot take: an empty one
        # receiving its first token, a traced one, and one whose rate
        # changed since its last token.  K = 1 runs
        # ClientBuffer.deliver_many on each, which must leave the state
        # deliver_tokens leaves.
        def twin():
            tracker, requests = self._tracked([10.0, 10.0, 10.0])
            tracker.get(1).buffer = ClientBuffer(rate=10.0, record_trace=True)
            for req_id in (1, 2):
                tracker.deliver_tokens(req_id, [0.1, 0.15])
            tracker.get(2).buffer.set_rate(40.0)
            return tracker, requests

        tracker_v, requests_v = twin()
        tracker_s, requests_s = twin()
        for t in (0.3, 0.32, 0.9):
            deliver_batch(tracker_v, requests_v, [t])
            for request in requests_s:
                tracker_s.deliver_tokens(request.req_id, [t])
        for request_v, request_s in zip(requests_v, requests_s):
            buf_v = tracker_v.get(request_v.req_id).buffer
            buf_s = tracker_s.get(request_s.req_id).buffer
            assert (_request_state(request_v, buf_v)
                    == _request_state(request_s, buf_s))
            assert _buffer_state(buf_v) == _buffer_state(buf_s)
            for probe in (0.9, 1.0, 5.0):
                assert buf_v.occupancy(probe) == buf_s.occupancy(probe)
        traced_v, traced_s = tracker_v.get(1).buffer, tracker_s.get(1).buffer
        assert traced_v.generation_times == traced_s.generation_times
        assert traced_v.consumption_times == traced_s.consumption_times
        assert (list(traced_v.occupancy_counts)
                == list(traced_s.occupancy_counts))

    @pytest.mark.parametrize("warm", [True, False])
    def test_delivery_walks_the_query_guard(self, warm):
        # Reference-path rows, array-kernel rows (warm) and the array
        # kernel's fallback rows (a fresh buffer) all walk the
        # consumption cursor to the last timestamp, so a later query
        # for an earlier instant raises instead of answering with the
        # count at that timestamp.
        for limit in (batchstate.REFERENCE_MAX_ELEMENTS, 0):
            tracker, requests = self._tracked([10.0, 20.0])
            if warm:
                for request in requests:
                    tracker.deliver_tokens(request.req_id, [0.1])
            _deliver_with(limit, tracker, requests, [0.5, 2.0, 5.0])
            for request in requests:
                buffer = tracker.get(request.req_id).buffer
                with pytest.raises(ValueError):
                    buffer.consumed_count(2.0)
                assert (buffer.consumed_count(5.0)
                        == buffer.peek_consumed_count(5.0))

    def test_decreasing_times_raise_via_scalar_fallback(self):
        tracker, requests = self._tracked([10.0])
        tracker.deliver_tokens(requests[0].req_id, [0.1])
        with pytest.raises(ValueError):
            deliver_batch(tracker, requests, [0.5, 0.4])

    def test_equal_times_route_to_scalar_and_succeed(self, monkeypatch):
        # Ties are legal deliveries (non-decreasing); the array kernel
        # requires strict increase, so it must hand ties to the
        # reference path, not reject them.
        monkeypatch.setattr(batchstate, "REFERENCE_MAX_ELEMENTS", 0)
        tracker_v, requests_v = self._tracked([10.0])
        tracker_s, requests_s = self._tracked([10.0])
        deliver_batch(tracker_v, requests_v, [0.5, 0.5])
        tracker_s.deliver_tokens(requests_s[0].req_id, [0.5, 0.5])
        buf_v = tracker_v.get(0).buffer
        buf_s = tracker_s.get(0).buffer
        assert requests_v[0].generated == requests_s[0].generated == 2
        assert buf_v.occupancy_counts == buf_s.occupancy_counts
        assert buf_v.occupancy(1.0) == buf_s.occupancy(1.0)

    @pytest.mark.parametrize("limit", [256, 0], ids=["reference", "array"])
    def test_coincident_instants(self, limit, monkeypatch):
        # Generation every 1/32 s against a 0.1 s pacing interval hits
        # consumption instants the scalar chain has drifted off by an
        # ulp or two: 1.0 and 1.5 in the window (one warm token), and
        # 1.5 on a 13-token backlog, whose cursor chain 0.8, 0.9, ...
        # reaches it as 1.5000000000000002.  The array kernel must send
        # those rows to the reference path.
        monkeypatch.setattr(batchstate, "REFERENCE_MAX_ELEMENTS", limit)
        for warm, start in (([0.5], 0.5),
                            ([0.5 + i / 64 for i in range(16)], 0.75)):
            tracker_v, requests_v = self._tracked([10.0])
            tracker_s, requests_s = self._tracked([10.0])
            for tracker in (tracker_v, tracker_s):
                tracker.deliver_tokens(0, warm)
                tracker.get(0).buffer.consumed_count(start)
            times = [start + m / 32 for m in range(1, 33)]
            deliver_batch(tracker_v, requests_v, times)
            tracker_s.deliver_tokens(0, times)
            buf_v = tracker_v.get(0).buffer
            buf_s = tracker_s.get(0).buffer
            assert _buffer_state(buf_v) == _buffer_state(buf_s), warm
            assert (_request_state(requests_v[0], buf_v)
                    == _request_state(requests_s[0], buf_s))

    def test_overflow_raises_before_mutation(self):
        tracker, requests = self._tracked([10.0])
        request = requests[0]
        request.generated = request.output_len - 1
        with pytest.raises(RuntimeError):
            deliver_batch(tracker, requests, [0.1, 0.2])

        # K = 1 delivers row by row through ClientBuffer.deliver_many:
        # a failing last row must still find the rows before it
        # untouched.  Row 0 has an empty buffer (a fallback row for the
        # array kernel), row 1 a warm one; row 2 overflows or is not
        # tracked at all.
        def snapshot(tracker, requests):
            return [(_request_state(r, tracker.get(r.req_id).buffer),
                     _buffer_state(tracker.get(r.req_id).buffer))
                    for r in requests[:2]]

        for failing, error in (("overflow", RuntimeError),
                               ("untracked", KeyError)):
            tracker, requests = self._tracked([10.0, 10.0, 10.0])
            tracker.deliver_tokens(1, [0.1])
            if failing == "overflow":
                requests[2].generated = requests[2].output_len
            else:
                requests[2] = Request(req_id=9, arrival_time=0.0,
                                      prompt_len=4, output_len=64, rate=10.0)
            before = snapshot(tracker, requests)
            with pytest.raises(error):
                deliver_batch(tracker, requests, [0.2])
            assert snapshot(tracker, requests) == before

        # Row 1 overflows; row 0, warm or with an empty buffer, must
        # come out untouched, not half-delivered.
        for warm_row0 in (True, False):
            tracker, requests = self._tracked([10.0, 10.0])
            tracker.deliver_tokens(1, [0.1])
            if warm_row0:
                tracker.deliver_tokens(0, [0.1])
            requests[1].generated = requests[1].output_len - 1
            row0 = requests[0]
            buffer0 = tracker.get(0).buffer
            before = (_request_state(row0, buffer0), buffer0.delivered)
            with pytest.raises(RuntimeError):
                deliver_batch(tracker, requests, [0.2, 0.3])
            assert (_request_state(row0, buffer0), buffer0.delivered) == before
            assert requests[1].generated == requests[1].output_len - 1


# --- the array kernel against the reference recurrence ---------------

BUFFER_FIELDS = (
    "_delivered", "_last_gen", "_last_consume", "_tail_interval",
    "_next_consume", "_cursor_interval", "_consumed", "_stall_time",
)

# Short gaps keep tokens ahead of the reader (a backlog); long ones
# outrun it (stalls, and a cursor parked at the stream end).
gaps = st.one_of(st.floats(0.001, 0.06), st.floats(0.2, 1.5))
row_spec = st.tuples(
    st.sampled_from([2.0, 5.0, 10.0, 40.0]),  # read rate
    st.lists(gaps, min_size=1, max_size=30),  # warm-up deliveries
    st.floats(0.0, 3.0),  # cursor query delay after warm-up
    st.sampled_from([None, 4.0, 20.0]),  # rate change before window
)
row_specs = st.lists(row_spec, min_size=1, max_size=6)
windows = st.lists(st.lists(gaps, min_size=1, max_size=40),
                   min_size=1, max_size=2)


def _kernel_twin(specs):
    """A tracker whose buffers sit in the states ``specs`` describe,
    all on the array kernel's path (segment queue drained), plus the
    instant after which a window may start."""
    tracker = RequestTracker(record_traces=False)
    requests = []
    start = 0.0
    for i, (rate, warm, delay, new_rate) in enumerate(specs):
        request = Request(req_id=i, arrival_time=0.0, prompt_len=4,
                          output_len=10_000, rate=rate)
        tracker.register(request)
        requests.append(request)
        times = list(itertools.accumulate(warm))
        tracker.deliver_tokens(i, times)
        buffer = tracker.get(i).buffer
        now = times[-1] + delay
        buffer.consumed_count(now)
        while buffer._segments:
            now = max(now, buffer._segments[0][1])
            buffer.consumed_count(now)
        if new_rate is not None:
            buffer.set_rate(new_rate)
        start = max(start, now)
    return tracker, requests, start


def _deliver_with(limit, tracker, requests, times):
    with mock.patch.object(batchstate, "REFERENCE_MAX_ELEMENTS", limit):
        deliver_batch(tracker, requests, times)


def _request_state(request, buffer):
    # Requests keep no per-token timestamps: their count, their
    # first-token latency, and the buffer's last generation time pin a
    # delivery.
    return (request.generated, request.ttft, buffer._last_gen)


def _buffer_state(buffer):
    # Types too: every path must write native Python values.
    state = [(name, type(getattr(buffer, name)), getattr(buffer, name))
             for name in BUFFER_FIELDS]
    state.append(("_segments", list(buffer._segments)))
    state.append(("histogram", list(buffer.occupancy_counts)))
    return state


def _assert_matches_reference(buffer, reference):
    """``buffer``, advanced by the array kernel, against ``reference``,
    advanced by ``deliver_tokens``: counts, occupancy counts, segment
    indices and field types exactly, float fields to rel 1e-9 (the
    kernel's multiplies and pairwise stall sum drift a few ulp)."""
    for name in BUFFER_FIELDS:
        value, expected = getattr(buffer, name), getattr(reference, name)
        assert type(value) is type(expected), name
        if isinstance(expected, float):
            assert value == pytest.approx(expected, rel=1e-9, abs=0.0), name
        else:
            assert value == expected, name
    assert buffer.occupancy_counts == reference.occupancy_counts
    assert len(buffer._segments) == len(reference._segments)
    for (index, consume, interval), expected in zip(buffer._segments,
                                                     reference._segments):
        assert type(index) is type(expected[0])
        assert index == expected[0]
        assert (consume, interval) == pytest.approx(expected[1:], rel=1e-9,
                                                    abs=0.0)


# Every column after the first stalls: the reader is parked and each
# token comes 0.5 s after the last at a 0.1 s pace, so the stall sum
# has 39 terms and runs numpy's pairwise grouping.
@example(specs=[(10.0, [0.1], 2.0, None)], window_gaps=[[0.5] * 40])
# A rate change since the tail segment, and a backlog of 30 tokens.
@example(specs=[(10.0, [0.01] * 30, 0.0, 20.0)], window_gaps=[[0.01] * 8])
# Near-ties (the two cases of test_coincident_instants) beside a row
# without one: the kernel sends only the near-tie rows to the
# reference path.
@example(specs=[(10.0, [0.5], 0.0, None), (5.0, [0.3], 0.0, None)],
         window_gaps=[[1 / 32] * 32])
@example(specs=[(10.0, [0.5] + [1 / 64] * 15, 1 / 64, None),
                (3.0, [0.7], 0.0, None)],
         window_gaps=[[1 / 32] * 32])
@given(specs=row_specs, window_gaps=windows)
@settings(max_examples=150, deadline=None)
def test_array_kernel_matches_reference(specs, window_gaps):
    # Twin trackers: every window through the array kernel on one, and
    # through deliver_tokens per request on the other.  Both cursors
    # are then walked to the window's end, where the kernel leaves its
    # own, so consumed counts and segments compare directly.
    array_side = _kernel_twin(specs)
    reference_side = _kernel_twin(specs)
    t = array_side[2]
    for gaps_k in window_gaps:
        times = [t + g for g in itertools.accumulate(gaps_k)]
        t = times[-1]
        _deliver_with(0, *array_side[:2], times)
        tracker, requests = reference_side[:2]
        for request in requests:
            tracker.deliver_tokens(request.req_id, times)
        for side in (array_side, reference_side):
            for request in side[1]:
                side[0].get(request.req_id).buffer.consumed_count(t)
    for request_a, request_r in zip(array_side[1], reference_side[1]):
        buffer_a = array_side[0].get(request_a.req_id).buffer
        buffer_r = reference_side[0].get(request_r.req_id).buffer
        assert (_request_state(request_a, buffer_a)
                == _request_state(request_r, buffer_r))
        _assert_matches_reference(buffer_a, buffer_r)


# --- the array kernel gives the same result in row slices -------------

def _recording_sliced_kernel(calls):
    """``_array_kernel_sliced`` that also records what it returned."""
    kernel = batchstate._array_kernel_sliced

    def record(buffers, times):
        rows, segments = kernel(buffers, times)
        calls.append((list(rows), list(segments)))
        return calls[-1]

    return record


# Rows whose window leaves a fresh anchor unconsumed (a rate change on
# a backlog) sit in later slices, so a segment record must be
# re-numbered by its slice's first row.
@example(specs=[(10.0, [0.3], 0.0, None),
                (10.0, [0.01] * 30, 0.0, 20.0),
                (5.0, [0.01] * 20, 0.0, 2.0),
                (10.0, [0.01] * 30, 0.0, 40.0)],
         window_gaps=[[0.01] * 8, [0.02] * 5], slice_rows=1)
# Near-tie rows (test_coincident_instants' two cases) in the second
# and third slices: their None rows must keep their places.
@example(specs=[(5.0, [0.3], 0.0, None), (2.0, [0.4], 0.0, None),
                (10.0, [0.5], 0.0, None),
                (10.0, [0.5] + [1 / 64] * 15, 1 / 64, None),
                (3.0, [0.7], 0.0, None)],
         window_gaps=[[1 / 32] * 32], slice_rows=2)
@given(specs=st.lists(row_spec, min_size=2, max_size=8),
       window_gaps=windows, slice_rows=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_array_kernel_slices_match_one_call(specs, window_gaps, slice_rows):
    # The same windows through the array kernel at the module's cap
    # (one call for windows this small) and with the cap cut to
    # slice_rows rows: equal kernel output, segment records included,
    # and equal buffers after the write-back.
    whole_side = _kernel_twin(specs)
    sliced_side = _kernel_twin(specs)
    whole_calls = []
    sliced_calls = []
    t = whole_side[2]
    with mock.patch.object(batchstate, "REFERENCE_MAX_ELEMENTS", 0):
        for gaps_k in window_gaps:
            times = [t + g for g in itertools.accumulate(gaps_k)]
            t = times[-1]
            assert len(specs) * len(times) <= batchstate.ARRAY_KERNEL_MAX_ELEMENTS
            with mock.patch.object(batchstate, "_array_kernel_sliced",
                                   _recording_sliced_kernel(whole_calls)):
                deliver_batch(*whole_side[:2], times)
            with mock.patch.object(batchstate, "ARRAY_KERNEL_MAX_ELEMENTS",
                                   slice_rows * len(times)), \
                    mock.patch.object(batchstate, "_array_kernel_sliced",
                                      _recording_sliced_kernel(sliced_calls)):
                deliver_batch(*sliced_side[:2], times)
    assert sliced_calls == whole_calls
    for request_w, request_s in zip(whole_side[1], sliced_side[1]):
        buffer_w = whole_side[0].get(request_w.req_id).buffer
        buffer_s = sliced_side[0].get(request_s.req_id).buffer
        assert (_request_state(request_w, buffer_w)
                == _request_state(request_s, buffer_s))
        assert _buffer_state(buffer_w) == _buffer_state(buffer_s)
        assert vars(buffer_w) == vars(buffer_s)


@pytest.mark.parametrize("extra, expected",
                         [(0, "reference"), (1, "array")])
def test_kernel_choice_follows_window_size(extra, expected, monkeypatch):
    # One row of K = limit (+ 1) iterations: the window's element count
    # sits on each side of the crossover constant.
    k = batchstate.REFERENCE_MAX_ELEMENTS + extra
    tracker = RequestTracker(record_traces=False)
    request = Request(req_id=0, arrival_time=0.0, prompt_len=4,
                      output_len=k + 1, rate=10.0)
    tracker.register(request)
    tracker.deliver_tokens(0, [0.1])
    calls = []
    kernel = batchstate._array_kernel_sliced
    deliver_many = ClientBuffer.deliver_many
    monkeypatch.setattr(batchstate, "_array_kernel_sliced",
                        lambda *args: calls.append("array") or kernel(*args))
    monkeypatch.setattr(
        ClientBuffer, "deliver_many",
        lambda buffer, times: (calls.append("reference")
                               or deliver_many(buffer, times)),
    )
    # Every token stalls (0.15 s gaps at a 0.1 s pace): no near-tie row
    # falls back to the reference path.
    deliver_batch(tracker, [request], [0.1 + 0.15 * (i + 1) for i in range(k)])
    assert calls == [expected]
    assert request.generated == k + 1


# One step of a delivery schedule: the path it takes, the window's
# generation gaps (one gap is a K = 1 window), an optional rate change
# (row, new rate) before it, and how long after it the buffers are
# queried (long delays drain backlogs and pending stall anchors).
schedule_steps = st.lists(
    st.tuples(
        st.sampled_from(["deliver", "deliver_many", "reference", "array"]),
        st.lists(st.floats(min_value=1e-3, max_value=0.4),
                 min_size=1, max_size=12),
        st.one_of(st.none(), st.tuples(st.integers(0, 3),
                                       st.sampled_from([2.0, 7.0, 30.0]))),
        st.floats(min_value=0.0, max_value=1.5),
    ),
    min_size=1,
    max_size=25,
)


# Backlogs built fast, then stalls, through both paths.
@example(rates=[10.0, 40.0],
         steps=[("deliver", [0.1], None, 0.0),
                ("array", [0.01] * 8, None, 0.0),
                ("reference", [0.01] * 8, (1, 7.0), 0.05),
                ("array", [0.3] * 6, None, 0.0),
                ("reference", [0.3] * 6, None, 1.0)])
@given(rates=st.lists(st.sampled_from([3.0, 10.0, 25.0, 60.0]),
                      min_size=1, max_size=4),
       steps=schedule_steps)
@settings(max_examples=150, deadline=None)
def test_occupancy_counts_match_reference_tally(rates, steps):
    # Whatever path delivered them, a buffer's occupancy counts are the
    # tally of the per-token B_{i,j} a trace-on buffer records for the
    # same deliveries: dense over 0..max, every entry at least one.
    tracker = RequestTracker(record_traces=False)
    requests = []
    references = []
    for i, rate in enumerate(rates):
        request = Request(req_id=i, arrival_time=0.0, prompt_len=4,
                          output_len=10**6, rate=rate)
        tracker.register(request)
        requests.append(request)
        references.append(ClientBuffer(rate=rate, record_trace=True))
    t = 0.0
    for path, gaps, rate_change, delay in steps:
        if rate_change is not None and rate_change[0] < len(rates):
            row, rate = rate_change
            tracker.get(row).buffer.set_rate(rate)
            references[row].set_rate(rate)
        times = [t + gap for gap in itertools.accumulate(gaps)]
        if path == "deliver":
            for request in requests:
                for instant in times:
                    tracker.deliver_tokens(request.req_id, [instant])
        elif path == "deliver_many":
            for request in requests:
                tracker.deliver_tokens(request.req_id, times)
        else:
            _deliver_with(10**9 if path == "reference" else 0,
                          tracker, requests, times)
        for reference in references:
            for instant in times:
                reference.deliver(instant)
        t = times[-1] + delay
        for request in requests:
            tracker.get(request.req_id).buffer.consumed_count(t)
    for request, reference in zip(requests, references):
        occupancies = occupancy_at_generation(reference)
        tally = [0] * (max(occupancies) + 1)
        for occ in occupancies:
            tally[occ] += 1
        counts = tracker.get(request.req_id).buffer.occupancy_counts
        assert list(counts) == tally
        assert min(counts) >= 1
