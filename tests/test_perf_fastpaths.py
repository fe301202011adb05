"""Equivalence and whitebox tests for the incremental hot paths.

The perf refactor (closed-form buffer occupancy, KV dirty-set, drain
fast path) must be *behaviour-preserving to the bit*.  These tests pin
that claim:

* the segment-cursor :class:`ClientBuffer` against a reference
  re-implementation of the original per-token pointer scan, over
  random delivery/stall/rate-change traces;
* tracker queries seeing same-instant deliveries (scalar and batch
  plane) and mid-stream ``set_rate``;
* run reports with token traces on vs off;
* chunked-write drain ordering (priority desc, registration asc) and
  the uniform-backlog fast path.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.client.buffer import ClientBuffer
from repro.core.scheduler import TokenFlowScheduler
from repro.core.tracker import RequestTracker
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.serving import batchstate
from repro.serving.batchstate import deliver_batch
from repro.serving.config import ServingConfig
from repro.serving.metrics import report_to_dict
from repro.serving.server import ServingSystem
from repro.sim.engine import SimEngine
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec
from tests.conftest import make_request


class ReferenceBuffer:
    """The original O(tokens) pointer-scan consumption model, verbatim.

    Kept as the oracle: the production buffer's closed-form cursor must
    reproduce these floats exactly (same additions in the same order).
    """

    def __init__(self, rate):
        self.rate = rate
        self._interval = 1.0 / rate
        self._gen_times = []
        self._consume_times = []
        self._stall_time = 0.0
        self._occupancy_at_gen = []
        self._consumed_ptr = 0

    def set_rate(self, rate):
        if rate != self.rate:
            self.rate = rate
            self._interval = 1.0 / rate

    def deliver(self, timestamp):
        if self._gen_times and timestamp < self._gen_times[-1]:
            raise ValueError("deliveries must have non-decreasing timestamps")
        if self._consume_times:
            ideal = self._consume_times[-1] + self._interval
            consume = max(ideal, timestamp)
            if timestamp > ideal:
                self._stall_time += timestamp - ideal
        else:
            consume = timestamp
        self._gen_times.append(timestamp)
        self._consume_times.append(consume)
        self._occupancy_at_gen.append(self.occupancy(timestamp))

    def consumed_count(self, now):
        while (
            self._consumed_ptr < len(self._consume_times)
            and self._consume_times[self._consumed_ptr] <= now
        ):
            self._consumed_ptr += 1
        return self._consumed_ptr

    def occupancy(self, now):
        return len(self._gen_times) - self.consumed_count(now)

    def buffer_seconds(self, now):
        return self.occupancy(now) * self._interval


# One trace step: (gap to next delivery, optional new rate, query offset).
steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.5),
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=40.0)),
        st.floats(min_value=0.0, max_value=2.0),
    ),
    min_size=1,
    max_size=120,
)
rates = st.floats(min_value=0.5, max_value=50.0)


class TestClosedFormEquivalence:
    @given(rate=rates, trace=steps)
    @settings(max_examples=300, deadline=None)
    def test_matches_pointer_scan_bit_for_bit(self, rate, trace):
        fast = ClientBuffer(rate=rate)
        reference = ReferenceBuffer(rate=rate)
        t = 0.0
        for gap, new_rate, query_offset in trace:
            if new_rate is not None:
                fast.set_rate(new_rate)
                reference.set_rate(new_rate)
            t += gap
            fast.deliver(t)
            reference.deliver(t)
            # Queries are non-decreasing (monotone simulation time).
            now = t + query_offset
            assert fast.occupancy(now) == reference.occupancy(now)
            assert (fast.occupancy(now) * fast.interval
                    == reference.buffer_seconds(now))
            t = now
        assert fast.stall_time == reference._stall_time
        assert fast.consumption_times == reference._consume_times
        assert fast.generation_times == reference._gen_times
        tally = [0] * (max(reference._occupancy_at_gen) + 1)
        for occ in reference._occupancy_at_gen:
            tally[occ] += 1
        assert list(fast.occupancy_counts) == tally

    @given(rate=rates, trace=steps)
    @settings(max_examples=100, deadline=None)
    def test_trace_off_matches_trace_on(self, rate, trace):
        lean = ClientBuffer(rate=rate, record_trace=False)
        full = ClientBuffer(rate=rate, record_trace=True)
        t = 0.0
        for gap, new_rate, query_offset in trace:
            if new_rate is not None:
                lean.set_rate(new_rate)
                full.set_rate(new_rate)
            t += gap
            lean.deliver(t)
            full.deliver(t)
            now = t + query_offset
            assert lean.occupancy(now) == full.occupancy(now)
            t = now
        assert lean.stall_time == full.stall_time
        assert lean.occupancy_counts == full.occupancy_counts
        assert lean.final_consumption_time() == full.final_consumption_time()
        with pytest.raises(RuntimeError):
            lean.consumption_times


class TestDeliveryGuards:
    def test_backwards_delivery_rejected_after_stall(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(0.0)
        buffer.deliver(1.0)   # stall re-bases consumption at t=1.0
        with pytest.raises(ValueError):
            buffer.deliver(0.5)

    def test_backwards_delivery_rejected_without_trace(self):
        buffer = ClientBuffer(rate=10.0, record_trace=False)
        buffer.deliver(1.0)
        with pytest.raises(ValueError):
            buffer.deliver(0.999)


class TestTrackerQueries:
    @pytest.mark.parametrize("limit", [256, 0], ids=["reference", "array"])
    def test_delivery_is_seen_at_same_instant(self, limit, monkeypatch):
        # Queries read the buffer cursor directly, so a delivery at the
        # query instant shows in the next query at that instant — by
        # the tracker's own deliver_tokens, by deliver_batch at K = 1
        # and by a K >= 2 window ending at the query instant, whether
        # it runs ClientBuffer.deliver_many per row (reference) or the
        # array kernel writes the buffer back (array).
        monkeypatch.setattr(batchstate, "REFERENCE_MAX_ELEMENTS", limit)
        tracker = RequestTracker(record_traces=False)
        request = make_request(req_id=1, output=32, rate=10.0)
        tracker.register(request)
        tracker.deliver_tokens(1, [0.0])
        assert tracker.occupancy(1, 0.05) == 0  # token 0 consumed at 0.0
        tracker.deliver_tokens(1, [0.05])
        assert tracker.occupancy(1, 0.05) == 1
        deliver_batch(tracker, [request], [0.05])
        assert tracker.occupancy(1, 0.05) == 2
        assert tracker.occupancy(1, 0.07) == 2
        deliver_batch(tracker, [request], [0.06, 0.07])
        assert tracker.occupancy(1, 0.07) == 4
        assert tracker.buffer_seconds(1, 0.07) == 4 * 0.1
        assert tracker.min_buffer_seconds([request], 0.07) == 4 * 0.1

    def test_set_rate_mid_stream_changes_seconds(self):
        tracker = RequestTracker()
        tracker.register(make_request(req_id=1, output=64, rate=10.0))
        for idx in range(10):
            tracker.deliver_tokens(1, [0.01 * idx])
        now = 0.1
        occupancy = tracker.occupancy(1, now)
        assert tracker.buffer_seconds(1, now) == occupancy * (1.0 / 10.0)
        # Adaptive controllers mutate the buffer's rate directly: the
        # occupancy at this instant is unchanged while the derived
        # seconds pick up the new interval immediately.
        tracker.get(1).buffer.set_rate(20.0)
        assert tracker.occupancy(1, now) == occupancy
        assert tracker.buffer_seconds(1, now) == occupancy * (1.0 / 20.0)

    def test_min_buffer_seconds_matches_scalar_queries(self):
        tracker = RequestTracker()
        requests = []
        for rid, rate in ((1, 10.0), (2, 5.0), (3, 25.0)):
            request = make_request(req_id=rid, output=64, rate=rate)
            tracker.register(request)
            requests.append(request)
            for idx in range(rid * 3):
                tracker.deliver_tokens(rid, [0.01 * idx])
        now = 0.5
        expected = min(tracker.buffer_seconds(r.req_id, now) for r in requests)
        assert tracker.min_buffer_seconds(requests, now) == expected
        with pytest.raises(ValueError):
            tracker.min_buffer_seconds([], now)


class TestReportTraceParity:
    def _run(self, record_traces: bool):
        spec = WorkloadSpec(
            arrival="burst", n_requests=12, burst_spread=0.25,
            rates=RateMixture.fixed(10.0),
        )
        requests = WorkloadBuilder(spec, RngStreams(7)).build()
        config = ServingConfig(
            hardware="h200", model="llama3-8b", mem_frac=0.01, max_batch=4,
            record_token_traces=record_traces,
        )
        system = ServingSystem(config, TokenFlowScheduler())
        system.submit(requests)
        system.run(until=50_000.0)
        assert system.unfinished == 0
        return system.report()

    def test_reports_identical_with_and_without_traces(self):
        lean = report_to_dict(self._run(False))
        full = report_to_dict(self._run(True))
        assert lean == full


class TestDrainWriteOrdering:
    def _manager(self, kv_bytes_per_token=1.0):
        return HierarchicalKVManager(
            engine=SimEngine(),
            gpu_capacity_blocks=1024,
            kv_bytes_per_token=kv_bytes_per_token,
            pcie_bandwidth_bytes_per_s=1.0,  # 1 byte/s: tight budgets
            config=KVManagerConfig(block_size=16),
        )

    def _resident(self, kv, req_id, gpu_tokens):
        kv.register(req_id)
        kv.allocate_for_prefill(req_id, gpu_tokens)
        kv.on_prefill_complete(req_id, gpu_tokens)

    def test_priority_order_when_budget_is_scarce(self):
        kv = self._manager()
        self._resident(kv, 1, 8)    # dirty tails: 8, 24, 8 tokens
        self._resident(kv, 2, 24)
        self._resident(kv, 3, 8)
        priorities = {1: 1.0, 2: 5.0, 3: 9.0}
        # Budget of 10 bytes = 10 tokens: the highest-priority record
        # (3) syncs fully, then (2) gets the remaining 2 tokens.
        synced = kv.drain_writes(0.0, 10.0, priority=lambda r: priorities[r])
        assert synced == 10
        assert kv.record(3).cpu_tokens == 8
        assert kv.record(2).cpu_tokens == 2
        assert kv.record(1).cpu_tokens == 0
        kv.check_invariants()

    def test_priority_ties_break_by_registration_order(self):
        kv = self._manager()
        self._resident(kv, 5, 8)
        self._resident(kv, 2, 8)   # registered second despite lower id
        synced = kv.drain_writes(0.0, 8.0, priority=lambda r: 0.0)
        assert synced == 8
        assert kv.record(5).cpu_tokens == 8   # first registered wins the tie
        assert kv.record(2).cpu_tokens == 0

    def test_uniform_fast_path_matches_full_sync(self):
        kv = self._manager()
        for rid in (1, 2, 3):
            self._resident(kv, rid, 8)
        # Ample budget + uniform tails: the no-sort fast path must sync
        # everything and empty the dirty set.
        synced = kv.drain_writes(0.0, 1_000.0, priority=lambda r: float(r))
        assert synced == 24
        assert kv.write_backlog_tokens() == 0
        for rid in (1, 2, 3):
            assert kv.record(rid).cpu_tokens == 8
        kv.check_invariants()
