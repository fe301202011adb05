"""Unit tests for the hierarchical KV cache manager (§5)."""

import pytest

from repro.memory.blocks import OutOfMemory
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.sim.engine import SimEngine


def make_kv(
    engine=None,
    gpu_blocks=64,
    write_through=True,
    enable_offload=True,
    load_evict_overlap=True,
    bandwidth=1e6,           # 1 MB/s so transfer times are visible
    kv_bytes=1000.0,         # 1 kB per token
    block_size=16,
):
    engine = engine or SimEngine()
    config = KVManagerConfig(
        block_size=block_size,
        enable_offload=enable_offload,
        write_through=write_through,
        load_evict_overlap=load_evict_overlap,
    )
    kv = HierarchicalKVManager(
        engine=engine,
        gpu_capacity_blocks=gpu_blocks,
        kv_bytes_per_token=kv_bytes,
        pcie_bandwidth_bytes_per_s=bandwidth,
        config=config,
    )
    return engine, kv


class TestLifecycle:
    def test_register_and_release(self):
        _, kv = make_kv()
        kv.register(1)
        assert kv.record(1).gpu_tokens == 0
        kv.release(1)
        with pytest.raises(KeyError):
            kv.record(1)

    def test_double_register_rejected(self):
        _, kv = make_kv()
        kv.register(1)
        with pytest.raises(ValueError):
            kv.register(1)

    def test_unknown_request_rejected(self):
        _, kv = make_kv()
        with pytest.raises(KeyError):
            kv.record(42)

    def test_release_unknown_is_noop(self):
        _, kv = make_kv()
        kv.release(42)  # no exception


class TestPrefillAndDecode:
    def test_prefill_allocates_blocks(self):
        _, kv = make_kv()
        kv.register(1)
        kv.allocate_for_prefill(1, 33)  # 3 blocks of 16
        assert kv.gpu_pool.used_by(1) == 3
        kv.on_prefill_complete(1, 33)
        assert kv.record(1).gpu_tokens == 33
        assert kv.record(1).resident

    def test_prefill_oom_raises(self):
        _, kv = make_kv(gpu_blocks=2)
        kv.register(1)
        with pytest.raises(OutOfMemory):
            kv.allocate_for_prefill(1, 100)

    def test_decode_grows_context(self):
        _, kv = make_kv()
        kv.register(1)
        kv.allocate_for_prefill(1, 16)
        kv.on_prefill_complete(1, 16)
        kv.on_decode_token(1)
        assert kv.record(1).gpu_tokens == 17
        assert kv.gpu_pool.used_by(1) == 2  # crossed a block boundary

    def test_decode_requires_residency(self):
        _, kv = make_kv()
        kv.register(1)
        with pytest.raises(RuntimeError):
            kv.on_decode_token(1)


class TestWriteThrough:
    def _resident(self, kv, req_id=1, tokens=64):
        kv.register(req_id)
        kv.allocate_for_prefill(req_id, tokens)
        kv.on_prefill_complete(req_id, tokens)

    def test_backlog_counts_dirty_tokens(self):
        _, kv = make_kv()
        self._resident(kv, tokens=64)
        assert kv.write_backlog_tokens() == 64

    def test_drain_writes_syncs_prefix(self):
        _, kv = make_kv()
        self._resident(kv, tokens=64)
        # Budget: 32 ms at 1 MB/s = 32 kB = 32 tokens.
        synced = kv.drain_writes(now=0.0, horizon=0.032)
        assert synced == 32
        assert kv.record(1).cpu_tokens == 32
        assert kv.write_backlog_tokens() == 32

    def test_drain_respects_priority(self):
        _, kv = make_kv()
        self._resident(kv, req_id=1, tokens=32)
        self._resident(kv, req_id=2, tokens=32)
        kv.drain_writes(now=0.0, horizon=0.032, priority=lambda rid: rid)
        # Request 2 has higher priority: fully synced first.
        assert kv.record(2).cpu_tokens == 32
        assert kv.record(1).cpu_tokens == 0

    def test_drain_disabled_without_write_through(self):
        _, kv = make_kv(write_through=False)
        self._resident(kv)
        assert kv.drain_writes(0.0, 1.0) == 0
        assert kv.write_backlog_tokens() == 0

    def test_drain_disabled_without_offload(self):
        _, kv = make_kv(enable_offload=False)
        self._resident(kv)
        assert kv.drain_writes(0.0, 1.0) == 0

    def test_drain_zero_window(self):
        _, kv = make_kv()
        self._resident(kv)
        assert kv.drain_writes(1.0, 1.0) == 0


class TestPreempt:
    def _resident(self, kv, req_id=1, tokens=64):
        kv.register(req_id)
        kv.allocate_for_prefill(req_id, tokens)
        kv.on_prefill_complete(req_id, tokens)

    def test_synced_preemption_is_instant(self):
        engine, kv = make_kv()
        self._resident(kv, tokens=64)
        kv.drain_writes(0.0, 1.0)  # sync everything (64 kB in 1 s budget)
        done = kv.preempt(1, now=0.5)
        assert done == 0.5
        assert kv.gpu_pool.used_by(1) == 0
        assert kv.record(1).cpu_tokens == 64
        assert not kv.record(1).resident

    def test_dirty_tail_pays_transfer(self):
        engine, kv = make_kv()
        self._resident(kv, tokens=64)
        kv.drain_writes(0.0, 0.032)  # 32 synced, 32 dirty
        done = kv.preempt(1, now=0.1)
        # 32 dirty tokens = 32 kB at 1 MB/s = 32 ms.
        assert done == pytest.approx(0.1 + 0.032)
        # Synced blocks freed now; dirty tail blocks freed at `done`.
        assert kv.gpu_pool.used_by(1) == 2  # 32 tokens / 16 per block
        engine.run()
        assert kv.gpu_pool.used_by(1) == 0

    def test_write_back_transfers_everything(self):
        engine, kv = make_kv(write_through=False)
        self._resident(kv, tokens=64)
        done = kv.preempt(1, now=0.0)
        assert done == pytest.approx(0.064)  # full 64 kB
        engine.run()
        assert kv.gpu_pool.used_by(1) == 0
        assert kv.record(1).cpu_tokens == 64

    def test_offload_disabled_drops_cache(self):
        _, kv = make_kv(enable_offload=False)
        self._resident(kv, tokens=64)
        done = kv.preempt(1, now=0.0)
        assert done == 0.0
        assert kv.gpu_pool.used_by(1) == 0
        assert kv.record(1).cpu_tokens == 0
        assert kv.stats["recompute_drops"] == 1

    def test_preempt_non_resident_rejected(self):
        _, kv = make_kv()
        kv.register(1)
        with pytest.raises(RuntimeError):
            kv.preempt(1, now=0.0)

    def test_memory_freed_callback_fires(self):
        engine, kv = make_kv()
        self._resident(kv, tokens=64)
        fired = []
        kv.on_memory_freed = lambda: fired.append(engine.now())
        kv.preempt(1, now=0.0)  # all dirty -> deferred free
        engine.run()
        assert fired  # callback fired when the tail's blocks came back


class TestResume:
    def _offloaded(self, kv, req_id=1, tokens=64):
        kv.register(req_id)
        kv.allocate_for_prefill(req_id, tokens)
        kv.on_prefill_complete(req_id, tokens)
        kv.drain_writes(0.0, 10.0)
        kv.preempt(req_id, now=0.0)

    def test_resume_load_timing(self):
        _, kv = make_kv()
        self._offloaded(kv, tokens=64)
        done = kv.resume_load(1, now=1.0)
        assert done == pytest.approx(1.0 + 0.064)
        assert kv.record(1).resident
        assert kv.record(1).gpu_tokens == 64

    def test_resume_load_reserves_blocks(self):
        _, kv = make_kv()
        self._offloaded(kv, tokens=64)
        kv.resume_load(1, now=1.0)
        assert kv.gpu_pool.used_by(1) == 4

    def test_can_resume_load(self):
        _, kv = make_kv()
        self._offloaded(kv, tokens=64)
        assert kv.can_resume_load(1)

    def test_cannot_resume_without_host_copy(self):
        _, kv = make_kv(enable_offload=False)
        kv.register(1)
        kv.allocate_for_prefill(1, 64)
        kv.on_prefill_complete(1, 64)
        kv.preempt(1, now=0.0)
        assert not kv.can_resume_load(1)
        with pytest.raises(RuntimeError):
            kv.resume_load(1, now=0.0)

    def test_resume_resident_rejected(self):
        _, kv = make_kv()
        kv.register(1)
        kv.allocate_for_prefill(1, 16)
        kv.on_prefill_complete(1, 16)
        with pytest.raises(RuntimeError):
            kv.resume_load(1, now=0.0)

    def test_prepare_recompute_drops_host_copy(self):
        _, kv = make_kv()
        self._offloaded(kv, tokens=64)
        kv.prepare_recompute(1)
        assert kv.record(1).cpu_tokens == 0
        assert kv.cpu_pool.used_by(1) == 0

    def test_write_through_incremental_update_after_resume(self):
        """§5.1 advantage (3): only new tokens are dirty after a resume."""
        _, kv = make_kv()
        self._offloaded(kv, tokens=64)
        kv.resume_load(1, now=1.0)
        kv.on_decode_token(1)
        assert kv.record(1).dirty_tokens == 1


class TestLoadEvictOverlap:
    def test_overlap_runs_concurrently(self):
        engine, kv = make_kv()
        # Request 1 resident and dirty; request 2 offloaded.
        kv.register(1)
        kv.allocate_for_prefill(1, 64)
        kv.on_prefill_complete(1, 64)
        kv.register(2)
        kv.allocate_for_prefill(2, 64)
        kv.on_prefill_complete(2, 64)
        kv.drain_writes(0.0, 10.0)
        kv.preempt(2, now=0.0)
        kv.preempt(1, now=0.0)        # synced: instant
        # Now load request 2 back while (hypothetically) evictions run.
        done = kv.resume_load(2, now=0.0)
        assert done == pytest.approx(0.064)

    def test_no_overlap_serialises_behind_evictions(self):
        engine, kv = make_kv(load_evict_overlap=False, write_through=False)
        kv.register(1)
        kv.allocate_for_prefill(1, 64)
        kv.on_prefill_complete(1, 64)
        kv.register(2)
        kv.allocate_for_prefill(2, 64)
        kv.on_prefill_complete(2, 64)
        kv.preempt(2, now=0.0)        # write-back: d2h busy until 0.064
        kv.preempt(1, now=0.0)        # d2h busy until 0.128
        done = kv.resume_load(2, now=0.0)
        # The load waits for both evictions before starting.
        assert done == pytest.approx(0.128 + 0.064)


class TestEstimates:
    def test_io_estimate_decomposition(self):
        _, kv = make_kv()
        est = kv.estimate_io_time(context_tokens=64, dirty_tokens=32, now=0.0)
        assert est == pytest.approx(0.032 + 0.064)

    def test_io_estimate_includes_queueing(self):
        _, kv = make_kv()
        kv.link.h2d.submit(64_000, now=0.0)  # busy 64 ms
        est = kv.estimate_io_time(context_tokens=0, dirty_tokens=0, now=0.0)
        assert est == pytest.approx(0.064)

    def test_invariants(self):
        _, kv = make_kv()
        kv.register(1)
        kv.allocate_for_prefill(1, 48)
        kv.on_prefill_complete(1, 48)
        kv.drain_writes(0.0, 1.0)
        kv.check_invariants()
