"""Property-based tests for the hierarchical KV manager.

Random sequences of lifecycle operations (prefill, decode, drain,
preempt, resume, release) must never corrupt pool accounting: used
blocks match owner sums, cpu copies never exceed what was generated,
dirty counts stay non-negative, and draining the event engine leaves
no orphaned blocks.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from repro.memory.blocks import OutOfMemory
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.sim.engine import SimEngine
from repro.workload.request import Request

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

N_REQUESTS = 4

operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["prefill", "decode", "drain", "preempt", "resume_load",
             "recompute", "release"]
        ),
        st.integers(min_value=0, max_value=N_REQUESTS - 1),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=80,
)


def fresh_manager(write_through=True, enable_offload=True):
    engine = SimEngine()
    kv = HierarchicalKVManager(
        engine=engine,
        gpu_capacity_blocks=48,
        kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e6,
        config=KVManagerConfig(
            block_size=16, write_through=write_through,
            enable_offload=enable_offload,
        ),
    )
    return engine, kv


def drive(engine, kv, ops, write_through=True):
    """Apply an operation sequence, tolerating (only) legal rejections."""
    now = [0.0]

    def tick():
        now[0] += 0.01
        return now[0]

    state = {i: "new" for i in range(N_REQUESTS)}
    for op, rid, amount in ops:
        t = tick()
        engine.run(until=t)
        try:
            if op == "prefill" and state[rid] == "new":
                kv.register(rid)
                kv.allocate_for_prefill(rid, amount)
                kv.on_prefill_complete(rid, amount)
                state[rid] = "resident"
            elif op == "decode" and state[rid] == "resident":
                kv.on_decode_token(rid)
            elif op == "drain":
                kv.drain_writes(t, t + amount / 1000.0)
            elif op == "preempt" and state[rid] == "resident":
                kv.preempt(rid, t)
                state[rid] = "offloaded"
            elif op == "resume_load" and state[rid] == "offloaded":
                if kv.can_resume_load(rid):
                    kv.resume_load(rid, t)
                    state[rid] = "resident"
            elif op == "recompute" and state[rid] == "offloaded":
                kv.prepare_recompute(rid)
                ctx = max(1, amount)
                kv.allocate_for_prefill(rid, ctx)
                kv.on_prefill_complete(rid, ctx)
                state[rid] = "resident"
            elif op == "release" and state[rid] in ("resident", "offloaded"):
                kv.release(rid)
                state[rid] = "released"
        except OutOfMemory:
            pass  # legal rejection under pressure
        kv.check_invariants()
        assert kv.gpu_pool.used <= kv.gpu_pool.capacity
    return state


class TestKVManagerProperties:
    @given(ops=operations)
    @settings(max_examples=150, deadline=None)
    def test_random_lifecycles_keep_invariants(self, ops):
        engine, kv = fresh_manager()
        drive(engine, kv, ops)
        engine.run()  # flush deferred frees
        kv.check_invariants()

    # A second preempt inside the first eviction's transfer must not
    # free the blocks that eviction's deferred free still owns.
    @example(ops=[("prefill", 3, 21), ("preempt", 3, 1), ("resume_load", 3, 1),
                  ("preempt", 3, 1), ("resume_load", 3, 1)])
    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_write_back_mode_invariants(self, ops):
        engine, kv = fresh_manager(write_through=False)
        drive(engine, kv, ops, write_through=False)
        engine.run()
        kv.check_invariants()

    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_recompute_only_mode_invariants(self, ops):
        engine, kv = fresh_manager(enable_offload=False)
        drive(engine, kv, ops)
        engine.run()
        kv.check_invariants()

    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_full_release_returns_all_memory(self, ops):
        engine, kv = fresh_manager()
        state = drive(engine, kv, ops)
        for rid, s in state.items():
            if s in ("resident", "offloaded"):
                kv.release(rid)
        engine.run()
        assert kv.gpu_pool.used == 0
        assert kv.cpu_pool.used == 0

    @given(ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_cpu_copy_never_exceeds_context(self, ops):
        engine, kv = fresh_manager()
        drive(engine, kv, ops)
        for rid in [r for r, rec in kv._records.items() if rec.resident]:
            record = kv.record(rid)
            assert record.cpu_tokens <= record.gpu_tokens
            assert record.dirty_tokens >= 0


# --- fused advance ≡ per-token rounds -------------------------------------------

def _decode_ready_twin(prompts, warmup, retired, sharing, synced, capacity):
    """A manager with resident requests ready to decode, built the same
    way every call so two calls give identical twins.

    ``retired`` earlier requests finish first: with sharing identities
    they leave refs-0 cached blocks behind (session 2 is never resumed,
    sessions 0 and 1 are re-attached by the live requests), so decode
    growth has to reclaim from the cache once the pool is full.
    ``synced`` drains every dirty tail before returning.
    """
    engine = SimEngine()
    kv = HierarchicalKVManager(
        engine=engine,
        gpu_capacity_blocks=capacity,
        kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e6,
        config=KVManagerConfig(block_size=16, cpu_capacity_blocks=4096),
    )

    def admit(rid, prompt, session):
        request = Request(
            req_id=rid, arrival_time=0.0, prompt_len=prompt, output_len=512,
            rate=10.0, session_id=session if sharing else None,
        )
        kv.register(rid, request)
        try:
            kv.allocate_for_prefill(rid, prompt)
        except OutOfMemory:
            kv.release(rid)
            return False
        kv.on_prefill_complete(rid, prompt)
        return True

    for j in range(retired):
        if admit(100 + j, prompts[j % len(prompts)], 2 - j % 3):
            kv.release(100 + j)
    live = []
    for rid, (prompt, extra) in enumerate(zip(prompts, warmup)):
        if not admit(rid, prompt, rid % 2):
            continue
        live.append(rid)
        for _ in range(extra):
            try:
                kv.on_decode_token(rid)
            except OutOfMemory:
                break
    if synced:
        kv.drain_writes(0.0, 1e3)
    return kv, tuple(live)


def _kv_state(kv, req_ids):
    pool = kv.gpu_pool
    return {
        "gpu": (pool.used, pool.peak, pool.total_allocated, dict(pool.usage)),
        "cpu": (kv.cpu_pool.used, dict(kv.cpu_pool.usage)),
        "dirty": list(kv._dirty),
        "tokens": {
            rid: (kv.record(rid).gpu_tokens, kv.record(rid).cpu_tokens)
            for rid in req_ids
        },
        "cached": list(kv.prefix.cached),
        "stats": dict(kv.stats),
    }


@given(
    prompts=st.lists(st.integers(min_value=1, max_value=90),
                     min_size=1, max_size=N_REQUESTS),
    warmup=st.lists(st.integers(min_value=0, max_value=20),
                    min_size=N_REQUESTS, max_size=N_REQUESTS),
    retired=st.integers(min_value=0, max_value=3),
    sharing=st.booleans(),
    synced=st.booleans(),
    capacity=st.integers(min_value=8, max_value=48),
    k=st.integers(min_value=1, max_value=48),
)
@settings(max_examples=200, deadline=None)
def test_fused_advance_equals_per_token_rounds(prompts, warmup, retired,
                                               sharing, synced, capacity, k):
    """``fused_decode_advance(ids, k, None)`` leaves the same KV state
    as ``k`` rounds of ``on_decode_token`` per id on a twin manager:
    pool usage and peak, dirty set (in order), per-request GPU/CPU
    tokens, the refs-0 cache and every counter (``prefix_*``
    included)."""
    build = lambda: _decode_ready_twin(prompts, warmup, retired, sharing,
                                       synced, capacity)
    fused, req_ids = build()
    scalar, _ = build()
    assert _kv_state(fused, req_ids) == _kv_state(scalar, req_ids)
    # The fused path's precondition: growth fits the pool for all k.
    k = fused.max_fused_decode_iterations(req_ids, k)
    assume(k >= 1)
    fused.fused_decode_advance(req_ids, k, None)
    for _ in range(k):
        for rid in req_ids:
            scalar.on_decode_token(rid)
    assert _kv_state(fused, req_ids) == _kv_state(scalar, req_ids)
    fused.check_invariants()
    scalar.check_invariants()
