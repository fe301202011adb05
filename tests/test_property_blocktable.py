"""Property tests for the prefix block table and pool transfer.

Drives ``HierarchicalKVManager`` with identity-bearing requests
through randomised request lifecycles — admit, decode, preempt,
resume (load or recompute), finish, engine flush — and checks the
full invariant set after **every** operation:

* no reference count is ever negative (asserted inside
  ``PrefixBlockTable.check_invariants``),
* ``used + free == capacity`` on every pool (``BlockPool``
  invariants), with the shared-owner ledger matching the index,
* cached blocks are exactly the refs-0 entries, chains stay
  contiguous, and per-request ``shared_blocks`` matches held refs.

Also covers :meth:`BlockPool.transfer` directly: ownership
re-labelling conserves ``used``/``free`` and never bumps the
allocation counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.blocks import BlockPool, OutOfMemory
from repro.memory.blocktable import SHARED_OWNER
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.sim.engine import SimEngine
from repro.workload.request import Request

pytestmark = pytest.mark.slow


# --- BlockPool.transfer --------------------------------------------------------

transfer_ops = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "release", "transfer"]),
        st.integers(min_value=-1, max_value=3),   # src owner (-1 = shared)
        st.integers(min_value=-1, max_value=3),   # dst owner
        st.integers(min_value=0, max_value=8),    # block count
    ),
    max_size=60,
)


@given(ops=transfer_ops)
@settings(max_examples=200, deadline=None)
def test_pool_transfer_conserves_accounting(ops):
    pool = BlockPool(capacity_blocks=24)
    for action, src, dst, n in ops:
        used_before = pool.used
        allocated_before = pool.total_allocated
        if action == "allocate":
            try:
                pool.allocate(src, n)
            except OutOfMemory:
                pass
        elif action == "release":
            pool.release(src, min(n, pool.used_by(src)))
        else:
            held = pool.used_by(src)
            if n <= held or src == dst:
                # src == dst is a documented no-op, even when overdrawn.
                pool.transfer(src, dst, n)
                # Pure re-labelling: nothing allocated, nothing freed.
                assert pool.used == used_before
                assert pool.total_allocated == allocated_before
                if src != dst:
                    assert pool.used_by(src) == held - n
            else:
                with pytest.raises(ValueError):
                    pool.transfer(src, dst, n)
        assert pool.used + pool.free == pool.capacity
        pool.check_invariants()


@given(n=st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_pool_transfer_rejects_negative(n):
    pool = BlockPool(capacity_blocks=16)
    pool.allocate(0, n)
    with pytest.raises(ValueError):
        pool.transfer(0, 1, -1)
    with pytest.raises(ValueError):
        pool.transfer(1, 0, 1)  # owner 1 holds nothing
    pool.check_invariants()


# --- block-table lifecycle -----------------------------------------------------

lifecycle_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["admit", "decode", "preempt", "resume", "finish", "flush"]
        ),
        st.integers(min_value=0, max_value=3),     # request slot
        st.integers(min_value=8, max_value=260),   # prompt length
    ),
    max_size=70,
)


@given(
    ops=lifecycle_ops,
    capacity=st.integers(min_value=16, max_value=96),
    offload=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_lifecycle_preserves_invariants(ops, capacity, offload):
    engine = SimEngine()
    config = KVManagerConfig(cpu_capacity_blocks=4096, enable_offload=offload)
    kv = HierarchicalKVManager(
        engine, capacity, kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e9, config=config,
    )
    # slot -> (req_id, context_tokens, state); sessions cycle over two
    # namespaces so successive requests in a slot actually share.
    slots = {}
    next_id = 0
    now = 0.0

    def check():
        kv.check_invariants()
        assert kv.gpu_pool.used + kv.gpu_pool.free == kv.gpu_pool.capacity
        assert kv.gpu_pool.used_by(SHARED_OWNER) == len(kv.prefix.index)

    for action, slot, prompt in ops:
        state = slots.get(slot)
        if action == "admit" and state is None:
            rid = next_id
            next_id += 1
            prompt = min(prompt, (capacity - 2) * kv.gpu_pool.block_size)
            request = Request(
                req_id=rid, arrival_time=now, prompt_len=prompt,
                output_len=8, rate=10.0, session_id=slot % 2,
            )
            kv.register(rid, request)
            try:
                kv.allocate_for_prefill(rid, prompt)
                kv.on_prefill_complete(rid, prompt)
            except OutOfMemory:
                # Admission failed; retire immediately (drops any refs
                # the attach step already took).
                kv.release(rid)
            else:
                slots[slot] = [rid, prompt, "resident"]
        elif action == "decode" and state and state[2] == "resident":
            try:
                kv.on_decode_token(state[0])
            except OutOfMemory:
                pass
            else:
                state[1] += 1
        elif action == "preempt" and state and state[2] == "resident":
            now = engine.now()
            kv.preempt(state[0], now)
            state[2] = "preempted"
        elif action == "resume" and state and state[2] == "preempted":
            rid, context = state[0], state[1]
            now = max(now, engine.now())
            if kv.record(rid).cpu_tokens > 0 and kv.can_resume_load(rid):
                kv.resume_load(rid, now)
                state[2] = "resident"
            else:
                kv.prepare_recompute(rid)
                try:
                    kv.allocate_for_prefill(rid, context)
                    kv.on_prefill_complete(rid, context)
                except OutOfMemory:
                    kv.release(rid)
                    slots.pop(slot)
                else:
                    state[2] = "resident"
        elif action == "finish" and state:
            kv.release(state[0])
            slots.pop(slot)
        elif action == "flush":
            engine.run(until=engine.now() + 1e6)
        check()

    # Drain everything: remaining requests retire, deferred frees land.
    for slot in list(slots):
        kv.release(slots.pop(slot)[0])
        check()
    engine.run(until=engine.now() + 1e9)
    check()
    # Every non-shared block left belongs to the cache (refs == 0).
    assert kv.gpu_pool.used == kv.prefix.evictable_blocks
    # Reclaiming the whole cache returns the pool to empty.
    kv.prefix.reclaim(kv.prefix.evictable_blocks)
    check()
    assert kv.gpu_pool.used == 0


@given(
    prompts=st.lists(st.integers(min_value=16, max_value=200),
                     min_size=2, max_size=6),
    prefix_len=st.integers(min_value=16, max_value=120),
)
@settings(max_examples=100, deadline=None)
def test_group_fanout_refcounts_balance(prompts, prefix_len):
    """N concurrent members of one prefix group: total refs on the
    shared chain equals the number of live attachments; finishing all
    members leaves only refs-0 cached blocks."""
    engine = SimEngine()
    config = KVManagerConfig(cpu_capacity_blocks=4096)
    kv = HierarchicalKVManager(
        engine, 512, kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e9, config=config,
    )
    live = []
    for rid, prompt in enumerate(prompts):
        plen = min(prefix_len, prompt)
        request = Request(
            req_id=rid, arrival_time=0.0, prompt_len=prompt, output_len=4,
            rate=10.0, prefix_group=9, prefix_len=plen,
        )
        kv.register(rid, request)
        kv.allocate_for_prefill(rid, prompt)
        kv.on_prefill_complete(rid, prompt)
        live.append(rid)
        kv.check_invariants()
    total_refs = sum(b.refs for b in kv.prefix.index.values())
    held = sum(len(chain) for chain in kv.prefix.refs_held.values())
    assert total_refs == held
    for rid in live:
        kv.release(rid)
        kv.check_invariants()
    assert all(b.refs == 0 for b in kv.prefix.index.values())
    assert kv.gpu_pool.used == kv.prefix.evictable_blocks
