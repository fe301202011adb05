"""Property-based tests for the block pool allocator."""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.memory.blocks import BlockPool, OutOfMemory
from tests.test_memory_blocks import kv_manager

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

# An operation is (op, owner, n_blocks).
operations = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "release", "release_all"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=60,
)


class TestPoolProperties:
    @given(ops=operations)
    @settings(max_examples=200, deadline=None)
    def test_invariants_under_random_ops(self, ops):
        """Used never exceeds capacity; owner sums always match."""
        pool = BlockPool(capacity_blocks=100, block_size=16)
        for op, owner, n_blocks in ops:
            try:
                if op == "alloc":
                    pool.allocate(owner, n_blocks)
                elif op == "release":
                    pool.release(owner, min(n_blocks, pool.used_by(owner)))
                else:
                    pool.release_all(owner)
            except OutOfMemory:
                pass
            pool.check_invariants()
            assert 0 <= pool.used <= pool.capacity
            assert pool.free == pool.capacity - pool.used

    @given(
        tokens=st.integers(min_value=0, max_value=10_000),
        block_size=st.integers(min_value=1, max_value=128),
    )
    def test_blocks_for_tokens_is_tight_ceiling(self, tokens, block_size):
        blocks = kv_manager(block_size).blocks_for_tokens(tokens)
        assert blocks * block_size >= tokens
        assert (blocks - 1) * block_size < tokens or blocks == 0

    @given(
        allocs=st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 20)), max_size=20
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_full_teardown_restores_capacity(self, allocs):
        pool = BlockPool(capacity_blocks=200)
        owners = set()
        for owner, n_blocks in allocs:
            try:
                pool.allocate(owner, n_blocks)
                owners.add(owner)
            except OutOfMemory:
                pass
        for owner in owners:
            pool.release_all(owner)
        assert pool.used == 0
        assert pool.free == pool.capacity
