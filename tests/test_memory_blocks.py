"""Unit tests for the block pool allocator."""

import pytest

from repro.memory.blocks import BlockPool, OutOfMemory


@pytest.fixture
def pool() -> BlockPool:
    return BlockPool(capacity_blocks=100, block_size=16)


class TestSizing:
    def test_blocks_for_tokens_ceil(self, pool):
        assert pool.blocks_for_tokens(0) == 0
        assert pool.blocks_for_tokens(1) == 1
        assert pool.blocks_for_tokens(16) == 1
        assert pool.blocks_for_tokens(17) == 2

    def test_negative_tokens_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.blocks_for_tokens(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BlockPool(0)
        with pytest.raises(ValueError):
            BlockPool(10, block_size=0)


class TestAllocate:
    def test_allocate_and_free_counters(self, pool):
        pool.allocate(owner=1, n_blocks=30)
        assert pool.used == 30
        assert pool.free == 70
        assert pool.used_by(1) == 30

    def test_over_allocation_raises(self, pool):
        pool.allocate(1, 90)
        with pytest.raises(OutOfMemory):
            pool.allocate(2, 20)

    def test_failed_allocation_changes_nothing(self, pool):
        pool.allocate(1, 90)
        try:
            pool.allocate(2, 20)
        except OutOfMemory:
            pass
        assert pool.used == 90
        assert pool.used_by(2) == 0

    def test_zero_allocation_is_noop(self, pool):
        pool.allocate(1, 0)
        assert pool.used == 0
        assert pool.used_by(1) == 0

    def test_can_allocate(self, pool):
        assert pool.can_allocate(100)
        assert not pool.can_allocate(101)

    def test_multiple_owners(self, pool):
        pool.allocate(1, 10)
        pool.allocate(2, 20)
        pool.allocate(1, 5)
        assert pool.used_by(1) == 15
        assert pool.used_by(2) == 20
        assert pool.used == 35


class TestRelease:
    def test_partial_release(self, pool):
        pool.allocate(1, 30)
        pool.release(1, 10)
        assert pool.used_by(1) == 20
        assert pool.free == 80

    def test_release_all(self, pool):
        pool.allocate(1, 30)
        assert pool.release_all(1) == 30
        assert pool.used == 0
        assert pool.used_by(1) == 0

    def test_release_all_unknown_owner(self, pool):
        assert pool.release_all(99) == 0

    def test_over_release_raises(self, pool):
        pool.allocate(1, 5)
        with pytest.raises(ValueError):
            pool.release(1, 6)

    def test_full_release_removes_owner(self, pool):
        pool.allocate(1, 5)
        pool.release(1, 5)
        assert pool.used_by(1) == 0
        assert 1 not in pool._owners

    def test_invariants_hold(self, pool):
        pool.allocate(1, 10)
        pool.allocate(2, 20)
        pool.release(1, 4)
        pool.check_invariants()
