"""Block-granular KV pool allocator.

KV memory is managed in fixed-size blocks of ``block_size`` tokens
(PagedAttention-style).  The pool tracks per-owner usage so leaks are
detectable and the scheduler's memory constraint ``Σ x_i·l_i ≤ M`` can
be enforced exactly.

Invariants (asserted by :meth:`BlockPool.check_invariants`, exercised
by the property suites):

* ``0 <= used <= capacity`` and ``used + free == capacity`` at every
  instant;
* ``used`` equals the sum of all per-owner counts, and no owner entry
  is ever zero or negative;
* ``peak`` / ``total_allocated`` are monotone — the high-water mark
  and the cumulative allocation demand (ownership *transfers* move
  blocks between owners without counting as new demand).
"""

from __future__ import annotations



class OutOfMemory(RuntimeError):
    """Raised when an allocation exceeds the pool's free capacity."""


class BlockPool:
    """Fixed-capacity pool of KV blocks with per-owner accounting."""

    def __init__(self, capacity_blocks: int, block_size: int = 16) -> None:
        if capacity_blocks <= 0:
            raise ValueError(f"capacity_blocks must be positive, got {capacity_blocks}")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.capacity = capacity_blocks
        self.block_size = block_size
        self._used = 0
        # Lifetime accounting: the high-water mark of `used` and the
        # cumulative block demand (every allocate() call; ownership
        # transfers excluded).  Pure integer bumps on the allocation
        # path — they never change allocation behaviour.
        self.peak = 0
        self.total_allocated = 0
        self._owners: dict[int, int] = {}
        # Read-only alias of the per-owner map for hot-path queries
        # (`pool.usage.get(owner, 0)` == `pool.used_by(owner)` without
        # the method call); the dict object is never rebound.
        self.usage = self._owners

    # --- size helpers -----------------------------------------------------
    def blocks_for_tokens(self, n_tokens: int) -> int:
        """Blocks required to hold ``n_tokens`` of KV cache."""
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be non-negative, got {n_tokens}")
        return -(-n_tokens // self.block_size)  # ceil division

    # --- queries ------------------------------------------------------------
    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def used_by(self, owner: int) -> int:
        return self._owners.get(owner, 0)

    def can_allocate(self, n_blocks: int) -> bool:
        return n_blocks <= self.free

    # --- mutation ------------------------------------------------------------
    def allocate(self, owner: int, n_blocks: int) -> None:
        """Allocate ``n_blocks`` to ``owner``; raises OutOfMemory if short."""
        if n_blocks < 0:
            raise ValueError(f"n_blocks must be non-negative, got {n_blocks}")
        if n_blocks > self.free:
            raise OutOfMemory(
                f"owner {owner} requested {n_blocks} blocks, only {self.free} free "
                f"(capacity {self.capacity})"
            )
        if n_blocks == 0:
            return
        self._used += n_blocks
        if self._used > self.peak:
            self.peak = self._used
        self.total_allocated += n_blocks
        self._owners[owner] = self._owners.get(owner, 0) + n_blocks

    def transfer(self, src: int, dst: int, n_blocks: int) -> None:
        """Move ``n_blocks`` of ownership from ``src`` to ``dst``.

        Pure re-labelling: ``used`` is unchanged and neither ``peak``
        nor ``total_allocated`` advances (the blocks were already
        counted when first allocated).  The prefix-sharing block table
        uses this to publish a request's blocks to the shared owner and
        to promote cached blocks back to a request.
        """
        if n_blocks < 0:
            raise ValueError(f"n_blocks must be non-negative, got {n_blocks}")
        if src == dst or n_blocks == 0:
            return
        held = self._owners.get(src, 0)
        if n_blocks > held:
            raise ValueError(
                f"owner {src} transferring {n_blocks} blocks but holds only {held}"
            )
        if held == n_blocks:
            del self._owners[src]
        else:
            self._owners[src] = held - n_blocks
        self._owners[dst] = self._owners.get(dst, 0) + n_blocks

    def release(self, owner: int, n_blocks: int) -> None:
        """Return ``n_blocks`` of ``owner``'s allocation to the pool."""
        if n_blocks < 0:
            raise ValueError(f"n_blocks must be non-negative, got {n_blocks}")
        held = self._owners.get(owner, 0)
        if n_blocks > held:
            raise ValueError(
                f"owner {owner} releasing {n_blocks} blocks but holds only {held}"
            )
        if n_blocks == 0:
            return
        self._used -= n_blocks
        if held == n_blocks:
            del self._owners[owner]
        else:
            self._owners[owner] = held - n_blocks

    def release_all(self, owner: int) -> int:
        """Release everything held by ``owner``; returns block count."""
        held = self._owners.pop(owner, 0)
        self._used -= held
        return held

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property tests)."""
        total = sum(self._owners.values())
        assert total == self._used, f"owner sum {total} != used {self._used}"
        assert 0 <= self._used <= self.capacity
        assert all(count > 0 for count in self._owners.values())
        assert self.peak >= self._used and self.peak <= self.capacity
