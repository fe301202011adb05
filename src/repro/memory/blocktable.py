"""Prefix-sharing block table: KV blocks with identity and refcounts.

:mod:`repro.memory.blocks` models KV memory as per-owner block
*counts*; this module gives blocks *identity* so requests that
provably share a token prefix can map it onto the same physical
blocks instead of allocating fresh ones — the
cacheflow/vLLM ``BlockSpaceManager`` idea (SNIPPETS.md Snippets 2–3)
restated for the simulator.  It is the KV manager's only allocator:
a request without a sharing identity never reaches the index, so its
blocks stay plain per-request counts.

Identity model
--------------
The simulator has no token *content*, so content hashes are modelled
positionally: a request's :meth:`~repro.workload.request.Request.sharing_identity`
names a **namespace** — ``("sess", session_id)`` for conversation
turns (each turn re-feeds the previous context verbatim, so positions
align by construction) or ``("grp", prefix_group)`` for requests that
share a common prompt prefix of ``prefix_len`` tokens — and a block's
content hash is ``(namespace, block_index)``.  Two requests share a
block exactly when a real prefix cache would find equal hashes for
that span.

Block lifecycle (see docs/memory-model.md for the full diagram)::

    allocate ──▶ private ──publish──▶ shared (refs ≥ 1)
                    │                   │ last ref dropped
                    │ finish            ▼
                    └──donate──▶ cached (refs = 0) ──▶ evicted / promoted

* **attach** (prefill allocation): a new request walks the index from
  block 0 and takes a reference on every matching full block; a
  matching *partial* boundary block is **promoted** (taken over,
  ``refs == 0``) or **copy-on-write forked** (copied, ``refs >= 1``).
* **publish** (prefill complete): the request's own full-block prefix
  (and partial tail, for unbounded identities) moves under the shared
  owner so concurrent requests can reference it.
* **detach** (preempt) / **finish** (release): references drop; blocks
  whose last owner retires become *cached* (refs 0, still resident,
  LRU-ordered) and are reclaimed on demand.

Invariants (asserted by :meth:`PrefixBlockTable.check_invariants`):

* no reference count is ever negative;
* the pool's shared-owner block count equals the index size (every
  shared or cached block is physically resident, exactly once);
* ``cached`` is exactly the set of index entries with ``refs == 0``;
* each request's reference chain is a contiguous block prefix, and its
  length equals the ``KVRecord.shared_blocks`` the hierarchical
  manager folds into its held-block arithmetic;
* pool-level ``used + free == capacity`` is untouched — the table only
  re-labels ownership (:meth:`BlockPool.transfer`), so identity-less
  requests see exactly the count-only pool accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.memory.blocks import BlockPool

#: Pool owner id for blocks held by the shared index (referenced or
#: cached).  Request ids are non-negative, so -1 can never collide.
SHARED_OWNER = -1

#: Stats the table maintains inside the KV manager's ``stats`` dict
#: (surfaced through ``RunReport.kv_stats``).
PREFIX_STAT_KEYS = (
    "prefix_lookups",       # attach() calls for requests with identity
    "prefix_hits",          # attaches that reused at least one token
    "prefix_shared_blocks",  # full-block references taken
    "prefix_tokens_reused",  # tokens served from shared/cached blocks
    "prefix_blocks_saved",  # allocations avoided (refs + promotions)
    "cache_promotes",       # cached partial tails taken over in place
    "cow_forks",            # copy-on-write copies of live partial tails
    "prefix_evictions",     # cached blocks reclaimed or replaced
)


@dataclass
class SharedBlock:
    """One identity-bearing KV block.

    ``key`` is the positional content hash ``(namespace, block_index)``;
    ``fill`` is how many of its ``block_size`` token slots hold
    namespace content (a partial tail has ``fill < block_size``);
    ``refs`` counts live requests currently mapping the block.  A block
    with ``refs == 0`` is *cached*: still resident, reusable by the
    next prefix match, evictable under memory pressure.
    """

    key: Tuple
    fill: int
    refs: int = 0


class PrefixBlockTable:
    """Refcounted prefix index over one GPU :class:`BlockPool`.

    Owns no capacity itself: shared and cached blocks live in the pool
    under :data:`SHARED_OWNER`, and every state change re-labels
    ownership via :meth:`BlockPool.transfer` (never allocating), so the
    pool's demand counters keep meaning "blocks actually allocated".
    """

    def __init__(self, pool: BlockPool, stats: Optional[dict] = None) -> None:
        self.pool = pool
        self.stats = stats if stats is not None else {}
        for key in PREFIX_STAT_KEYS:
            self.stats.setdefault(key, 0)
        #: content hash -> block, for every shared *or* cached block.
        self.index: Dict[Tuple, SharedBlock] = {}
        #: refs-0 subset of the index, insertion-ordered: the LRU queue
        #: (oldest-unreferenced first) that :meth:`reclaim` drains.
        self.cached: Dict[Tuple, SharedBlock] = {}
        #: req_id -> (namespace, shareable-token limit or None).
        self.identities: Dict[int, Tuple] = {}
        #: req_id -> contiguous chain of blocks it holds references on.
        self.refs_held: Dict[int, List[SharedBlock]] = {}
        # Requests whose prefill allocation already ran the lookup —
        # an OOM-retried allocation must not take references twice.
        self._attached: set = set()

    # --- registration -----------------------------------------------------
    def register(self, req_id: int, request=None) -> None:
        """Record the request's sharing identity (no-op without one)."""
        if request is None:
            return
        identity = request.sharing_identity()
        if identity is not None:
            self.identities[req_id] = identity

    # --- capacity ---------------------------------------------------------
    def reclaim(self, n_blocks: int) -> int:
        """Evict up to ``n_blocks`` cached blocks (LRU first)."""
        freed = 0
        cached = self.cached
        index = self.index
        pool = self.pool
        stats = self.stats
        while freed < n_blocks and cached:
            key = next(iter(cached))
            del cached[key]
            del index[key]
            pool.release(SHARED_OWNER, 1)
            stats["prefix_evictions"] += 1
            freed += 1
        return freed

    # --- refcounting ------------------------------------------------------
    def _ref(self, block: SharedBlock) -> None:
        if block.refs == 0:
            self.cached.pop(block.key, None)
        block.refs += 1

    def _unref(self, block: SharedBlock) -> None:
        block.refs -= 1
        assert block.refs >= 0, f"negative refcount on {block.key}"
        if block.refs == 0:
            self.cached[block.key] = block

    def _drop_entry(self, block: SharedBlock) -> None:
        """Remove a refs-0 entry and free its pool block."""
        self.cached.pop(block.key, None)
        del self.index[block.key]
        self.pool.release(SHARED_OWNER, 1)
        self.stats["prefix_evictions"] += 1

    # --- attach: prefill-time prefix lookup --------------------------------
    def attach(self, req_id: int, record, context_tokens: int) -> None:
        """Map the request's shared prefix onto existing blocks.

        Called once per prefill admission (OOM retries are idempotent):
        walks the namespace chain from block 0, referencing matching
        full blocks; the boundary block — where the request will append
        — is promoted if cached, or forked (copied) if still live.
        Sets ``record.shared_blocks`` to the reference-chain length the
        manager folds into every held-blocks computation.
        """
        if req_id in self._attached:
            return
        identity = self.identities.get(req_id)
        if identity is None:
            return
        self._attached.add(req_id)
        namespace, limit = identity
        span = context_tokens if limit is None else min(context_tokens, limit)
        stats = self.stats
        stats["prefix_lookups"] += 1
        if span <= 0:
            return
        bs = self.pool.block_size
        n_full = span // bs
        index = self.index
        chain = self.refs_held.setdefault(req_id, [])
        reused_tokens = 0
        idx = len(chain)  # 0 on first attach; recompute re-attaches fresh
        while idx < n_full:
            block = index.get((namespace, idx))
            if block is None or block.fill < bs:
                break
            self._ref(block)
            chain.append(block)
            reused_tokens += bs
            idx += 1
        record.shared_blocks = len(chain)
        saved = idx
        stats["prefix_shared_blocks"] += idx
        # Boundary block: the request appends at `span`, so a matching
        # partial entry is either taken over (cached) or copied (live).
        remainder = span - idx * bs
        block = index.get((namespace, idx))
        if block is not None and remainder > 0 and block.fill < bs:
            take = min(block.fill, remainder)
            if block.refs == 0 and block.fill <= remainder:
                # Promote: the cached tail becomes this request's
                # private block — no copy, no fresh allocation.
                self.cached.pop(block.key, None)
                del index[block.key]
                self.pool.transfer(SHARED_OWNER, req_id, 1)
                stats["cache_promotes"] += 1
                saved += 1
                reused_tokens += take
            elif take > 0:
                # Copy-on-write fork: the tail is still referenced (its
                # writer is live), so appending means copying it into a
                # private block (allocated by the normal prefill path).
                stats["cow_forks"] += 1
                reused_tokens += take
        if reused_tokens > 0:
            stats["prefix_hits"] += 1
            stats["prefix_tokens_reused"] += reused_tokens
        stats["prefix_blocks_saved"] += saved

    # --- publish: make a prefilled prefix shareable -------------------------
    def publish(self, req_id: int, record, context_tokens: int) -> None:
        """Move the request's shareable prefix under the shared owner.

        Runs at prefill completion: full blocks within the identity's
        limit (plus the partial tail) become referenced shared blocks,
        so *concurrent* requests of the same namespace can attach to
        them — the lever that makes live prefix hits and true CoW
        forks possible, not just reuse of finished requests' caches.
        """
        identity = self.identities.get(req_id)
        if identity is None:
            return
        namespace, limit = identity
        span = context_tokens if limit is None else min(context_tokens, limit)
        if span <= 0:
            return
        bs = self.pool.block_size
        pool = self.pool
        index = self.index
        chain = self.refs_held.setdefault(req_id, [])
        n_full = span // bs
        for idx in range(len(chain), n_full):
            key = (namespace, idx)
            block = index.get(key)
            if block is not None and block.fill >= bs:
                # Another live request published this span first; drop
                # our private duplicate and reference theirs (held
                # arithmetic is unchanged: -1 private, +1 shared).
                pool.release(req_id, 1)
                self._ref(block)
                chain.append(block)
                continue
            if block is not None:
                if block.refs > 0:
                    # A live partial sits on this key; leave the rest
                    # of our chain private rather than fight over it.
                    break
                self._drop_entry(block)  # stale cached partial
            pool.transfer(req_id, SHARED_OWNER, 1)
            fresh = SharedBlock(key=key, fill=bs, refs=1)
            index[key] = fresh
            chain.append(fresh)
        # Partial tail: shareable content ends mid-block.  Publishing
        # it lets concurrent namespace members fork it (CoW).
        remainder = span - n_full * bs
        if remainder > 0 and len(chain) == n_full:
            key = (namespace, n_full)
            block = index.get(key)
            if block is None or (block.refs == 0 and block.fill < remainder):
                if block is not None:
                    self._drop_entry(block)
                pool.transfer(req_id, SHARED_OWNER, 1)
                fresh = SharedBlock(key=key, fill=remainder, refs=1)
                index[key] = fresh
                chain.append(fresh)
        record.shared_blocks = len(chain)

    # --- detach / finish ----------------------------------------------------
    def detach(self, req_id: int, record) -> None:
        """Drop every reference the request holds (preemption path).

        Blocks whose last reference drops become cached; the request's
        identity survives, and a recompute-resumed prefill attaches
        (and hits) again — preemption never strands refcounts.
        """
        chain = self.refs_held.pop(req_id, None)
        if chain:
            for block in chain:
                self._unref(block)
        record.shared_blocks = 0
        self._attached.discard(req_id)

    def finish(self, req_id: int, record, gpu_tokens: int) -> None:
        """Retire a request: drop references, donate its private chain.

        The shared blocks it referenced are released (last owner out →
        cached, with the fill of a published partial tail refreshed to
        what the request actually wrote); its *private* blocks covering
        the shareable span transfer into the cache so the next prefix
        match — the next session turn, typically — finds the whole
        chain.  Remaining private blocks are freed by the manager's
        ``release_all`` as usual.
        """
        identity = self.identities.pop(req_id, None)
        chain = self.refs_held.pop(req_id, None)
        self._attached.discard(req_id)
        if identity is None:
            assert not chain, f"request {req_id} holds refs without identity"
            return
        namespace, limit = identity
        span = gpu_tokens if limit is None else min(gpu_tokens, limit)
        bs = self.pool.block_size
        shared = 0
        if chain:
            shared = len(chain)
            for i, block in enumerate(chain):
                # The publisher of a partial tail kept appending into
                # it; now that it retires, the cached entry's fill can
                # reflect the final content (bounded by the limit).
                fill = min(bs, span - i * bs)
                if fill > block.fill:
                    block.fill = fill
                self._unref(block)
        if span <= 0:
            return
        pool = self.pool
        index = self.index
        cached = self.cached
        end = -(-span // bs)  # ceil: include the partial tail block
        for idx in range(shared, end):
            fill = min(bs, span - idx * bs)
            key = (namespace, idx)
            existing = index.get(key)
            if existing is not None:
                if existing.refs > 0 or existing.fill >= fill:
                    continue  # keep theirs; ours is freed by release_all
                self._drop_entry(existing)
            pool.transfer(req_id, SHARED_OWNER, 1)
            block = SharedBlock(key=key, fill=fill, refs=0)
            index[key] = block
            cached[key] = block

    # --- consistency --------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the refcount/ownership invariants (property tests)."""
        assert all(b.refs >= 0 for b in self.index.values())
        assert self.pool.used_by(SHARED_OWNER) == len(self.index), (
            f"shared-owner blocks {self.pool.used_by(SHARED_OWNER)} != "
            f"index size {len(self.index)}"
        )
        zero_ref = {k for k, b in self.index.items() if b.refs == 0}
        assert set(self.cached) == zero_ref, (
            f"cached set {set(self.cached)} != refs-0 set {zero_ref}"
        )
        total_refs = sum(b.refs for b in self.index.values())
        held_refs = sum(len(chain) for chain in self.refs_held.values())
        assert total_refs == held_refs, (
            f"index refs {total_refs} != chain refs {held_refs}"
        )
        for req_id, chain in self.refs_held.items():
            for i in range(1, len(chain)):
                assert chain[i].key[1] == chain[i - 1].key[1] + 1, (
                    f"request {req_id} holds a non-contiguous chain"
                )
