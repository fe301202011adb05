"""Hierarchical KV cache manager (paper §5).

Manages each request's KV cache across the GPU pool (decode-capable)
and the CPU pool (offload target), implementing TokenFlow's three
memory techniques, each independently switchable for the Table 2
ablation:

* **Write-through** (§5.1): newly generated KV is continuously
  replicated to host memory in the background, so at preemption time
  only the small *dirty tail* still needs transferring.
* **Synchronous chunked writing** (§5.2): replication steals exactly
  the d2h idle time inside each compute interval, sized to the
  executor's estimated iteration duration, so writes never stall the
  scheduler.  Chunks are ordered by a scheduler-supplied priority
  (requests with fatter buffers are likelier preemption victims).
* **Load-evict overlap** (§5.3): loads (h2d) and evictions (d2h) run
  concurrently on the full-duplex link and memory is reclaimed
  incrementally; disabling it serialises loads behind pending
  evictions, as reactive systems do.

The manager is deliberately engine-aware: deferred block frees (the
dirty tail's blocks are only reusable once its transfer completes) are
scheduled as simulation events.

Hot-path bookkeeping is incremental: a persistent *dirty set* (ordered
by registration for deterministic tie-breaks) replaces the per-
iteration scan over every record, and decode-token growth tracks block
boundaries arithmetically instead of re-deriving block counts through
the pool on every generated token.

GPU blocks are allocated through one
:class:`~repro.memory.blocktable.PrefixBlockTable`, which gives blocks
identity: a request that carries a sharing identity
(:meth:`~repro.workload.request.Request.sharing_identity`) maps its
shared prefix onto existing refcounted blocks at prefill (with
copy-on-write forks and refcount-aware eviction); a request without
one never touches the index, so its blocks are plain per-request
counts.  Every held-blocks computation folds in
``KVRecord.shared_blocks`` (zero for identity-less requests), and
per-request *logical* growth (``gpu_tokens``) is the same either way,
so the fused and vectorised decode planes never see the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.memory.blocks import BlockPool, OutOfMemory
from repro.memory.blocktable import PrefixBlockTable
from repro.memory.pcie import PCIeLink
from repro.sim.engine import SimEngine


@dataclass(frozen=True)
class KVManagerConfig:
    """Switches and sizes for the KV manager.

    Attributes:
        block_size: tokens per KV block.
        enable_offload: if False, preemption drops the KV cache
            entirely and resumption must recompute (Table 2 "w/o
            Offload").
        write_through: if False, fall back to write-back — the full
            context is transferred at preemption time (Table 2 "w/o
            Write-Through").
        load_evict_overlap: if False, loads wait for every pending
            eviction to finish (Table 2 "w/o Evict-Load Overlap").
        cpu_capacity_blocks: host pool capacity.

    Prefix sharing has no switch: it follows from whether requests
    carry a sharing identity.
    """

    block_size: int = 16
    enable_offload: bool = True
    write_through: bool = True
    load_evict_overlap: bool = True
    cpu_capacity_blocks: int = 4_000_000


@dataclass
class KVRecord:
    """Per-request KV placement state.

    ``gpu_tokens`` is the decode-usable context on the GPU;
    ``cpu_tokens`` the replicated prefix on the host.  The dirty tail
    is ``gpu_tokens - cpu_tokens`` (never negative while resident).
    ``seq`` is the registration order — the deterministic tie-break
    for priority-ordered drains.

    ``shared_blocks`` counts prefix-index blocks this request maps
    (references) instead of owning: its physical holdings are
    ``pool.used_by(req_id) + shared_blocks``.  Always 0 for a request
    without a sharing identity.
    """

    req_id: int
    gpu_tokens: int = 0
    cpu_tokens: int = 0
    resident: bool = False        # True while the request can decode
    pending_free_blocks: int = 0  # blocks awaiting transfer completion
    seq: int = 0
    shared_blocks: int = 0        # prefix-table blocks mapped by reference

    @property
    def dirty_tokens(self) -> int:
        return max(0, self.gpu_tokens - self.cpu_tokens)


class HierarchicalKVManager:
    """GPU/CPU KV cache coordinator for one serving instance."""

    def __init__(
        self,
        engine: SimEngine,
        gpu_capacity_blocks: int,
        kv_bytes_per_token: float,
        pcie_bandwidth_bytes_per_s: float,
        config: Optional[KVManagerConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else KVManagerConfig()
        self.gpu_pool = BlockPool(gpu_capacity_blocks, self.config.block_size)
        self.cpu_pool = BlockPool(self.config.cpu_capacity_blocks, self.config.block_size)
        self.link = PCIeLink(pcie_bandwidth_bytes_per_s)
        self.kv_bytes_per_token = float(kv_bytes_per_token)
        self._block_size = self.config.block_size
        self._records: dict[int, KVRecord] = {}
        self._next_seq = 0
        # Resident records with a non-empty dirty tail (req_id -> record),
        # maintained incrementally so the chunked writer never scans the
        # full registry.  Ordering inside is irrelevant — drains sort by
        # (priority desc, registration seq asc).
        self._dirty: dict[int, KVRecord] = {}
        # Optional callback fired whenever deferred frees return blocks
        # to the pool (the serving loop uses it to retry stalled work).
        self.on_memory_freed: Optional[Callable[[], None]] = None
        # Counters for the ablation/overhead analysis.
        self.stats = {
            "evictions": 0,
            "loads": 0,
            "recompute_drops": 0,
            "write_through_bytes": 0.0,
            "eviction_tail_bytes": 0.0,
            "load_bytes": 0.0,
        }
        # The prefix-sharing block table.  Its hooks are no-ops for
        # requests without a sharing identity.
        self.prefix = PrefixBlockTable(self.gpu_pool, self.stats)

    # --- helpers -------------------------------------------------------------
    def record(self, req_id: int) -> KVRecord:
        if req_id not in self._records:
            raise KeyError(f"request {req_id} is not registered with the KV manager")
        return self._records[req_id]

    def _tokens_to_bytes(self, n_tokens: int) -> float:
        return n_tokens * self.kv_bytes_per_token

    def blocks_for_tokens(self, n_tokens: int) -> int:
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be non-negative, got {n_tokens}")
        return -(-n_tokens // self._block_size)  # ceil division

    def gpu_free_blocks(self) -> int:
        """Blocks the next allocation can claim (free + reclaimable).

        Cached prefix blocks (refs 0) are resident but evictable on
        demand, so admission/fitting decisions count them as free;
        the allocation paths reclaim them just-in-time.
        """
        free = self.gpu_pool.free
        cached = self.prefix.cached
        return free + len(cached) if cached else free

    def _reclaim_for(self, n_blocks: int) -> None:
        """Evict cached prefix blocks until ``n_blocks`` fit (or give up).

        Callers test ``self.prefix.cached`` first, so identity-less
        work (an empty cache) pays no call here.
        """
        short = n_blocks - self.gpu_pool.free
        if short > 0:
            self.prefix.reclaim(short)

    def _sync_dirty(self, record: KVRecord) -> None:
        """Re-derive the record's dirty-set membership after a mutation."""
        if record.resident and record.gpu_tokens > record.cpu_tokens:
            self._dirty[record.req_id] = record
        else:
            self._dirty.pop(record.req_id, None)

    # --- request lifecycle -----------------------------------------------------
    def register(self, req_id: int, request=None) -> KVRecord:
        """Create the placement record for a new request.

        ``request`` (the workload object) is optional; the block table
        derives the request's sharing identity from it.
        """
        if req_id in self._records:
            raise ValueError(f"request {req_id} already registered")
        record = KVRecord(req_id=req_id, seq=self._next_seq)
        self._next_seq += 1
        self._records[req_id] = record
        self.prefix.register(req_id, request)
        return record

    def allocate_for_prefill(self, req_id: int, context_tokens: int) -> None:
        """Reserve GPU blocks for a prefill of ``context_tokens``.

        Raises :class:`OutOfMemory` if the pool cannot hold it; the
        caller (scheduler/server) is responsible for checking first or
        handling the failure.  A request with a sharing identity first
        consults the prefix index, mapping any shared prefix onto
        existing blocks so only the unshared remainder is allocated.
        """
        record = self.record(req_id)
        needed = self.blocks_for_tokens(context_tokens)
        if req_id in self.prefix.identities:
            self.prefix.attach(req_id, record, context_tokens)
        # Blocks whose eviction transfer is still in flight are not
        # reusable: they will be released when the transfer completes.
        held = (
            self.gpu_pool.used_by(req_id)
            - record.pending_free_blocks
            + record.shared_blocks
        )
        if needed > held:
            if self.prefix.cached:
                self._reclaim_for(needed - held)
            self.gpu_pool.allocate(req_id, needed - held)

    def on_prefill_complete(self, req_id: int, context_tokens: int) -> None:
        """Mark ``context_tokens`` of KV as resident after a prefill."""
        record = self.record(req_id)
        record.gpu_tokens = context_tokens
        record.resident = True
        # A recompute resume regenerates KV the host already holds; the
        # host copy stays valid, so only the excess is dirty.
        record.cpu_tokens = min(record.cpu_tokens, context_tokens)
        self._sync_dirty(record)
        # Publish the freshly computed prefix so concurrent requests of
        # the same namespace can share it live (skipped while an
        # eviction is in flight — those blocks are not transferable).
        if record.pending_free_blocks == 0 and req_id in self.prefix.identities:
            self.prefix.publish(req_id, record, context_tokens)

    def on_decode_token(self, req_id: int) -> None:
        """Grow the resident context by one generated token.

        Allocates a new block only when the context crosses a block
        boundary (tracked arithmetically — no per-token block-count
        derivation); raises :class:`OutOfMemory` when the pool is full
        (the server then triggers reactive preemption).
        """
        record = self._records.get(req_id)
        if record is None:
            raise KeyError(f"request {req_id} is not registered with the KV manager")
        if not record.resident:
            raise RuntimeError(f"request {req_id} is not resident; cannot decode")
        tokens = record.gpu_tokens
        if tokens % self._block_size == 0:
            # The next token opens a new block.
            needed = tokens // self._block_size + 1
            held = (
                self.gpu_pool.usage.get(req_id, 0)
                - record.pending_free_blocks
                + record.shared_blocks
            )
            if needed > held:
                if self.prefix.cached:
                    self._reclaim_for(needed - held)
                self.gpu_pool.allocate(req_id, needed - held)
        if record.cpu_tokens == tokens:
            # Was fully synced; the new token starts a dirty tail.
            self._dirty[req_id] = record
        record.gpu_tokens = tokens + 1

    def decode_growth_blocks_bulk(self, requests: Sequence) -> dict:
        """GPU blocks the next decode token of each request would claim,
        keyed by ``req_id``.

        Pure query (no allocation), one call per planning pass — the
        serving loop's batch-fitting input, flattened to plain
        arithmetic over the record state.
        """
        records = self._records
        usage_get = self.gpu_pool.usage.get
        bs = self._block_size
        growth: dict = {}
        for request in requests:
            rid = request.req_id
            try:
                record = records[rid]
            except KeyError:
                raise KeyError(
                    f"request {rid} is not registered with the KV manager"
                ) from None
            held = usage_get(rid, 0) - record.pending_free_blocks + record.shared_blocks
            needed = -(-(record.gpu_tokens + 1) // bs)
            if held <= 0:
                growth[rid] = needed
            else:
                need = needed - held
                growth[rid] = need if need > 0 else 0
        return growth

    # --- macro-step decode fusion ----------------------------------------------
    def max_fused_decode_iterations(self, req_ids: Sequence, k_cap: int) -> int:
        """Largest ``k <= k_cap`` such that ``k`` decode tokens per
        request fit in the GPU pool.

        Pure query over the closed-form block growth (each request's
        block count after ``k`` more tokens is arithmetic on its
        record), binary-searched because growth is monotone in ``k``.
        The fused decode path uses it to stop a macro-step strictly
        before capacity exhaustion — the unfused path would hit the
        reactive-preemption branch there, which fusion must never skip.
        """
        if k_cap <= 0:
            return 0
        free = self.gpu_free_blocks()
        bs = self._block_size
        usage_get = self.gpu_pool.usage.get
        records = self._records
        entries = []
        for rid in req_ids:
            record = records[rid]
            entries.append(
                (
                    record.gpu_tokens,
                    usage_get(rid, 0) - record.pending_free_blocks + record.shared_blocks,
                )
            )

        def growth(k: int) -> int:
            total = 0
            for tokens, held in entries:
                need = (tokens + k - 1) // bs + 1 - held
                if need > 0:
                    total += need
            return total

        if growth(k_cap) <= free:
            return k_cap
        lo, hi = 0, k_cap  # growth(lo) fits, growth(hi) does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if growth(mid) <= free:
                lo = mid
            else:
                hi = mid
        return lo

    def cpu_room_for_fused_drains(self, req_ids: Sequence, k: int) -> bool:
        """True if ``k - 1`` uniform one-token write drains for these
        requests keep the host pool above the fast-path watermark.

        The real drain's uniform path requires ``cpu_pool.free >=
        n_dirty`` *every* iteration; host usage only grows during a
        fused window, so checking the post-window free count against
        that bound covers every intermediate drain.
        """
        if k <= 1:
            return True
        bs = self._block_size
        used_by = self.cpu_pool.usage.get
        records = self._records
        growth = 0
        for rid in req_ids:
            record = records[rid]
            target = record.gpu_tokens + k - 1
            need = -(-target // bs) - used_by(rid, 0)
            if need > 0:
                growth += need
        return self.cpu_pool.free - growth >= len(req_ids)

    def fused_decode_advance(
        self,
        req_ids: Sequence,
        k: int,
        drain_starts: Optional[Sequence] = None,
    ) -> None:
        """Apply ``k`` decode iterations of KV bookkeeping in one update.

        Equivalent to ``k`` rounds of per-token :meth:`on_decode_token`
        over the batch interleaved with ``k - 1`` uniform-fast-path
        :meth:`drain_writes` calls at ``drain_starts`` (the fused
        window's intermediate iteration boundaries): GPU block growth
        lands as one allocation per request, the host copy advances to
        the second-to-last token, and each request ends with exactly
        its newest token dirty.  ``drain_starts`` is ``None`` when
        write-through (or offload) is disabled — then only the GPU side
        grows, as the per-iteration path would.

        Preconditions (the serving loop checks them before fusing): all
        requests resident, every dirty tail fully synced beforehand,
        GPU growth within :meth:`max_fused_decode_iterations`, host
        room per :meth:`cpu_room_for_fused_drains`, and per-iteration
        d2h budget covering one token per request.
        """
        if k <= 0:
            return
        bs = self._block_size
        gpu_pool = self.gpu_pool
        usage_get = gpu_pool.usage.get
        records = self._records
        dirty = self._dirty
        with_drains = drain_starts is not None and k > 1
        cached = self.prefix.cached
        for rid in req_ids:
            record = records[rid]
            tokens = record.gpu_tokens
            needed = (tokens + k - 1) // bs + 1
            held = usage_get(rid, 0) - record.pending_free_blocks + record.shared_blocks
            if needed > held:
                if cached:
                    self._reclaim_for(needed - held)
                gpu_pool.allocate(rid, needed - held)
            record.gpu_tokens = tokens + k
            if with_drains:
                target = tokens + k - 1
                if -(-target // bs) > self.cpu_pool.usage.get(rid, 0):
                    self._grow_cpu_copy(record, target)
                record.cpu_tokens = target
            dirty[rid] = record
        if with_drains:
            n = len(req_ids)
            nbytes = self.kv_bytes_per_token
            self.link.d2h.occupy_drains(n, nbytes, drain_starts)
            per_drain_bytes = n * nbytes
            written = self.stats["write_through_bytes"]
            for _ in drain_starts:
                written += per_drain_bytes
            self.stats["write_through_bytes"] = written

    def release(self, req_id: int) -> None:
        """Drop all state for a finished (or aborted) request.

        A request with a sharing identity first retires through the
        block table: its references drop (a shared block is only
        freeable once its last owner retires) and its private prefix
        blocks are donated to the cache for the next prefix match.
        """
        record = self._records.pop(req_id, None)
        if record is None:
            return
        self._dirty.pop(req_id, None)
        if req_id in self.prefix.identities:
            self.prefix.finish(req_id, record, record.gpu_tokens)
        self.gpu_pool.release_all(req_id)
        self.cpu_pool.release_all(req_id)

    # --- write-through / chunked writing ---------------------------------------
    def write_backlog_tokens(self) -> int:
        """Dirty tokens across resident requests (write queue depth)."""
        if not self.config.write_through:
            return 0
        return sum(
            record.gpu_tokens - record.cpu_tokens
            for record in self._dirty.values()
        )

    def drain_writes(
        self,
        now: float,
        horizon: float,
        priority: Optional[Callable[[int], float]] = None,
    ) -> int:
        """Synchronous chunked writing: replicate dirty KV during compute.

        Writes as many dirty tokens as fit in the d2h direction's idle
        time within ``[now, horizon]`` (the estimated duration of the
        next compute iteration), highest ``priority(req_id)`` first
        (ties broken by registration order).

        Returns the number of tokens synced.
        """
        if not self.config.write_through or not self.config.enable_offload:
            return 0
        if not self._dirty:
            return 0
        if not self.config.load_evict_overlap:
            # Serialised transfers: writes may not overlap in-flight
            # loads (the half-duplex baseline of §5.3).
            now = max(now, self.link.h2d.busy_until())
        budget_bytes = self.link.d2h.idle_bytes_within(now, horizon)
        if budget_bytes <= 0:
            return 0
        # Steady-state fast path: when every dirty tail is the same
        # size (the common case — one fresh token per resident request
        # per decode step) and the budget plus host pool cover the
        # whole backlog, every record fully syncs the same number of
        # tokens no matter the order.  All per-record transfers are
        # then identical, so every float accumulation (link busy time,
        # budget, stats) is bit-identical to the priority-ordered loop
        # — the ranking would be pure overhead.
        uniform = -1
        for record in self._dirty.values():
            tail = record.gpu_tokens - record.cpu_tokens
            if uniform < 0:
                uniform = tail
            elif tail != uniform:
                uniform = -1
                break
        if uniform > 0:
            n_dirty = len(self._dirty)
            kv_bytes_per_token = self.kv_bytes_per_token
            nbytes = uniform * kv_bytes_per_token
            # Worst-case host growth: every record opens one new block
            # plus whatever the tail itself spans.
            block_bound = n_dirty * (uniform // self._block_size + 1)
            if (
                budget_bytes >= n_dirty * nbytes
                and self.cpu_pool.free >= block_bound
            ):
                d2h = self.link.d2h
                cpu_pool = self.cpu_pool
                block_size = self._block_size
                stats = self.stats
                cpu_usage = cpu_pool.usage
                for record in list(self._dirty.values()):
                    target = record.cpu_tokens + uniform
                    if -(-target // block_size) > cpu_usage.get(record.req_id, 0):
                        self._grow_cpu_copy(record, target)
                    record.cpu_tokens = target
                    self._dirty.pop(record.req_id, None)
                    stats["write_through_bytes"] += nbytes
                # The transfers are identical, so one bulk call
                # replays the exact busy-horizon additions.
                d2h.occupy_drains(n_dirty, nbytes, (now,))
                return n_dirty * uniform
        if priority is not None:
            # Highest priority first; registration order breaks ties —
            # exactly the order a stable descending sort over the
            # registration-ordered registry would produce.
            dirty = sorted(
                self._dirty.values(),
                key=lambda r: (-priority(r.req_id), r.seq),
            )
        else:
            dirty = sorted(self._dirty.values(), key=lambda r: r.seq)
        synced_total = 0
        kv_bytes_per_token = self.kv_bytes_per_token
        d2h = self.link.d2h
        cpu_pool = self.cpu_pool
        block_size = self._block_size
        stats = self.stats
        dirty_set = self._dirty
        for record in dirty:
            if budget_bytes < kv_bytes_per_token:
                break
            affordable = int(budget_bytes // kv_bytes_per_token)
            cpu_tokens = record.cpu_tokens
            n_sync = record.gpu_tokens - cpu_tokens
            if n_sync > affordable:
                n_sync = affordable
            if n_sync <= 0:
                continue
            target = cpu_tokens + n_sync
            # Fast path: the host copy only grows a block every
            # `block_size` tokens; skip the pool round-trip otherwise.
            if -(-target // block_size) > cpu_pool.usage.get(record.req_id, 0):
                if not self._grow_cpu_copy(record, target):
                    continue  # host pool exhausted; skip this request
            nbytes = n_sync * kv_bytes_per_token
            d2h.occupy(nbytes, now)
            record.cpu_tokens = target
            if target >= record.gpu_tokens:
                dirty_set.pop(record.req_id, None)
            budget_bytes -= nbytes
            synced_total += n_sync
            stats["write_through_bytes"] += nbytes
        return synced_total

    def _grow_cpu_copy(self, record: KVRecord, target_tokens: int) -> bool:
        """Ensure the host pool holds blocks for ``target_tokens``."""
        needed = self.cpu_pool.blocks_for_tokens(target_tokens)
        held = self.cpu_pool.used_by(record.req_id)
        if needed <= held:
            return True
        if not self.cpu_pool.can_allocate(needed - held):
            return False
        self.cpu_pool.allocate(record.req_id, needed - held)
        return True

    # --- preemption -----------------------------------------------------------
    def preempt(self, req_id: int, now: float) -> float:
        """Offload (or drop) a resident request's KV cache.

        Returns the time at which the request's GPU memory is fully
        reclaimed.  With write-through, already-synced blocks are freed
        immediately and only the dirty tail pays a transfer; with
        write-back the full context is written out; with offload
        disabled the cache is simply dropped (resume must recompute).
        """
        record = self.record(req_id)
        if not record.resident:
            raise RuntimeError(f"request {req_id} is not resident; cannot preempt")
        record.resident = False
        self._dirty.pop(req_id, None)
        shares = req_id in self.prefix.identities
        if shares:
            # Drop prefix references first: the paths below release or
            # transfer only the request's *private* blocks, and a
            # recompute-resumed prefill re-attaches (and hits) again.
            self.prefix.detach(req_id, record)
        if not self.config.enable_offload:
            self.gpu_pool.release_all(req_id)
            self.cpu_pool.release_all(req_id)
            record.cpu_tokens = 0
            record.gpu_tokens = 0
            self.stats["recompute_drops"] += 1
            return now
        self.stats["evictions"] += 1
        dirty = record.dirty_tokens if self.config.write_through else record.gpu_tokens
        if dirty > 0 and not self._grow_cpu_copy(record, record.gpu_tokens):
            # Host pool full: degrade to a drop (rare, but must not wedge).
            self.gpu_pool.release_all(req_id)
            self.cpu_pool.release_all(req_id)
            record.cpu_tokens = 0
            record.gpu_tokens = 0
            self.stats["recompute_drops"] += 1
            return now
        # Blocks an earlier eviction still owns (a preempt, resume_load
        # and preempt inside one transfer) are freed by its deferred
        # completion, not here.
        total_blocks = self.gpu_pool.used_by(req_id) - record.pending_free_blocks
        dirty_blocks = self.gpu_pool.blocks_for_tokens(dirty)
        if shares and dirty_blocks > total_blocks:
            # The dirty tail spans blocks the request maps from the
            # prefix index; those were detached above, so the deferred
            # free must cover private holdings only (the transfer still
            # writes the full dirty byte count — the host copy is
            # per-request).  Identity-free requests keep the count-only
            # arithmetic unclamped.
            dirty_blocks = total_blocks
        clean_blocks = max(0, total_blocks - dirty_blocks)
        if clean_blocks > 0:
            self.gpu_pool.release(req_id, clean_blocks)
        if dirty > 0:
            nbytes = self._tokens_to_bytes(dirty)
            earliest = 0.0
            if not self.config.load_evict_overlap:
                # Serialised transfers: the eviction waits for loads.
                earliest = self.link.h2d.busy_until()
            job = self.link.d2h.submit(nbytes, now, earliest_start=earliest)
            self.stats["eviction_tail_bytes"] += nbytes
            record.cpu_tokens = record.gpu_tokens
            record.pending_free_blocks += dirty_blocks
            self.engine.call_at(
                job.end,
                lambda: self._complete_eviction(req_id, dirty_blocks),
                label=f"evict-done:{req_id}",
            )
            done = job.end
        else:
            if dirty_blocks > 0:
                self.gpu_pool.release(req_id, dirty_blocks)
            done = now
        record.gpu_tokens = 0
        return done

    def _complete_eviction(self, req_id: int, n_blocks: int) -> None:
        record = self._records.get(req_id)
        if record is None:
            return  # request finished/aborted meanwhile
        release = min(n_blocks, self.gpu_pool.used_by(req_id), record.pending_free_blocks)
        if release > 0:
            self.gpu_pool.release(req_id, release)
        record.pending_free_blocks = max(0, record.pending_free_blocks - n_blocks)
        if release > 0 and self.on_memory_freed is not None:
            self.on_memory_freed()

    # --- resumption -----------------------------------------------------------
    def can_resume_load(self, req_id: int) -> bool:
        """True if the host holds a copy and the GPU pool has room."""
        record = self.record(req_id)
        if record.cpu_tokens <= 0 or not self.config.enable_offload:
            return False
        needed = self.blocks_for_tokens(record.cpu_tokens)
        held = (
            self.gpu_pool.used_by(req_id)
            - record.pending_free_blocks
            + record.shared_blocks
        )
        return max(0, needed - max(0, held)) <= self.gpu_free_blocks()

    def resume_load(self, req_id: int, now: float) -> float:
        """Start loading a preempted request's KV back to the GPU.

        GPU blocks are reserved immediately (the transfer lands into
        them); returns the transfer completion time at which the
        request becomes decode-usable again.
        """
        record = self.record(req_id)
        if record.resident:
            raise RuntimeError(f"request {req_id} is already resident")
        if record.cpu_tokens <= 0:
            raise RuntimeError(f"request {req_id} has no host copy; recompute instead")
        needed = self.blocks_for_tokens(record.cpu_tokens)
        held = max(
            0,
            self.gpu_pool.used_by(req_id)
            - record.pending_free_blocks
            + record.shared_blocks,
        )
        if needed > held:
            if self.prefix.cached:
                self._reclaim_for(needed - held)
            self.gpu_pool.allocate(req_id, needed - held)
        earliest = 0.0
        if not self.config.load_evict_overlap:
            earliest = self.link.d2h.busy_until()
        nbytes = self._tokens_to_bytes(record.cpu_tokens)
        job = self.link.h2d.submit(nbytes, now, earliest_start=earliest)
        self.stats["loads"] += 1
        self.stats["load_bytes"] += nbytes
        record.gpu_tokens = record.cpu_tokens
        record.resident = True
        self._sync_dirty(record)
        return job.end

    def prepare_recompute(self, req_id: int) -> None:
        """Drop the host copy ahead of a recompute-based resume."""
        record = self.record(req_id)
        if record.resident:
            raise RuntimeError(f"request {req_id} is resident; nothing to recompute")
        self.cpu_pool.release_all(req_id)
        record.cpu_tokens = 0

    # --- estimators (feed the scheduler) ----------------------------------------
    def estimate_io_time(self, context_tokens: int, dirty_tokens: int, now: float) -> float:
        """Estimate t_IO = evict queueing + evict + load queueing + load.

        Mirrors the paper §4.2.3 decomposition using current queue
        horizons and profiled (configured) bandwidth.
        """
        evict_bytes = self._tokens_to_bytes(dirty_tokens)
        load_bytes = self._tokens_to_bytes(context_tokens)
        t_evict_q = self.link.d2h.queueing_delay(now)
        t_evict = self.link.d2h.transfer_seconds(evict_bytes)
        t_load_q = self.link.h2d.queueing_delay(now)
        t_load = self.link.h2d.transfer_seconds(load_bytes)
        return t_evict_q + t_evict + t_load_q + t_load

    def check_invariants(self) -> None:
        """Pool-level consistency checks for property tests."""
        self.gpu_pool.check_invariants()
        self.cpu_pool.check_invariants()
        self.prefix.check_invariants()
        for record in self._records.values():
            assert record.cpu_tokens >= 0 and record.gpu_tokens >= 0
            chain = self.prefix.refs_held.get(record.req_id, ())
            assert record.shared_blocks == len(chain), (
                f"request {record.req_id} shared_blocks={record.shared_blocks} "
                f"but holds {len(chain)} references"
            )
            if record.resident:
                held = self.gpu_pool.used_by(record.req_id) + record.shared_blocks
                assert held >= self.gpu_pool.blocks_for_tokens(record.gpu_tokens) - record.pending_free_blocks
        # The dirty set is exactly {resident records with a dirty tail}.
        expected_dirty = {
            rid
            for rid, record in self._records.items()
            if record.resident and record.dirty_tokens > 0
        }
        assert set(self._dirty) == expected_dirty, (
            f"dirty set {set(self._dirty)} != expected {expected_dirty}"
        )
