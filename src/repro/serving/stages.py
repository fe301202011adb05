"""Composable serving-loop stages.

The serving loop is four cooperating stages coordinated by the slim
:class:`~repro.serving.server.ServingSystem` shell:

* :class:`AdmissionStage` — arrivals into the tracker/KV/waiting queue
  plus the scheduler tick clock (also where a request's sharing
  identity reaches the KV manager's prefix-sharing block table);
* :class:`BatchComposer` — plans each iteration (prefill entries or a
  decode batch, including the §4.2.3 buffer-aware interleaving);
* :class:`MemoryPressureStage` — resolves decode-time KV deficits via
  scheduler-selected victims and orders chunked KV writes (§5.2);
* :class:`DecodeStream` — executes iterations and streams generated
  tokens into per-request client buffers.

The shell owns the shared state (queues, engine, KV manager, tracker,
executor) so schedulers, the offload manager, and tests keep their
existing view; each stage binds the hot references once at
construction so the split adds no per-token indirection.

Event ordering is *identical* to the pre-split monolith: the shell
invokes the stages in the exact sequence the old ``ServingSystem``
executed inline, so golden metrics and the perf-parity harness hold
bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.memory.blocks import OutOfMemory
from repro.serving.batchstate import deliver_batch
from repro.workload.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.server import ServingSystem


def feed_stream_arrivals(engine, stream, lookahead, on_pop, on_request, label):
    """Schedule a lazy request stream as a self-refilling event chain.

    The streaming-admission implementation behind
    :meth:`AdmissionStage.feed` (``on_request`` admits).  Each scheduled
    arrival pops its successor off the stream *before* processing its
    own request, so

    * at most ``lookahead`` future requests exist in memory, and
    * the engine's pending-event horizon always contains the next
      arrival at the instant any work is planned — the fusion plane
      therefore sizes exactly the windows the materialised submit path
      produces (streamed and submitted runs are event-for-event
      identical).

    ``on_pop`` runs once per request at schedule time — the caller
    uses it for pending-work accounting, so a run truncated at the
    horizon still reports scheduled-but-unserved requests as
    unfinished.
    """
    if lookahead <= 0:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    iterator = iter(stream)

    def schedule_next() -> bool:
        request = next(iterator, None)
        if request is None:
            return False
        if request.arrival_time < engine.now():
            raise ValueError(
                f"request {request.req_id} arrives in the past "
                f"({request.arrival_time} < {engine.now()}) — workload "
                f"streams must be ordered by arrival time"
            )
        on_pop(request)
        engine.call_at(
            request.arrival_time,
            lambda r=request: fire(r),
            label=f"{label}:{request.req_id}",
        )
        return True

    def fire(request: Request) -> None:
        # Refill before processing: planning triggered by this request
        # must already see the successor arrival on the event horizon.
        schedule_next()
        on_request(request)

    for _ in range(lookahead):
        if not schedule_next():
            break


class AdmissionStage:
    """Arrivals -> tracker/KV registration -> waiting queue, plus the
    scheduler tick clock (the paper's Δt)."""

    def __init__(self, system: "ServingSystem") -> None:
        self.system = system
        self.engine = system.engine
        self.scheduler = system.scheduler
        self.tracker = system.tracker
        self.kv = system.kv
        self.waiting = system.waiting
        # Tick state: a tick is *scheduled* on the engine and becomes
        # *due* when it fires; the decision is applied at the next
        # iteration boundary (real systems never preempt mid-kernel).
        self.tick_due = False
        self._tick_scheduled = False

    def submit(self, requests: list) -> None:
        """Register future arrivals with the event engine."""
        system = self.system
        engine = self.engine
        for request in requests:
            if request.arrival_time < engine.now():
                raise ValueError(
                    f"request {request.req_id} arrives in the past "
                    f"({request.arrival_time} < {engine.now()})"
                )
            system._unfinished += 1
            engine.call_at(
                request.arrival_time,
                lambda r=request: self.on_arrival(r),
                label=f"arrival:{request.req_id}",
            )

    # --- streaming admission ---------------------------------------------
    def feed(self, stream, lookahead: int = 1) -> None:
        """Drive arrivals from a lazy request stream.

        See :func:`feed_stream_arrivals` for the self-refilling chain
        and its parity guarantees.  ``lookahead`` > 1 simply primes
        that many arrivals up front; ordering is unchanged since
        arrival events fire in time order and same-instant arrivals
        keep stream order.
        """
        system = self.system

        def on_pop(_request: Request) -> None:
            system._unfinished += 1

        feed_stream_arrivals(
            self.engine, stream, lookahead, on_pop, self.on_arrival, "arrival"
        )

    def on_arrival(self, request: Request) -> None:
        system = self.system
        if system.tracer is not None:
            system.tracer.record(self.engine.now(), "request", "arrive",
                                 req_id=request.req_id)
        self.tracker.register(request)
        self.kv.register(request.req_id, request)
        self.waiting.append(request)
        self.ensure_tick_scheduled()
        system._kick()

    def ensure_tick_scheduled(self) -> None:
        interval = self.scheduler.tick_interval
        if interval is None or self._tick_scheduled or self.system._unfinished == 0:
            return
        self._tick_scheduled = True
        self.engine.call_after(interval, self._on_tick_event, label="sched-tick")

    def _on_tick_event(self) -> None:
        self._tick_scheduled = False
        self.tick_due = True
        self.system._kick()
        self.ensure_tick_scheduled()


class BatchComposer:
    """Plans one iteration: a prefill batch or the decode batch.

    Holds the per-iteration planning state (shared min-buffer memo,
    prefill-defer progress counter, dynamic prefill budget) and the
    §4.2.3 buffer-aware prefill/decode interleaving.
    """

    def __init__(self, system: "ServingSystem", memory: "MemoryPressureStage") -> None:
        self.system = system
        self.memory = memory
        self.engine = system.engine
        self.scheduler = system.scheduler
        self.tracker = system.tracker
        self.kv = system.kv
        self.executor = system.executor
        self.config = system.config
        self.running = system.running
        self.prefill_queue = system.prefill_queue
        self.chunked = system.config.chunked_prefill or getattr(
            system.scheduler, "wants_chunked_prefill", False
        )
        # Per-iteration cache (reset by the shell at iteration start).
        self.iter_min_buffer: Optional[float] = None
        self.decodes_since_prefill = 0
        self.prefill_defer_cap = 16       # progress guarantee for prefill
        self.prefill_defer_margin = 0.05  # seconds of buffer slack required
        # Amortised per-token prefill cost, for dynamic partitioning.
        self.per_token_prefill_s = system.latency.prefill_time([2048]) / 2048.0

    def min_running_buffer(self) -> float:
        """Smallest running-request buffer (seconds) at the current
        instant, computed once per iteration and shared between the
        prefill budget and the defer decision."""
        cached = self.iter_min_buffer
        if cached is None:
            cached = self.tracker.min_buffer_seconds(
                self.running, self.engine.now()
            )
            self.iter_min_buffer = cached
        return cached

    def prefill_token_budget(self) -> int:
        """Per-iteration prefill budget, dynamically partitioned (§4.2.3).

        For buffer-aware schedulers the budget shrinks so the prefill
        iteration fits inside the running batch's smallest buffer —
        prefills then never stall an active stream.  A floor keeps
        prefill progressing even when every buffer is thin (the defer
        cap bounds how often that floor is exercised).
        """
        budget = self.config.max_prefill_tokens
        if not getattr(self.scheduler, "decode_priority_aware", False) or not self.running:
            return budget
        slack = self.min_running_buffer() - self.prefill_defer_margin
        dyn = int(slack / self.per_token_prefill_s) if slack > 0 else 0
        floor = min(256, budget)
        return max(floor, min(budget, dyn))

    def should_defer_prefill(self, entries: list) -> bool:
        """Buffer-aware prefill/decode interleaving (§4.2.3).

        Schedulers that opt in (``decode_priority_aware``) defer a
        prefill iteration when some running request's buffer would
        drain during it — latency-sensitive decodes bypass the prefill
        batch.  A progress cap guarantees prefill is never starved.
        """
        if not getattr(self.scheduler, "decode_priority_aware", False):
            return False
        if not self.running:
            return False
        if self.decodes_since_prefill >= self.prefill_defer_cap:
            return False
        plan = self.executor.plan_prefill(
            [(request.req_id, chunk) for request, chunk in entries]
        )
        return self.min_running_buffer() < plan.duration + self.prefill_defer_margin

    def plan_prefill(self) -> list:
        """Pick (request, chunk_tokens) pairs for the next prefill.

        Fresh requests reserve prompt+1 tokens (room for the first
        output token); recompute resumes reserve their full context.
        FCFS within the prefill queue; head-of-line blocks on memory,
        which is exactly the SGLang behaviour TokenFlow's admission
        control avoids triggering.
        """
        entries: list = []
        queue = self.prefill_queue
        if not queue:
            # Nothing to prefill: skip the budget computation (and its
            # min-buffer pass) entirely — the steady-decode common case.
            return entries
        budget = self.prefill_token_budget()
        if budget <= 0:
            return entries
        if len(queue) > 1 and getattr(self.scheduler, "decode_priority_aware", False):
            # Recompute-resumes have live consumers draining a buffer;
            # they bypass fresh admissions (§4.2.3 latency-sensitive
            # bypass).  Fresh requests keep FCFS order among themselves.
            order = sorted(
                [((r.generated == 0, r.arrival_time), i)
                 for i, r in enumerate(queue)]
            )
            queue = [queue[i] for _, i in order]
        for request in queue:
            if budget <= 0:
                break
            target = request.context_len
            if request.prefill_progress == 0:
                reserve = target + (1 if request.generated == 0 else 0)
                try:
                    self.kv.allocate_for_prefill(request.req_id, reserve)
                except OutOfMemory:
                    break
            remaining = target - request.prefill_progress
            if remaining <= 0:
                continue
            chunk = min(remaining, budget)
            if self.chunked:
                chunk = min(chunk, self.config.prefill_chunk_size)
            entries.append((request, chunk))
            budget -= chunk
            if self.chunked:
                break  # one chunk per iteration keeps decode interleaved
        return entries

    def plan_decode(self) -> list:
        """Assemble the decode batch, resolving memory pressure first."""
        if not self.running:
            return []
        if len(self.running) > self.config.max_batch and getattr(
            self.scheduler, "decode_priority_aware", False
        ):
            # More residents than decode slots: serve the most starved.
            # Bulk seconds + decorate-sort == a stable nsmallest by
            # buffer seconds, without a key callback per element.
            now = self.engine.now()
            running = self.running
            seconds = self.tracker.buffer_seconds_many(running, now)
            order = sorted([(s, i) for i, s in enumerate(seconds)])
            batch = [running[i] for _, i in order[: self.config.max_batch]]
        else:
            batch = list(self.running[: self.config.max_batch])
        # Growth blocks are a function of each request's own KV record,
        # so one computation serves both the deficit check and the
        # batch-fitting pass (preempting a victim never changes another
        # request's growth).
        growth = self.kv.decode_growth_blocks_bulk(batch)
        batch = self.memory.resolve_deficit(batch, growth)
        # Greedily keep the prefix of the batch that fits.
        fitted: list = []
        free = self.kv.gpu_free_blocks()
        for request in batch:
            need = growth[request.req_id]
            if need > free:
                continue
            free -= need
            fitted.append(request)
        return fitted


class MemoryPressureStage:
    """KV-pressure handling: decode-time deficit resolution and the
    buffer-ordered chunked write drain (§5.2)."""

    def __init__(self, system: "ServingSystem") -> None:
        self.system = system
        self.scheduler = system.scheduler
        self.tracker = system.tracker
        self.kv = system.kv

    def resolve_deficit(self, batch: list, growth: dict) -> list:
        """Preempt scheduler-selected victims until ``batch`` can grow.

        Returns the batch filtered to still-RUNNING members; the
        caller's greedy fitting pass handles any residual shortfall.
        """
        deficit = max(0, sum(growth.values()) - self.kv.gpu_free_blocks())
        if deficit > 0:
            system = self.system
            victims = self.scheduler.select_oom_victims(system.view(), deficit)
            running = system.running
            for victim in victims:
                # Identity scan: req_ids are unique, so `victim in
                # running` could only ever match the same object — the
                # scan skips the dataclass field-by-field __eq__.
                for member in running:
                    if member is victim:
                        if victim.state is RequestState.RUNNING:
                            system.offload.preempt(victim)
                        break
            batch = [r for r in batch if r.state is RequestState.RUNNING]
        return batch

    def write_priority_at(self, now: float):
        """Chunked-write ordering: fatter buffers sync first (§5.2).

        Returns a one-instant priority callable (binds ``now`` once so
        the per-record calls stay flat dictionary work)."""
        buffer_seconds = self.tracker.buffer_seconds
        return lambda req_id: buffer_seconds(req_id, now)

    def observe_swap(self, tau_evict: float, tau_load: float) -> None:
        if hasattr(self.scheduler, "observe_swap_latency"):
            self.scheduler.observe_swap_latency(tau_evict, tau_load)


class DecodeStream:
    """Runs planned iterations on the executor and streams generated
    tokens into client buffers (the per-token hot path).

    The decode path has a *fusion plane*: when the batch provably
    cannot change before the next decision horizon — the earliest
    pending engine event (tick, arrival, cancel, transfer completion),
    the earliest request completion, GPU/host capacity exhaustion, or
    the per-iteration write-drain budget — it advances all K
    iterations up to that horizon in one event via closed-form bulk
    updates (see :meth:`_plan_fused` / :meth:`complete_fused` and the
    "Fusion plane" section of ARCHITECTURE.md).
    """

    def __init__(self, system: "ServingSystem", memory: MemoryPressureStage) -> None:
        self.system = system
        self.memory = memory
        self.engine = system.engine
        self.scheduler = system.scheduler
        self.tracker = system.tracker
        self.kv = system.kv
        self.executor = system.executor
        self.running = system.running
        self.prefill_queue = system.prefill_queue
        self.finished = system.finished
        # Streaming telemetry retires finished requests — the shell's
        # `finished` list must not pin every Request (and its token
        # timestamps) for the whole run in that mode.
        self.keep_finished = system.stream_stats is None
        self.composer = system.composer
        self.last_token_time = 0.0
        # The executor event currently in flight, as a picklable-free
        # descriptor ``(kind, end_time, payload)`` with kind one of
        # "prefill" (payload: the (request, chunk) entries),
        # "decode" (payload: the batch), or "fused" (payload:
        # (batch, k) for a k-iteration window).  Routers use it to
        # take *trajectory snapshots* for speculative dispatch in the
        # sharded plane (see Router.instance_snapshot): the descriptor
        # names exactly which requests can finish at the next
        # completion instant.  Only meaningful while ``system._busy``.
        self.inflight = None
        # Fusion-plane counters (surfaced in RunReport.executor_stats).
        self.fused_windows = 0
        self.fused_iterations = 0

    # --- prefill path -------------------------------------------------
    def run_prefill(self, entries: list, overhead: float) -> None:
        system = self.system
        result = self.executor.plan_prefill(
            [(request.req_id, chunk) for request, chunk in entries]
        )
        duration = result.duration + overhead
        now = self.engine.now()
        self.kv.drain_writes(now, now + duration,
                             priority=self.memory.write_priority_at(now))
        if system.tracer is not None:
            system.tracer.record(now, "executor", "prefill_start",
                                 tokens=result.tokens, batch=len(entries),
                                 duration=duration)
        system._busy = True
        self.inflight = ("prefill", now + duration, entries)
        self.engine.call_at(
            now + duration,
            lambda: self.complete_prefill(result, entries, duration),
            label="prefill-done",
        )

    def complete_prefill(self, result, entries: list, duration: float) -> None:
        system = self.system
        now = self.engine.now()
        for request, chunk in entries:
            if request.state is not RequestState.PREFILLING:
                continue
            request.prefill_progress += chunk
            target = request.context_len
            if request.prefill_progress >= target:
                self.kv.on_prefill_complete(request.req_id, target)
                self.prefill_queue.remove(request)
                request.transition(RequestState.RUNNING)
                self.running.append(request)
                if request.generated == 0:
                    # Prefill produces the first output token.
                    self.emit_token(request, now)
        if hasattr(self.scheduler, "observe_prefill"):
            self.scheduler.observe_prefill(result.tokens, duration)
        self.executor.commit(result)
        system._sample_timeline()
        system._busy = False
        self.inflight = None
        system._kick()

    # --- decode path --------------------------------------------------
    def run_decode(self, batch: list, overhead: float) -> None:
        system = self.system
        result = self.executor.plan_decode(
            # context_len inlined (prompt + generated): this comprehension
            # runs once per batch member per iteration.
            [(request.req_id, request.prompt_len + request.generated)
             for request in batch]
        )
        duration = result.duration + overhead
        now = self.engine.now()
        self.kv.drain_writes(now, now + duration,
                             priority=self.memory.write_priority_at(now))
        system._busy = True
        fused = self._plan_fused(batch, result, overhead, now, duration)
        if fused is None:
            k, window = 1, duration
            self.inflight = ("decode", now + duration, batch)
            self.engine.call_at(
                now + duration,
                lambda: self.complete_decode(result, batch),
                label="decode-done",
            )
        else:
            times, steps, write_through = fused
            k, window = len(times), times[-1] - now
            self.inflight = ("fused", times[-1], (batch, k))
            self.engine.call_at(
                times[-1],
                lambda: self.complete_fused(
                    result, batch, times, steps, write_through
                ),
                label="decode-fused-done",
            )
        if system.tracer is not None:
            # One record per executor event: a fused window is one
            # record carrying its iteration count.
            system.tracer.record(now, "executor", "decode_start",
                                 batch=len(batch), iterations=k,
                                 duration=window)

    # --- the fusion plane ---------------------------------------------
    def _plan_fused(self, batch: list, result, overhead: float,
                    now: float, duration: float):
        """Size a macro-step window starting with this iteration.

        Returns ``(times, steps, write_through)`` — per-iteration
        completion instants (bit-identical to the event times the
        per-iteration path would schedule), per-iteration executor
        step durations, and whether write drains must be replicated —
        or ``None`` when this iteration must run unfused.

        A window of K iterations is valid only when *nothing* else can
        observe or perturb state strictly before its last completion:

        * batch composition is frozen — whole running set fits (the
          composer found no deficit and no overflow), the prefill queue
          is empty, and the scheduler certifies its skipped boundaries
          are decision-free (:meth:`BaseScheduler.can_fuse_decode` —
          this covers the waiting queue: a policy may certify e.g. a
          memory-blocked FCFS head, which free blocks only shrinking
          keeps blocked for the whole window);
        * every completion instant precedes the earliest pending engine
          event (ticks, arrivals, cancels, transfer completions — the
          DES decision horizon) and the engine's ``run_until`` bound;
        * no request finishes before the window's last iteration
          (``k_cap`` from known ``output_len``);
        * KV growth fits GPU capacity for the whole window, and — with
          write-through on — the first drain fully synced, every
          intermediate drain's one-token-per-request write fits its
          iteration's d2h budget (checked with margin so fusion never
          rides a float knife-edge; too tight simply means no fusion),
          and the host pool keeps the uniform fast path's headroom.
        """
        system = self.system
        if system.prefill_queue:
            return None
        n_batch = len(batch)
        if n_batch != len(self.running):
            return None
        k_cap = min([r.output_len - r.generated for r in batch])
        if k_cap <= 1:
            return None
        engine = self.engine
        horizon = engine.next_event_time()
        t1 = now + duration
        if horizon is not None and t1 >= horizon:
            return None
        until = engine.run_until
        if until is not None and t1 > until:
            return None
        # The scheduler certificate last: for the stateless baselines
        # it re-evaluates the full admission boundary, so the cheap
        # arithmetic rejections above should filter first.
        view = system._iter_view
        if view is None or not self.scheduler.can_fuse_decode(view):
            return None
        kv = self.kv
        req_ids = result.req_ids
        k_cap = kv.max_fused_decode_iterations(req_ids, k_cap)
        if k_cap <= 1:
            return None
        kv_config = kv.config
        write_through = kv_config.write_through and kv_config.enable_offload
        need_bytes = d2h_bw = 0.0
        if write_through:
            if kv.write_backlog_tokens() != 0:
                # This iteration's drain left a dirty tail: subsequent
                # drains would not be uniform one-token syncs.
                return None
            if kv.link.d2h.busy_until() > t1:
                # d2h occupied past this iteration's completion: this
                # iteration's own drain is budget-bounded to finish by
                # t1, so this means an eviction transfer is in flight —
                # the per-iteration drains inside the window would find
                # zero idle budget and sync nothing, and replicating
                # uniform drains would diverge.  (The eviction's
                # completion is a pending event, so the link stays busy
                # for the whole candidate window.)
                return None
            if not kv_config.load_evict_overlap and kv.link.h2d.busy_until() > now:
                return None
            need_bytes = n_batch * kv.kv_bytes_per_token * 1.0625
            d2h_bw = kv.link.d2h.bandwidth
        # Walk per-iteration durations through the latency model's
        # single decode-roofline float sequence (constant batch shape;
        # context grows by n_batch per iteration) so every completion
        # instant is the float the per-iteration event chain would have
        # produced.  The first iteration keeps its caller-supplied
        # overhead (it may include an applied tick's scheduling cost);
        # later iterations pay the plain boundary cost — no tick can
        # fire inside a window.
        steady_overhead = 0.0 + self.scheduler.scheduling_cost_s()
        step_time = system.latency.decode_step_time_from_total
        total0 = 0
        for request in batch:
            total0 += request.prompt_len + request.generated
        times = [t1]
        steps = [result.duration]
        t = t1
        k = 1
        while k < k_cap:
            step = step_time(total0 + n_batch * k, n_batch)
            dur = step + steady_overhead
            if write_through and dur * d2h_bw < need_bytes:
                break
            t_next = t + dur
            if horizon is not None and t_next >= horizon:
                break
            if until is not None and t_next > until:
                break
            times.append(t_next)
            steps.append(step)
            t = t_next
            k += 1
        if k <= 1:
            return None
        if write_through and not kv.cpu_room_for_fused_drains(req_ids, k):
            return None
        return times, steps, write_through

    def complete_fused(self, result, batch: list, times: list,
                       steps: list, write_through: bool) -> None:
        """Apply a K-iteration macro-step at its final completion time.

        The window was sized so no event fires inside it, so deferring
        every mutation to this single callback is indistinguishable
        from the per-iteration event chain — and the per-token work
        collapses into bulk updates: one boundary-bookkeeping replay,
        one KV advance, one buffer delivery per request.
        """
        system = self.system
        now = times[-1]
        k = len(times)
        req_ids = result.req_ids
        running_state = RequestState.RUNNING
        if any([request.state is not running_state for request in batch]):
            # A batch member left RUNNING while this window's event was
            # pending.  No in-simulation event can do that (the window
            # is silent by construction) — only an external call
            # between stepped run() invocations, e.g. the public
            # ServingSystem.cancel().  Mirror complete_decode's
            # skip-departed behaviour: the window applies to the
            # survivors only (the departed request's KV record is
            # already released, and it must not receive tokens).
            batch = [r for r in batch if r.state is running_state]
            req_ids = tuple(r.req_id for r in batch)
        # Skipped-boundary bookkeeping first: it observes pre-window
        # generated counts, exactly like the elided calls would have.
        self.scheduler.on_fused_boundaries(self.running, k - 1)
        self.kv.fused_decode_advance(
            req_ids, k,
            drain_starts=times[:-1] if write_through else None,
        )
        deliver_batch(self.tracker, batch, times)
        if now > self.last_token_time:
            self.last_token_time = now
        # Intermediate samples: queue/batch sizes are frozen inside the
        # window, so only the timestamps differ.
        system._sample_timeline_many(times[:-1])
        for request in batch:
            if request.generated >= request.output_len:
                self.finish(request, now)
        self.executor.commit_fused(result, steps)
        system._sample_timeline()
        self.composer.decodes_since_prefill += k - 1
        self.fused_windows += 1
        self.fused_iterations += k
        system._busy = False
        self.inflight = None
        system._kick()

    def complete_decode(self, result, batch: list) -> None:
        """Apply one unfused decode iteration.

        The KV growth is bulked into one call (the same allocations
        and busy arithmetic as a per-request ``on_decode_token`` each).
        Delivery stays scalar: with one token per request there is no
        K dimension to vectorise, and the array kernel's per-row
        gather/scatter overhead loses to the O(1) scalar step.
        Reordering KV growth ahead of the deliveries is safe —
        plan_decode's fitting pass guaranteed every allocation fits,
        with or without blocks freed by batch members finishing this
        iteration.
        """
        system = self.system
        now = self.engine.now()
        running = RequestState.RUNNING
        live = [r for r in batch if r.state is running]
        if live:
            self.kv.fused_decode_advance(
                tuple([r.req_id for r in live]), 1, None
            )
            entries = self.tracker.entries_by_id
            invalidate = self.tracker.occupancy_invalidator
            for request in live:
                # Request.record_token inlined (the timestamp-order
                # check is vacuous here: the engine's clock is
                # monotone, so `now` never precedes a past token).
                if request.generated >= request.output_len:
                    raise RuntimeError(
                        f"request {request.req_id} already generated "
                        f"all {request.output_len} tokens"
                    )
                if request.ttft is None:
                    request.ttft = now - request.arrival_time
                    request.first_token_time = now
                request.generated += 1
                request.token_times.append(now)
                entries[request.req_id].buffer.deliver(now)
                if request.generated >= request.output_len:
                    # The finish hook may read this request's state
                    # at `now`; drop its memo entry first.
                    invalidate(request.req_id, None)
                    self.finish(request, now)
            # One memo sweep instead of a pop per delivery; the memo
            # is a pure cache, so over-clearing only costs recomputes
            # at the next query.
            self.tracker.invalidate_occupancy_all()
            if now > self.last_token_time:
                self.last_token_time = now
        self.executor.commit(result)
        system._sample_timeline()
        system._busy = False
        self.inflight = None
        system._kick()

    # --- token delivery / completion ----------------------------------
    def emit_token(self, request: Request, now: float) -> None:
        # NOTE: complete_decode inlines this exact sequence (delivery,
        # last-token-time update, finish check) for the per-token hot
        # loop — any semantic change here must be mirrored there.
        self.tracker.deliver_token(request.req_id, now)
        if now > self.last_token_time:
            self.last_token_time = now
        if request.generated >= request.output_len:
            self.finish(request, now)

    def finish(self, request: Request, now: float) -> None:
        system = self.system
        if system.tracer is not None:
            system.tracer.record(now, "request", "finish",
                                 req_id=request.req_id)
        request.transition(RequestState.FINISHED)
        # Identity scan (not `in`/`remove`): req_ids are unique, so
        # only the same object can match — skip dataclass __eq__.
        running = self.running
        for i, member in enumerate(running):
            if member is request:
                del running[i]
                break
        self.kv.release(request.req_id)
        self.tracker.mark_finished(request.req_id, now)
        if self.keep_finished:
            self.finished.append(request)
        system._unfinished -= 1
        if system.on_request_finished is not None:
            system.on_request_finished(request)
