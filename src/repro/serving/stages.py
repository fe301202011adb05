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


def feed_stream_arrivals(engine, stream, on_pop, on_request, label):
    """Schedule a lazy request stream as a self-refilling event chain.

    The streaming-admission implementation behind
    :meth:`AdmissionStage.feed` (``on_request`` admits).  Each scheduled
    arrival pops its successor off the stream *before* processing its
    own request, so

    * at most one future request exists in memory, and
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
    iterator = iter(stream)

    def schedule_next() -> None:
        request = next(iterator, None)
        if request is None:
            return
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

    def fire(request: Request) -> None:
        # Refill before processing: planning triggered by this request
        # must already see the successor arrival on the event horizon.
        schedule_next()
        on_request(request)

    schedule_next()


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
        # The pending tick event (None when no tick is scheduled); the
        # fusion plane reads its instant and replays it.
        self.tick_event = None

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
    def feed(self, stream) -> None:
        """Drive arrivals from a lazy request stream.

        See :func:`feed_stream_arrivals` for the self-refilling chain
        and its parity guarantees.
        """
        system = self.system

        def on_pop(_request: Request) -> None:
            system._unfinished += 1

        feed_stream_arrivals(
            self.engine, stream, on_pop, self.on_arrival, "arrival"
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
        if interval is None or self.tick_event is not None or self.system._unfinished == 0:
            return
        self.tick_event = self.engine.call_after(
            interval, self._on_tick_event, label="sched-tick"
        )

    def _on_tick_event(self) -> None:
        self.tick_event = None
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
        self.chunked = system.scheduler.wants_chunked_prefill
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
        if not self.scheduler.decode_priority_aware or not self.running:
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
        if not self.scheduler.decode_priority_aware:
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
        if len(queue) > 1 and self.scheduler.decode_priority_aware:
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
        if len(self.running) > self.config.max_batch and self.scheduler.decode_priority_aware:
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
        self.scheduler.observe_swap_latency(tau_evict, tau_load)


# Engine-event label prefixes that read differently as a window's cut
# reason; any other label is reported by its prefix ("arrival",
# "cancel", ...).
_EVENT_CUTS = {"load-done": "load", "evict-done": "evict"}


class DecodeWindow:
    """One planned decode window: the value every layer consumes once.

    ``k`` iterations complete at ``times`` — the floats the
    per-iteration event chain would produce — after executor steps of
    ``steps`` seconds.  ``drain_starts`` are the interior boundaries
    whose write-through drains the window replays (``None`` without
    write-through).  ``ticks`` idle scheduler ticks were absorbed at
    interior boundaries; ``tick_due`` says a tick fired after the last
    interior boundary, so it is applied when the window completes.
    ``cut`` names what ended the window (see ARCHITECTURE.md, "Fusion
    plane").  A ``k == 1`` window is an unfused iteration and carries
    only its ``cut``.
    """

    __slots__ = ("k", "times", "steps", "drain_starts", "ticks",
                 "tick_due", "cut")

    def __init__(self, cut: str, times: Optional[list] = None,
                 steps: Optional[list] = None,
                 drain_starts: Optional[list] = None,
                 ticks: int = 0, tick_due: bool = False) -> None:
        self.k = 1 if times is None else len(times)
        self.times = times
        self.steps = steps
        self.drain_starts = drain_starts
        self.ticks = ticks
        self.tick_due = tick_due
        self.cut = cut


# One shared, never-mutated ``k == 1`` window per cut reason: most
# iterations of a busy node run unfused, and they need no fresh object.
_UNFUSED: dict = {}


def _unfused(cut: str) -> DecodeWindow:
    window = _UNFUSED.get(cut)
    if window is None:
        window = _UNFUSED[cut] = DecodeWindow(cut)
    return window


class DecodeStream:
    """Runs planned iterations on the executor and streams generated
    tokens into client buffers (the per-token hot path).

    The decode path has a *fusion plane*: when the batch provably
    cannot change before the next decision horizon — the earliest
    pending engine event (arrival, cancel, transfer completion), a
    scheduler tick the scheduler does not certify idle, the earliest
    request completion, GPU/host capacity exhaustion, or the
    per-iteration write-drain budget — it advances all K iterations
    up to that horizon in one event via closed-form bulk updates (see
    :meth:`_plan_fused` / :meth:`complete_decode` and the "Fusion
    plane" section of ARCHITECTURE.md).
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
        self.composer = system.composer
        self.last_token_time = 0.0
        # The executor event currently in flight, as a picklable-free
        # descriptor ``(kind, end_time, payload)`` with kind either
        # "prefill" (payload: the (request, chunk) entries) or "decode"
        # (payload: (batch, k) for a k-iteration window, k == 1 when
        # unfused).  Routers use it to take *trajectory snapshots* for
        # speculative dispatch in the sharded plane (see
        # Router.instance_snapshot): the descriptor names exactly which
        # requests can finish at the next completion instant.  Only
        # meaningful while ``system._busy``.
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
        first = []
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
                    first.append(request)
        if first:
            self.emit_tokens(first, [self.engine.now()])
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
        window = self._plan_fused(batch, result, overhead, now, duration)
        k = window.k
        end = now + duration if k == 1 else window.times[-1]
        self.inflight = ("decode", end, (batch, k))
        self.engine.call_at(
            end,
            lambda: self.complete_decode(result, batch, window),
            label="decode-done",
        )
        if system.tracer is not None:
            # One record per executor event: a fused window is one
            # record carrying its iteration count and cut reason.
            system.tracer.record(now, "executor", "decode_start",
                                 batch=len(batch), iterations=k,
                                 duration=duration if k == 1 else end - now,
                                 cut=window.cut)

    # --- the fusion plane ---------------------------------------------
    def _plan_fused(self, batch: list, result, overhead: float,
                    now: float, duration: float) -> DecodeWindow:
        """Size a macro-step window starting with this iteration.

        Returns the :class:`DecodeWindow`: per-iteration completion
        instants (bit-identical to the event times the per-iteration
        path would schedule), executor step durations, the write
        drains to replay, the absorbed ticks, and the cut reason.  A
        ``k == 1`` window means this iteration runs unfused.

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
          event other than the scheduler tick (arrivals, cancels,
          transfer completions — the DES decision horizon) and the
          engine's ``run_until`` bound;
        * scheduler ticks land where the event chain would apply them:
          the queued tick and its successors (each ``tick_interval``
          after the last, the floats ``call_after`` produces) are
          applied at the first boundary at or after them.  The window
          runs past a tick the scheduler certifies idle there
          (:meth:`BaseScheduler.tick_is_idle`) — the next step then
          pays the tick's scheduling cost too — and ends at any other.
          A boundary exactly equal to a tick that is not queued yet is
          never crossed: the two events' order would depend on their
          insertion sequence;
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
            return _unfused("batch")
        n_batch = len(batch)
        if n_batch != len(self.running):
            return _unfused("batch")
        k_cap = min([r.output_len - r.generated for r in batch])
        if k_cap <= 1:
            return _unfused("completion")
        engine = self.engine
        tick = system.admission.tick_event
        horizon, label = engine.decision_horizon(tick)
        t1 = now + duration
        if horizon is not None and t1 >= horizon:
            return _unfused(self._event_cut(label))
        until = engine.run_until
        if until is not None and t1 > until:
            return _unfused("until")
        # The scheduler certificate last: for the stateless baselines
        # it re-evaluates the full admission boundary, so the cheap
        # arithmetic rejections above should filter first.
        view = system._iter_view
        scheduler = self.scheduler
        if view is None or not scheduler.can_fuse_decode(view):
            return _unfused("scheduler")
        kv = self.kv
        req_ids = result.req_ids
        kv_cap = kv.max_fused_decode_iterations(req_ids, k_cap)
        if kv_cap <= 1:
            return _unfused("kv")
        cut = "kv" if kv_cap < k_cap else "completion"
        kv_config = kv.config
        write_through = kv_config.write_through and kv_config.enable_offload
        need_bytes = d2h_bw = 0.0
        if write_through:
            if kv.write_backlog_tokens() != 0:
                # This iteration's drain left a dirty tail: subsequent
                # drains would not be uniform one-token syncs.
                return _unfused("d2h")
            if kv.link.d2h.busy_until() > t1:
                # d2h occupied past this iteration's completion: this
                # iteration's own drain is budget-bounded to finish by
                # t1, so this means an eviction transfer is in flight —
                # the per-iteration drains inside the window would find
                # zero idle budget and sync nothing, and replicating
                # uniform drains would diverge.  (The eviction's
                # completion is a pending event, so the link stays busy
                # for the whole candidate window.)
                return _unfused("evict")
            if not kv_config.load_evict_overlap and kv.link.h2d.busy_until() > now:
                return _unfused("load")
            need_bytes = n_batch * kv.kv_bytes_per_token * 1.0625
            d2h_bw = kv.link.d2h.bandwidth
        # Ticks: `tick_at` is the next tick instant not yet applied at
        # a boundary, `queued` whether it is the event already on the
        # engine.  A rate controller adjusts rates at every applied
        # tick, so no tick is idle then.
        interval = scheduler.tick_interval
        tick_at = tick.time if tick is not None else None
        queued = True
        absorb = system.rate_controller is None
        ticked = False  # a tick applies at the newest boundary
        if tick_at is not None and t1 >= tick_at:
            if tick_at + interval <= t1:
                return _unfused("tick")
            ticked, tick_at, queued = True, tick_at + interval, False
        # Walk per-iteration durations through the latency model's
        # decode step (constant batch shape; context grows by n_batch
        # per iteration) so every completion instant is the float the
        # per-iteration event chain would have produced.  The first
        # iteration keeps its caller-supplied overhead (it may include
        # an applied tick's scheduling cost); later iterations pay the
        # plain boundary cost, or `(0.0 + c) + c` after an absorbed
        # tick — the order _start_iteration adds them in.
        step_time = system.latency.decode_step_time_from_total
        cost = scheduler.scheduling_cost_s()
        steady_overhead = 0.0 + cost
        tick_overhead = steady_overhead + cost
        total0 = 0
        for request in batch:
            total0 += request.prompt_len + request.generated
        times = [t1]
        steps = [result.duration]
        ticks = 0
        t = t1
        k = 1
        while k < kv_cap:
            if ticked:
                if not (absorb and scheduler.tick_is_idle(view, t)):
                    cut = "tick"
                    break
                boundary_overhead = tick_overhead
            else:
                boundary_overhead = steady_overhead
            step = step_time(total0 + n_batch * k, n_batch)
            dur = step + boundary_overhead
            if write_through and dur * d2h_bw < need_bytes:
                cut = "d2h"
                break
            t_next = t + dur
            if horizon is not None and t_next >= horizon:
                cut = self._event_cut(label)
                break
            if until is not None and t_next > until:
                cut = "until"
                break
            next_ticked = False
            if tick_at is not None and t_next >= tick_at:
                if t_next == tick_at and not queued:
                    cut = "tie"
                    break
                if tick_at + interval <= t_next:
                    # Two ticks inside one iteration: leave it unfused.
                    cut = "tick"
                    break
                next_ticked, tick_at, queued = True, tick_at + interval, False
            if ticked:
                ticks += 1
            times.append(t_next)
            steps.append(step)
            t = t_next
            k += 1
            ticked = next_ticked
        if k <= 1:
            return _unfused(cut)
        if write_through and not kv.cpu_room_for_fused_drains(req_ids, k):
            return _unfused("host")
        return DecodeWindow(cut, times, steps,
                            times[:-1] if write_through else None,
                            ticks, ticked)

    @staticmethod
    def _event_cut(label: str) -> str:
        """The cut reason for a window ended by the engine event
        ``label`` names (``"dispatch"`` for a cluster's next dispatch)."""
        kind = label.partition(":")[0]
        return _EVENT_CUTS.get(kind, kind)

    def complete_decode(self, result, batch: list, window: DecodeWindow) -> None:
        """Apply a decode window of ``window.k`` iterations at its last
        completion instant; a ``k == 1`` window is an unfused iteration.

        The window was sized so no event but idle scheduler ticks fires
        inside it, so deferring every mutation to this one callback is
        indistinguishable from the per-iteration event chain.  A K >= 2
        window first replays its skipped boundaries
        (:meth:`complete_fused`); then one KV advance and one
        :func:`deliver_batch` move every batch member by K tokens, and
        the members that reached their output length finish.  Growing
        KV ahead of the deliveries is safe: plan_decode's fitting pass
        guaranteed every allocation fits, with or without blocks freed
        by batch members finishing here.
        """
        system = self.system
        now = self.engine.now()
        req_ids = result.req_ids
        running = RequestState.RUNNING
        for request in batch:
            if request.state is not running:
                # A batch member left RUNNING while this event was
                # pending: a cancel event during an unfused iteration,
                # or, inside a fused window (silent by construction),
                # an external call between stepped run() invocations
                # such as the public ServingSystem.cancel().  Its KV
                # record is already released and it must not receive
                # tokens: the window applies to the survivors only.
                batch = [r for r in batch if r.state is running]
                req_ids = tuple([r.req_id for r in batch])
                break
        k = window.k
        if k == 1:
            self.executor.commit(result)
            times = [now]
        else:
            self.complete_fused(result, window)
            times = window.times
        self.kv.fused_decode_advance(req_ids, k, window.drain_starts)
        if batch:
            self.emit_tokens(batch, times)
        system._sample_timeline()
        system._busy = False
        self.inflight = None
        system._kick()

    def complete_fused(self, result, window: DecodeWindow) -> None:
        """The part of :meth:`complete_decode` only a K >= 2 window has:
        the work of its K - 1 skipped boundaries, replayed at once.

        It runs before the window's tokens are delivered: the boundary
        bookkeeping observes pre-window generated counts, exactly like
        the elided calls would have.
        """
        system = self.system
        k = window.k
        scheduler = self.scheduler
        scheduler.on_fused_boundaries(self.running, k - 1)
        if window.ticks:
            scheduler.on_idle_ticks(window.ticks)
        # The ticks that fired inside the window set tick_due; those
        # applied at interior boundaries are replayed above, and only
        # one that fired after the last of them stays due.
        system.admission.tick_due = window.tick_due
        # Interior samples: the queues are frozen inside the window, so
        # only the timestamps differ.
        system._sample_timeline_many(window.times[:-1])
        self.executor.commit_fused(result, window.steps)
        self.composer.decodes_since_prefill += k - 1
        self.fused_windows += 1
        self.fused_iterations += k

    # --- token delivery / completion ----------------------------------
    def emit_tokens(self, requests: list, times: list) -> None:
        """Deliver one token per instant in ``times`` to every request,
        then finish each request that reached its output length."""
        deliver_batch(self.tracker, requests, times)
        now = times[-1]
        if now > self.last_token_time:
            self.last_token_time = now
        for request in requests:
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
        system._unfinished -= 1
        if system.on_request_finished is not None:
            system.on_request_finished(request)
