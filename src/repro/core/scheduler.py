"""TokenFlow's buffer-aware two-step scheduler (paper §4).

Each tick (Δt, the paper's reschedule interval):

* **Stress gating** — scheduling work only happens under stress
  (pending requests, or a preempted request's buffer nearing
  depletion); otherwise the system keeps its prefill-first fast path
  (§4.2.1 "time-sliced mechanism").
* **Schedulability** — if the working set's combined required rates
  exceed the capacity estimate Γ, degrade to FCFS with memory-aware
  admission (§4.3): no preemption, no new admissions beyond memory.
* **Step 1, working-set determination** — admit waiting requests while
  the demand-adjusted working-set size (Eq. 5) has room and the swap
  is safe (free memory, or a resident victim whose buffer satisfies
  the μ·r·(τ_evict+τ_load+τ_sched) criterion).
* **Step 2, buffer balancing** — score every working-set member with
  the utility-derived priority, pin residents that could not survive
  a swap, and fill the GPU greedily in priority order; the diff
  becomes preempt/resume actions.  Resumptions choose load vs
  recompute by comparing the live t_IO estimate with the
  sliding-window recompute estimate (§4.2.3), and in-flight I/O caps
  how many swaps are issued (I/O-aware preemption).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from repro.core.balancer import Candidate, balance
from repro.core.estimator import PrefillCostEstimator
from repro.core.utility import UtilityParams, request_priority
from repro.core.working_set import WorkingSetParams, WorkingSetPolicy
from repro.serving.interface import BaseScheduler, SchedulerDecision, SystemView


@dataclass(frozen=True)
class TokenFlowParams:
    """All TokenFlow scheduling knobs in one place.

    Attributes:
        tick_interval: Δt, the reschedule interval (Fig. 22 sweep).
        utility: priority-function parameters.
        working_set: working-set sizing/admission parameters; its
            ``safety_factor`` is the buffer-conservativeness knob of
            Fig. 23.
        critical_buffer_s: T_critical — a preempted request whose
            buffer falls below this many seconds marks the system
            "stressed" and forces a scheduling pass.
        max_loads_per_tick: I/O-awareness cap on resume loads.
        max_preempts_per_tick: cap on evictions issued per tick.
        admission_watermark_frac: fraction of GPU blocks kept free
            when admitting new prefills (decode growth headroom).
        scheduling_cost_s: modelled wall-clock cost per pass (§7.6).
    """

    tick_interval: float = 0.5
    utility: UtilityParams = field(default_factory=UtilityParams)
    working_set: WorkingSetParams = field(default_factory=WorkingSetParams)
    critical_buffer_s: float = 1.5
    max_loads_per_tick: int = 32
    max_preempts_per_tick: int = 32
    admission_watermark_frac: float = 0.05
    scheduling_cost_s: float = 0.0004

    def __post_init__(self) -> None:
        # NaN passes a sign check.  An infinite interval makes a
        # priority 0 * inf = NaN, and the greedy balancer is optimal
        # only over finite priorities (see repro.core.balancer).
        if not math.isfinite(self.tick_interval) or self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive and finite")
        if not math.isfinite(self.critical_buffer_s) or self.critical_buffer_s < 0:
            raise ValueError("critical_buffer_s must be non-negative and finite")
        if self.max_loads_per_tick <= 0 or self.max_preempts_per_tick <= 0:
            raise ValueError("per-tick action caps must be positive")
        if not 0 <= self.admission_watermark_frac < 1:
            raise ValueError("admission_watermark_frac must be in [0, 1)")
        # The cost is added to every iteration's overhead and so to the
        # simulated clock.
        if not math.isfinite(self.scheduling_cost_s) or self.scheduling_cost_s < 0:
            raise ValueError("scheduling_cost_s must be non-negative and finite")


class TokenFlowScheduler(BaseScheduler):
    """The buffer-aware preemptive scheduler."""

    name = "tokenflow"
    # The serving loop interleaves prefill/decode based on running
    # buffers for schedulers that opt in (§4.2.3).
    decode_priority_aware = True

    def __init__(self, params: Optional[TokenFlowParams] = None) -> None:
        self.params = params if params is not None else TokenFlowParams()
        self.tick_interval = self.params.tick_interval
        self.prefill_cost = PrefillCostEstimator()
        self._working_set: Optional[WorkingSetPolicy] = None
        # Profiled swap latencies (moving estimates for the admission rule).
        self._tau_evict = 0.05
        self._tau_load = 0.05
        self.fallback_ticks = 0
        self.scheduling_passes = 0
        # Passes that did real scheduling work (system was stressed);
        # the gap to scheduling_passes quantifies the §4.2.1 claim that
        # overhead scales with demand.
        self.active_passes = 0

    # --- wiring ------------------------------------------------------------
    def _policy(self, view: SystemView) -> WorkingSetPolicy:
        if self._working_set is None:
            capacity_tokens = view.kv.gpu_pool.capacity * view.kv.gpu_pool.block_size
            self._working_set = WorkingSetPolicy(capacity_tokens, self.params.working_set)
        return self._working_set

    def observe_prefill(self, n_tokens: int, duration: float) -> None:
        """Hook for the serving loop: completed prefill iterations."""
        self.prefill_cost.observe_prefill(n_tokens, duration)

    def observe_swap_latency(self, tau_evict: float, tau_load: float) -> None:
        """Hook: measured evict/load durations refine the swap budget."""
        blend = 0.3
        self._tau_evict = (1 - blend) * self._tau_evict + blend * max(0.0, tau_evict)
        self._tau_load = (1 - blend) * self._tau_load + blend * max(0.0, tau_load)

    def scheduling_cost_s(self) -> float:
        return self.params.scheduling_cost_s

    # --- fast path ------------------------------------------------------------
    def on_iteration_boundary(self, view: SystemView) -> SchedulerDecision:
        """Prefill-first admission + opportunistic resumption.

        Between ticks the GPU must never starve: if memory frees up
        (requests finished, evictions completed) we resume preempted
        requests — most-starved first — and admit waiting requests up
        to the working-set limit.
        """
        decision = SchedulerDecision()
        policy = self._policy(view)
        policy.observe_footprints(view.running)
        watermark = int(view.kv.gpu_pool.capacity * self.params.admission_watermark_frac)
        free = view.kv.gpu_free_blocks()
        # Opportunistic resume: fill idle decode slots from the
        # preempted pool (the balancer evicted them under pressure; if
        # the pressure is gone they should run again).  At most `slots`
        # resumes can land, so rank only that many; with no free slot the
        # ranking is skipped entirely — the common case under load.
        active = len(view.running) + len(view.loading) + len(view.prefill_queue)
        slots = view.max_batch - active
        if slots > 0 and view.preempted:
            # Stable smallest-k by buffer seconds: decorating with the
            # original index reproduces a key-stable nsmallest without
            # a per-element key callback.
            preempted = view.preempted
            seconds = view.tracker.buffer_seconds_many(preempted, view.now)
            decorated = sorted([(s, i) for i, s in enumerate(seconds)])[:slots]
            starved_first = [preempted[i] for _, i in decorated]
            for request in starved_first:
                needed = view.kv.blocks_for_tokens(request.context_len)
                if needed + watermark > free:
                    break
                self._route_resume(view, request, decision)
                free -= needed
        if not view.waiting:
            return decision
        ws_size = self._working_set_size(view)
        w_limit = policy.w_scheduled(len(view.running))
        for request in view.waiting:
            if ws_size >= max(w_limit, 1):
                break
            needed = view.kv.blocks_for_tokens(request.prompt_len)
            if needed + watermark > free:
                break
            decision.admit.append(request)
            free -= needed
            ws_size += 1
        return decision

    # --- macro-step decode fusion ---------------------------------------------
    def can_fuse_decode(self, view: SystemView) -> bool:
        """Boundary calls are skippable when they provably cannot act.

        With nothing waiting and either no preempted requests or no
        idle decode slot (``active >= max_batch``; within a fused
        window the active count is frozen and free memory only
        shrinks), :meth:`on_iteration_boundary` can neither admit nor
        resume — its only side effect is the β footprint observation,
        which :meth:`on_fused_boundaries` replays exactly.
        """
        if view.waiting:
            return False
        if view.preempted:
            active = (
                len(view.running) + len(view.loading) + len(view.prefill_queue)
            )
            if active < view.max_batch:
                return False
        return True

    def on_fused_boundaries(self, running, n_iters: int) -> None:
        """Replay the β observations of the skipped boundary calls."""
        if self._working_set is not None:
            self._working_set.replay_footprints(running, n_iters)

    def tick_is_idle(self, view: SystemView, at: float) -> bool:
        """A tick at ``at`` is idle when the system is not stressed
        there (:meth:`_stressed_at`).  The queues are frozen inside a
        window, so only the preempted buffers move with ``at``.  An
        idle :meth:`on_tick` only counts a pass, which
        :meth:`on_idle_ticks` replays."""
        return not self._stressed_at(view, at)

    def on_idle_ticks(self, n_ticks: int) -> None:
        self.scheduling_passes += n_ticks

    def _route_resume(
        self, view: SystemView, request, decision: SchedulerDecision
    ) -> None:
        """§4.2.3 recompute-vs-load choice for one resumption."""
        t_io = view.kv.estimate_io_time(request.context_len, 0, view.now)
        t_rec = self.prefill_cost.estimate_recompute(request.context_len)
        if view.kv.can_resume_load(request.req_id) and t_io <= t_rec:
            decision.resume_load.append(request)
        else:
            decision.resume_recompute.append(request)

    # --- the two-step tick -------------------------------------------------------
    def on_tick(self, view: SystemView) -> SchedulerDecision:
        self.scheduling_passes += 1
        if not self._stressed_at(view, view.now):
            return SchedulerDecision()
        self.active_passes += 1
        if not self._is_schedulable(view):
            self.fallback_ticks += 1
            return self._fcfs_fallback(view)
        decision = SchedulerDecision()
        policy = self._policy(view)
        policy.observe_footprints(view.running)
        self._admit_into_working_set(view, policy, decision)
        self._balance_buffers(view, policy, decision)
        decision.validate()
        return decision

    # --- stress / schedulability ---------------------------------------------------
    def _stressed_at(self, view: SystemView, at: float) -> bool:
        """§4.2.1: pending demand or buffer-critical preempted requests.

        ``on_tick`` asks at ``view.now``; the fusion planner asks about
        future tick instants inside a window it may still reject, so
        the preempted buffers are peeked without moving a consumption
        cursor.
        """
        if view.waiting or view.prefill_queue:
            return True
        # More residents than decode slots: buffer balancing must trim
        # the batch (otherwise residents rotate by starvation order and
        # preemption never reclaims their memory).
        if len(view.running) > view.max_batch:
            return True
        # Anticipate one tick ahead (the predicted-buffer refinement of
        # §3.3): a preempted request that will cross T_critical before
        # the next pass counts as critical now.
        threshold = self.params.critical_buffer_s + self.params.tick_interval
        return not view.tracker.peek_buffers_hold(view.preempted, at, threshold)

    def _working_set_size(self, view: SystemView) -> int:
        return len(view.prefill_queue) + len(view.running) + len(view.loading) + len(view.preempted)

    def _is_schedulable(self, view: SystemView) -> bool:
        """§4.3: Σ r_i over the working set must not exceed Γ."""
        demand = sum(
            r.rate
            for r in chain(
                view.prefill_queue, view.running, view.loading, view.preempted
            )
        )
        return demand <= view.executor.capacity_estimate()

    def _fcfs_fallback(self, view: SystemView) -> SchedulerDecision:
        """Graceful degradation: FCFS with memory-aware admission only.

        No preemption; offloaded requests resume in arrival order when
        memory frees up; no new admissions while the working set is
        saturated.
        """
        decision = SchedulerDecision()
        free = view.kv.gpu_free_blocks()
        watermark = int(view.kv.gpu_pool.capacity * self.params.admission_watermark_frac)
        for request in sorted(view.preempted, key=lambda r: r.arrival_time):
            needed = view.kv.blocks_for_tokens(request.context_len)
            if needed + watermark > free:
                break
            if view.kv.can_resume_load(request.req_id):
                decision.resume_load.append(request)
            else:
                decision.resume_recompute.append(request)
            free -= needed
        return decision

    # --- step 1: working-set determination ---------------------------------------------
    def _admit_into_working_set(
        self, view: SystemView, policy: WorkingSetPolicy, decision: SchedulerDecision
    ) -> None:
        ws_size = self._working_set_size(view)
        w_limit = policy.w_scheduled(len(view.running))
        free = view.kv.gpu_free_blocks()
        # The victim test reads only the running set, so it is asked at
        # most once per tick, and only once memory runs short.
        has_victim = None
        for request in view.waiting:
            if ws_size >= w_limit:
                break
            needed = view.kv.blocks_for_tokens(request.prompt_len)
            has_memory = needed <= free
            if not has_memory:
                if has_victim is None:
                    has_victim = self._exists_safe_victim(view, policy)
                if not has_victim:
                    break
            decision.admit.append(request)
            ws_size += 1
            if has_memory:
                free -= needed

    def _exists_safe_victim(self, view: SystemView, policy: WorkingSetPolicy) -> bool:
        """Could some running request be swapped out without stalling?"""
        tracker, now = view.tracker, view.now
        tau_evict, tau_load = self._tau_evict, self._tau_load
        return any(
            policy.is_preemption_safe(
                tracker.occupancy(request.req_id, now), request.rate,
                tau_evict, tau_load,
            )
            for request in view.running
        )

    # --- step 2: buffer balancing --------------------------------------------------------
    def _balance_buffers(
        self, view: SystemView, policy: WorkingSetPolicy, decision: SchedulerDecision
    ) -> None:
        tau_evict, tau_load = self._tau_evict, self._tau_load
        candidates = []
        # Candidate construction doubles as the working-set id map —
        # balance() only ever names running/preempted members, so no
        # separate membership concatenation is needed.
        by_id = {}
        for request in view.running:
            candidates.append(
                self._candidate(view, request, resident=True, t_overhead=0.0,
                                policy=policy, tau_evict=tau_evict, tau_load=tau_load)
            )
            by_id[request.req_id] = request
        for request in view.preempted:
            t_io = view.kv.estimate_io_time(request.context_len, 0, view.now)
            t_rec = self.prefill_cost.estimate_recompute(request.context_len)
            t_overhead = min(t_io, t_rec)
            candidates.append(
                self._candidate(view, request, resident=False, t_overhead=t_overhead,
                                policy=policy, tau_evict=tau_evict, tau_load=tau_load)
            )
            by_id[request.req_id] = request
        if not candidates:
            return
        # Reserve headroom for admitted prefills plus decode growth.
        reserve = int(view.kv.gpu_pool.capacity * self.params.admission_watermark_frac)
        for request in chain(view.prefill_queue, decision.admit):
            reserve += view.kv.blocks_for_tokens(request.prompt_len)
        budget = max(0, view.kv.gpu_pool.capacity - reserve)
        result = balance(candidates, budget, view.max_batch)

        preempts = [by_id[rid] for rid in result.to_preempt][: self.params.max_preempts_per_tick]
        decision.preempt.extend(preempts)

        # Memory freed by this tick's preemptions is available to the
        # loads issued in the same decision (the offload manager
        # executes preempts first); with write-through nearly all of a
        # victim's blocks free instantly.
        freed = sum(view.kv.gpu_pool.used_by(r.req_id) for r in preempts)
        resumes = [by_id[rid] for rid in result.to_resume]
        # Resumes must not balloon the resident set past the decode
        # batch: only refill the slots this tick actually frees.  The
        # most-starved-first order established here is the invariant
        # _assign_resume_modes relies on — it must not re-sort.
        resident_after = len(view.running) + len(view.loading) - len(preempts)
        slots = max(0, view.max_batch - resident_after)
        seconds = view.tracker.buffer_seconds_many(resumes, view.now)
        resumes = [
            resumes[i]
            for _, i in sorted([(s, i) for i, s in enumerate(seconds)])[:slots]
        ]
        self._assign_resume_modes(view, resumes, decision, extra_free_blocks=freed)

    def _candidate(
        self,
        view: SystemView,
        request,
        resident: bool,
        t_overhead: float,
        policy: WorkingSetPolicy,
        tau_evict: float,
        tau_load: float,
    ) -> Candidate:
        # One buffer read: buffer_s is RequestTracker.buffer_seconds.
        buffer = view.tracker.get(request.req_id).buffer
        occupancy = buffer.occupancy(view.now)
        buffer_s = occupancy * buffer.interval
        t_eff = max(0.0, self.params.tick_interval - t_overhead)
        priority = request_priority(
            buffer_occupancy=occupancy,
            buffer_seconds=buffer_s,
            output_len=request.output_len,
            effective_time=t_eff,
            params=self.params.utility,
        )
        pinned = resident and not policy.is_preemption_safe(
            occupancy, request.rate, tau_evict, tau_load
        )
        blocks = view.kv.blocks_for_tokens(max(request.context_len, 1))
        return Candidate(
            req_id=request.req_id,
            priority=priority,
            blocks=blocks,
            resident=resident,
            pinned=pinned,
        )

    def _assign_resume_modes(
        self,
        view: SystemView,
        resumes: list,
        decision: SchedulerDecision,
        extra_free_blocks: int = 0,
    ) -> None:
        """§4.2.3: pick load vs recompute per resumed request.

        ``extra_free_blocks`` credits memory that this decision's
        preemptions will have freed by the time loads execute.

        Precondition: ``resumes`` is already ordered most-starved
        first (smallest buffer_seconds first) — the caller sorts once
        when trimming to the free slots, so re-sorting here would be
        pure duplicate work.
        """
        loads_left = self.params.max_loads_per_tick
        block_budget = view.kv.gpu_free_blocks() + extra_free_blocks
        # I/O-awareness: stop queueing loads once the h2d direction is
        # backed up beyond one scheduling interval.  No transfer is
        # issued while deciding, so the backlog is read once.
        io_ok = view.kv.link.h2d.queueing_delay(view.now) < self.params.tick_interval
        for request in resumes:
            record = view.kv.record(request.req_id)
            needed = view.kv.blocks_for_tokens(max(1, record.cpu_tokens))
            t_io = view.kv.estimate_io_time(request.context_len, 0, view.now)
            t_rec = self.prefill_cost.estimate_recompute(request.context_len)
            can_load = (
                record.cpu_tokens > 0
                and view.kv.config.enable_offload
                and needed <= block_budget
                and loads_left > 0
                and io_ok
            )
            if can_load and t_io <= t_rec:
                decision.resume_load.append(request)
                loads_left -= 1
                block_budget -= needed
            else:
                decision.resume_recompute.append(request)

    # --- reactive OOM path ------------------------------------------------------------
    def select_oom_victims(self, view: SystemView, blocks_needed: int) -> list:
        """Evict the requests with the fattest buffers first (§4.1)."""
        tracker, now = view.tracker, view.now
        ranked = sorted(
            view.running,
            key=lambda r: tracker.buffer_seconds(r.req_id, now),
            reverse=True,
        )
        victims: list = []
        freed = 0
        for request in ranked:
            if freed >= blocks_needed:
                break
            victims.append(request)
            freed += view.kv.gpu_pool.used_by(request.req_id)
        return victims
