"""FastServe-style skip-join MLFQ baseline (extension comparator).

FastServe (Wu et al., 2023 — the paper's related work §9) schedules
LLM requests with a multi-level feedback queue: requests start in a
priority level chosen by their prompt length (skip-join), are demoted
as they consume service quantum, and higher levels preempt lower ones.
Preemption is recompute-based, like the other non-TokenFlow baselines.

This is *not* one of the paper's evaluated baselines; it is included
as an extension comparator because MLFQ is the classic
streaming-agnostic preemptive policy — it minimises completion-time
style metrics while knowing nothing about client buffers, which makes
it a sharp contrast for TokenFlow's buffer-aware preemption in the
extension benches.
"""

from __future__ import annotations

from repro.serving.interface import BaseScheduler, SchedulerDecision, SystemView

# Number of priority levels (0 = highest).
N_LEVELS = 4
# Service quantum of level 0; each level doubles it.
BASE_QUANTUM_TOKENS = 64
# Prompt-length granularity of the initial level (longer prompts start
# lower, as in FastServe).
SKIP_JOIN_THRESHOLD = 512
# Free-block watermark for admission, as a fraction of the GPU pool.
ADMISSION_WATERMARK_FRAC = 0.05
# Preemptions per scheduling pass.
MAX_PREEMPTS_PER_TICK = 8


class MLFQScheduler(BaseScheduler):
    """Skip-join multi-level feedback queue with recompute preemption."""

    name = "mlfq"
    tick_interval = 0.5  # scheduling-pass period

    def __init__(self) -> None:
        self._levels: dict = {}          # req_id -> current level
        self._served_tokens: dict = {}   # req_id -> tokens since last demotion

    def scheduling_cost_s(self) -> float:
        return 0.0002

    # --- level bookkeeping ------------------------------------------------------
    def initial_level(self, prompt_len: int) -> int:
        """Skip-join: longer prompts join a lower priority level."""
        level = prompt_len // SKIP_JOIN_THRESHOLD
        return min(N_LEVELS - 1, level)

    def quantum(self, level: int) -> int:
        return BASE_QUANTUM_TOKENS * (2 ** level)

    def level_of(self, request) -> int:
        if request.req_id not in self._levels:
            self._levels[request.req_id] = self.initial_level(request.prompt_len)
            self._served_tokens[request.req_id] = 0
        return self._levels[request.req_id]

    def note_progress(self, request) -> None:
        """Demote requests that exhausted their level's quantum."""
        level = self.level_of(request)
        served = request.generated - self._served_tokens.get(request.req_id, 0)
        if served >= self.quantum(level) and level < N_LEVELS - 1:
            self._levels[request.req_id] = level + 1
            self._served_tokens[request.req_id] = request.generated

    # --- scheduling ---------------------------------------------------------------
    def can_fuse_decode(self, view: SystemView) -> bool:
        """Boundary only admits waiting requests, so ask it directly:
        an empty decision now stays empty for the whole fused window
        (MLFQ *skips* blocked candidates rather than breaking, but
        every candidate's block condition is monotone — free blocks
        only shrink and no slot appears).  The boundary's only side
        effect, lazy level registration, is idempotent and happens on
        this gate call exactly as the skipped calls would have done it.
        """
        return self.on_iteration_boundary(view).is_empty()

    def on_iteration_boundary(self, view: SystemView) -> SchedulerDecision:
        """Admit by (level, arrival) priority while memory allows."""
        decision = SchedulerDecision()
        watermark = int(view.kv.gpu_pool.capacity * ADMISSION_WATERMARK_FRAC)
        free = view.kv.gpu_free_blocks()
        active = len(view.running) + len(view.prefill_queue) + len(view.loading)
        candidates = sorted(
            view.waiting, key=lambda r: (self.level_of(r), r.arrival_time)
        )
        for request in candidates:
            if active >= view.max_batch:
                break
            needed = view.kv.blocks_for_tokens(request.prompt_len)
            if needed + watermark > free:
                continue  # MLFQ skips blocked heads (no strict FCFS)
            decision.admit.append(request)
            free -= needed
            active += 1
        return decision

    def on_tick(self, view: SystemView) -> SchedulerDecision:
        """Higher levels preempt lower ones; demote quantum-expired."""
        decision = SchedulerDecision()
        for request in view.running:
            self.note_progress(request)
        needy = sorted(
            list(view.waiting) + list(view.preempted),
            key=lambda r: (self.level_of(r), r.arrival_time),
        )
        if not needy:
            return decision
        victims = sorted(
            view.running,
            key=lambda r: (self.level_of(r), r.arrival_time),
            reverse=True,  # lowest level (largest index) first
        )
        watermark = int(view.kv.gpu_pool.capacity * ADMISSION_WATERMARK_FRAC)
        free = view.kv.gpu_free_blocks()
        active = len(view.running) + len(view.prefill_queue) + len(view.loading)
        preempts_left = MAX_PREEMPTS_PER_TICK
        for request in needy:
            needed = view.kv.blocks_for_tokens(
                request.prompt_len if request.req_id not in self._levels
                or request.generated == 0 else request.context_len
            )
            while (
                (active >= view.max_batch or needed + watermark > free)
                and victims
                and preempts_left > 0
                and self.level_of(victims[0]) > self.level_of(request)
            ):
                victim = victims.pop(0)
                decision.preempt.append(victim)
                free += view.kv.gpu_pool.used_by(victim.req_id)
                active -= 1
                preempts_left -= 1
            if active >= view.max_batch or needed + watermark > free:
                continue
            if request.state.value == "queued":
                decision.admit.append(request)
            else:
                decision.resume_recompute.append(request)
            free -= needed
            active += 1
        decision.validate()
        return decision

    def select_oom_victims(self, view: SystemView, blocks_needed: int) -> list:
        """Reactive OOM: evict the lowest-level requests first."""
        ranked = sorted(
            view.running,
            key=lambda r: (self.level_of(r), r.arrival_time),
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
