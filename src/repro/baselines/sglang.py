"""SGLang-style baseline: FCFS with prefill-first admission.

Requests are admitted strictly in arrival order whenever the KV pool
can hold their prompt (plus a decode-growth watermark).  There is no
periodic scheduling pass and no proactive preemption: the only
preemption is the reactive OOM path, which drops the most recently
admitted request's KV (vLLM/SGLang recompute-style) when decode block
allocation fails.
"""

from __future__ import annotations

from repro.serving.interface import BaseScheduler, SchedulerDecision, SystemView


class SGLangScheduler(BaseScheduler):
    """Conservative FCFS scheduling (paper baseline #1)."""

    name = "sglang"
    tick_interval = None  # no periodic pass
    # Free-block watermark for admission, as a fraction of the GPU pool.
    ADMISSION_WATERMARK_FRAC = 0.05
    # ~0.07 ms per pass, the figure the paper quotes for SGLang (§7.6).
    SCHEDULING_COST_S = 0.00007

    def scheduling_cost_s(self) -> float:
        return self.SCHEDULING_COST_S

    def can_fuse_decode(self, view: SystemView) -> bool:
        """Boundary is stateless and pure, so ask it directly.

        An empty decision now stays empty for the whole fused window:
        every blocking condition the boundary can hit (all decode
        slots taken; the FCFS-first preempted request or the waiting
        head memory-blocked) is monotone inside a window, where the
        active count is frozen and free blocks only shrink.  Reusing
        the real boundary keeps the gate in lock-step with any future
        admission-rule change.
        """
        return self.on_iteration_boundary(view).is_empty()

    def on_iteration_boundary(self, view: SystemView) -> SchedulerDecision:
        """Admit in strict FCFS order while the prompt fits in memory."""
        decision = SchedulerDecision()
        watermark = int(view.kv.gpu_pool.capacity * self.ADMISSION_WATERMARK_FRAC)
        free = view.kv.gpu_free_blocks()
        active = len(view.running) + len(view.prefill_queue) + len(view.loading)
        # Preempted requests (reactive OOM victims) re-enter first, FCFS.
        for request in sorted(view.preempted, key=lambda r: r.arrival_time):
            if active >= view.max_batch:
                break
            needed = view.kv.blocks_for_tokens(request.context_len)
            if needed + watermark > free:
                break
            decision.resume_recompute.append(request)
            free -= needed
            active += 1
        for request in view.waiting:
            if active >= view.max_batch:
                break
            needed = view.kv.blocks_for_tokens(request.prompt_len)
            if needed + watermark > free:
                break  # head-of-line blocking: strict FCFS
            decision.admit.append(request)
            free -= needed
            active += 1
        return decision
