"""Request Offload Manager (paper §3.1, third component).

Executes scheduler decisions by driving request-level memory
operations: evicting preempted requests through the KV manager's write
path, restoring resumed requests through the load path (or routing
them to the recompute/prefill queue), and keeping the request state
machine and the serving queues consistent.

It bridges high-level scheduling and low-level execution: the
scheduler never touches queues or the KV manager directly, and the KV
manager never sees scheduling intent except through this component.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.tracker import RequestTracker
from repro.memory.kv_manager import HierarchicalKVManager
from repro.serving.interface import SchedulerDecision
from repro.sim.engine import SimEngine
from repro.workload.request import Request, RequestState


class RequestOffloadManager:
    """Applies :class:`SchedulerDecision` objects to the serving state."""

    def __init__(
        self,
        engine: SimEngine,
        tracker: RequestTracker,
        kv: HierarchicalKVManager,
        waiting: list,
        prefill_queue: list,
        running: list,
        preempted: list,
        loading: list,
        on_state_change: Optional[Callable[[], None]] = None,
        on_swap_observed: Optional[Callable[[float, float], None]] = None,
    ) -> None:
        self.engine = engine
        self.tracker = tracker
        self.kv = kv
        self.waiting = waiting
        self.prefill_queue = prefill_queue
        self.running = running
        self.preempted = preempted
        self.loading = loading
        self._on_state_change = on_state_change or (lambda: None)
        self._on_swap_observed = on_swap_observed or (lambda evict, load: None)
        # Lifecycle transition counts; no per-transition log is kept.
        self.stats = {"admissions": 0, "preemptions": 0, "loads": 0, "recomputes": 0}

    # --- decision execution ----------------------------------------------------
    def execute(self, decision: SchedulerDecision) -> None:
        """Apply a decision; order matters (preempt frees memory first)."""
        decision.validate()
        for request in decision.preempt:
            self.preempt(request)
        for request in decision.admit:
            self.admit(request)
        for request in decision.resume_recompute:
            self.resume_recompute(request)
        for request in decision.resume_load:
            self.resume_load(request)
        if not decision.is_empty():
            self._on_state_change()

    # --- individual operations ------------------------------------------------------
    def admit(self, request: Request) -> None:
        """QUEUED -> PREFILLING: move into the prefill queue."""
        if request.state is not RequestState.QUEUED:
            raise RuntimeError(f"cannot admit request {request.req_id} in {request.state}")
        self.waiting.remove(request)
        request.transition(RequestState.PREFILLING)
        request.admitted_time = self.engine.now()
        request.prefill_progress = 0
        self.prefill_queue.append(request)
        self.stats["admissions"] += 1

    def preempt(self, request: Request) -> None:
        """RUNNING -> PREEMPTED: offload (or drop) the KV cache."""
        if request.state is not RequestState.RUNNING:
            raise RuntimeError(
                f"cannot preempt request {request.req_id} in {request.state}"
            )
        now = self.engine.now()
        self.running.remove(request)
        request.transition(RequestState.PREEMPTED)
        request.preemption_count += 1
        done = self.kv.preempt(request.req_id, now)
        self.preempted.append(request)
        self.stats["preemptions"] += 1
        self._on_swap_observed(max(0.0, done - now), 0.0)

    def resume_load(self, request: Request) -> None:
        """PREEMPTED -> LOADING -> (event) RUNNING.

        Falls back to recompute when the load is no longer possible
        (memory got claimed between decision and execution).
        """
        if request.state is not RequestState.PREEMPTED:
            raise RuntimeError(
                f"cannot load request {request.req_id} in {request.state}"
            )
        if not self.kv.can_resume_load(request.req_id):
            self.resume_recompute(request)
            return
        now = self.engine.now()
        self.preempted.remove(request)
        request.transition(RequestState.LOADING)
        done = self.kv.resume_load(request.req_id, now)
        self.loading.append(request)
        self.stats["loads"] += 1
        self._on_swap_observed(0.0, max(0.0, done - now))
        self.engine.call_at(
            done, lambda: self._finish_load(request), label=f"load-done:{request.req_id}"
        )

    def _finish_load(self, request: Request) -> None:
        if request.state is not RequestState.LOADING:
            return  # finished or re-routed meanwhile
        self.loading.remove(request)
        request.transition(RequestState.RUNNING)
        self.running.append(request)
        self._on_state_change()

    def resume_recompute(self, request: Request) -> None:
        """PREEMPTED -> PREFILLING: re-prefill the full context."""
        if request.state is not RequestState.PREEMPTED:
            raise RuntimeError(
                f"cannot recompute request {request.req_id} in {request.state}"
            )
        self.preempted.remove(request)
        self.kv.prepare_recompute(request.req_id)
        request.transition(RequestState.PREFILLING)
        request.prefill_progress = 0
        self.prefill_queue.append(request)
        self.stats["recomputes"] += 1
