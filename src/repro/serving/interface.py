"""Scheduler interface between the serving loop and scheduling policies.

The serving loop exposes a read-only :class:`SystemView` snapshot and
expects a :class:`SchedulerDecision` back.  All policies — TokenFlow
and the baselines — implement :class:`BaseScheduler`, so experiments
swap policies without touching the serving loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.tracker import RequestTracker
    from repro.gpu.executor import LLMExecutor
    from repro.gpu.latency import LatencyModel
    from repro.memory.kv_manager import HierarchicalKVManager
    from repro.workload.request import Request


@dataclass
class SchedulerDecision:
    """Actions for the serving loop to execute, in order.

    Attributes:
        admit: QUEUED requests to move into the prefill queue.
        preempt: RUNNING requests to evict (KV offloaded or dropped
            according to the KV manager's configuration).
        resume_load: PREEMPTED requests to reload via PCIe.
        resume_recompute: PREEMPTED requests to re-prefill instead.
    """

    admit: list = field(default_factory=list)
    preempt: list = field(default_factory=list)
    resume_load: list = field(default_factory=list)
    resume_recompute: list = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.admit or self.preempt or self.resume_load or self.resume_recompute)

    def validate(self) -> None:
        """Reject decisions that name a request twice."""
        seen: set = set()
        for group in (self.admit, self.preempt, self.resume_load, self.resume_recompute):
            for request in group:
                if request.req_id in seen:
                    raise ValueError(
                        f"request {request.req_id} appears twice in one decision"
                    )
                seen.add(request.req_id)


@dataclass
class SystemView:
    """Read-only snapshot of serving state handed to schedulers.

    Attributes:
        now: current simulation time.
        waiting: QUEUED requests in arrival order.
        prefill_queue: admitted requests awaiting (re)prefill.
        running: the current decode batch.
        preempted: offloaded/dropped requests awaiting resumption.
        loading: requests whose KV load is in flight.
        tracker: per-request runtime state; buffer queries take
            ``now`` explicitly (``tracker.buffer_seconds(req_id, now)``).
        kv: the hierarchical KV manager (memory + I/O state).
        executor: iteration planner (capacity estimate Γ).
        latency: the latency model (recompute estimates).
        max_batch: hard cap on concurrent decode requests.
    """

    now: float
    waiting: Sequence
    prefill_queue: Sequence
    running: Sequence
    preempted: Sequence
    loading: Sequence
    tracker: "RequestTracker"
    kv: "HierarchicalKVManager"
    executor: "LLMExecutor"
    latency: "LatencyModel"
    max_batch: int


class BaseScheduler(abc.ABC):
    """Scheduling policy plugged into the serving loop.

    ``tick_interval`` is the paper's Δt: the loop invokes
    :meth:`on_tick` at this period when it is not None.
    :meth:`on_iteration_boundary` runs before every iteration is
    planned — the cheap, admission-only path — while :meth:`on_tick`
    may issue preemptions and resumptions.
    """

    name: str = "base"
    tick_interval: Optional[float] = None
    # Opt-ins read by the serving loop's stages: buffer-aware
    # prefill/decode interleaving (§4.2.3), and chunked prefill.
    decode_priority_aware: bool = False
    wants_chunked_prefill: bool = False

    @abc.abstractmethod
    def on_iteration_boundary(self, view: SystemView) -> SchedulerDecision:
        """Fast-path decision before each iteration (admissions)."""

    def on_tick(self, view: SystemView) -> SchedulerDecision:
        """Periodic decision (preemptions/resumptions); default: nothing."""
        return SchedulerDecision()

    # --- feedback from the serving loop -------------------------------------
    def observe_prefill(self, n_tokens: int, duration: float) -> None:
        """A prefill iteration of ``n_tokens`` took ``duration`` seconds;
        default: ignored."""

    def observe_swap_latency(self, tau_evict: float, tau_load: float) -> None:
        """Measured evict/load durations of one swap; default: ignored."""

    # --- macro-step decode fusion protocol ---------------------------------
    def can_fuse_decode(self, view: SystemView) -> bool:
        """May the serving loop skip boundary calls during a fused window?

        The fused decode path advances multiple iterations in one
        event, calling :meth:`on_iteration_boundary` only for the
        first.  A scheduler returns True only when it can guarantee
        that, from this state, every skipped boundary call would have
        produced an *empty* decision for as long as the decode batch
        composition is frozen (no arrivals, ticks, completions, or
        memory events occur inside a window — GPU free blocks only
        shrink).  Schedulers with boundary side effects must replicate
        them in :meth:`on_fused_boundaries`.

        Default: ``False`` — unknown policies never fuse, which keeps
        third-party schedulers bit-for-bit on the per-iteration path.
        """
        return False

    def on_fused_boundaries(self, running: Sequence, n_iters: int) -> None:
        """Replicate the bookkeeping of ``n_iters`` skipped boundaries.

        Called once per fused window (before token state advances) in
        place of the ``n_iters`` :meth:`on_iteration_boundary` calls
        the window elided; the ``j``-th skipped boundary would have
        observed each running request with ``j`` extra generated
        tokens.  Default: no bookkeeping.
        """

    def tick_is_idle(self, view: SystemView, at: float) -> bool:
        """Would a tick applied at boundary ``at`` be decision-free?

        A fused window may run past a scheduler tick: the tick still
        fires as an engine event, and its decision lands at the first
        iteration boundary ``at`` at or after it.  The window planner
        asks this at each such boundary inside a candidate window, with
        the boundary-time ``view`` of the window's first iteration — its
        queues are frozen for the window, and only time moves on to
        ``at``.  A scheduler returns True only when :meth:`on_tick`
        at ``at`` would return an empty decision and its only side
        effects are the ones :meth:`on_idle_ticks` replays; the window
        then absorbs the tick.  On False the window ends at ``at``, and
        the tick is applied there as usual.

        Buffer state at ``at`` must be read without moving any
        consumption cursor (``RequestTracker.peek_buffers_hold``):
        ``at`` lies in the future and the window may still be rejected.

        Default: ``False`` — unknown policies apply every tick for real.
        """
        return False

    def on_idle_ticks(self, n_ticks: int) -> None:
        """Replay the bookkeeping of ``n_ticks`` absorbed idle ticks.

        Called once per fused window that absorbed ticks certified by
        :meth:`tick_is_idle`, in place of their :meth:`on_tick` calls.
        Default: no bookkeeping.
        """

    def select_oom_victims(self, view: SystemView, blocks_needed: int) -> list:
        """Pick RUNNING requests to evict when allocation fails.

        Default policy mirrors vLLM/SGLang: evict the most recently
        admitted request(s) first.
        """
        victims: list = []
        freed = 0
        for request in sorted(view.running, key=lambda r: r.admitted_time or 0.0, reverse=True):
            if freed >= blocks_needed:
                break
            victims.append(request)
            freed += view.kv.gpu_pool.used_by(request.req_id)
        return victims

    def scheduling_cost_s(self) -> float:
        """Modelled wall-clock cost of one scheduling pass (overhead §7.6)."""
        return 0.0
