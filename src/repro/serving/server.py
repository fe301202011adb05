"""The serving loop: arrivals -> scheduler -> executor -> KV -> clients.

Mirrors the paper's Figure 3/4 workflow on the discrete-event engine:

* requests arrive as events, register with the Request Tracker and the
  KV manager, and queue;
* the loop runs one iteration at a time (a prefill batch or one decode
  step); iteration durations come from the roofline latency model;
* scheduler *ticks* fire every ``tick_interval`` but their decisions
  are applied at iteration boundaries (real systems preempt between
  iterations, never mid-kernel);
* at the start of each iteration the chunked writer steals the
  estimated compute interval to replicate dirty KV (§5.2), ordered by
  buffer occupancy (fat buffers = likely preemption victims);
* generated tokens flow into per-request client buffers, which drain
  at each request's consumption rate and account stalls.

The loop never decodes "for" a policy: all admission, preemption and
resumption comes from the pluggable scheduler, so baselines and
TokenFlow run on identical machinery.

:class:`ServingSystem` itself is a slim shell: the work is done by the
four stages in :mod:`repro.serving.stages` (admission, batch
composition, memory pressure, decode streaming), invoked here in the
exact sequence the pre-split monolith executed — see ARCHITECTURE.md.
"""

from __future__ import annotations

from typing import Optional

from repro.core.offload import RequestOffloadManager
from repro.core.qos import QoSParams
from repro.core.tracker import RequestTracker
from repro.gpu.executor import LLMExecutor
from repro.gpu.latency import LatencyModel
from repro.memory.kv_manager import HierarchicalKVManager
from repro.serving.config import ServingConfig
from repro.serving.interface import BaseScheduler, SystemView
from repro.serving.metrics import (
    RunReport,
    StreamingRunStats,
    Timeline,
    build_report,
)
from repro.serving.stages import (
    AdmissionStage,
    BatchComposer,
    DecodeStream,
    MemoryPressureStage,
)
from repro.sim.engine import SimEngine

# Sample-count bound of the (t, queued, running) timeline: at the cap
# the samples are decimated 2:1 and the sampling stride doubles.
TIMELINE_CAP = 65536


class ServingSystem:
    """One simulated serving instance (hardware + model + scheduler)."""

    def __init__(
        self,
        config: ServingConfig,
        scheduler: BaseScheduler,
        engine: Optional[SimEngine] = None,
        qos_params: Optional[QoSParams] = None,
        rate_controller=None,
        tracer=None,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        # Optional §8 adaptive reference-rate controller for agent
        # clients; invoked once per scheduler tick.
        self.rate_controller = rate_controller
        # Optional structured trace sink (repro.sim.trace.TraceRecorder).
        self.tracer = tracer
        # Optional callback fired when a request finishes (multi-turn
        # session drivers use it to schedule follow-up turns).
        self.on_request_finished = None
        self.engine = engine if engine is not None else SimEngine()
        self.qos_params = qos_params if qos_params is not None else QoSParams()

        self.latency = LatencyModel(config.hardware, config.model)
        self.executor = LLMExecutor(self.latency, config.max_prefill_tokens)
        self.kv = HierarchicalKVManager(
            engine=self.engine,
            gpu_capacity_blocks=config.kv_capacity_blocks(),
            kv_bytes_per_token=config.model.kv_bytes_per_token,
            pcie_bandwidth_bytes_per_s=config.hardware.pcie_bytes_per_s,
            config=config.kv,
        )
        self.kv.on_memory_freed = self._kick
        # Streaming telemetry (retain_per_request=False): finished
        # requests retire into this accumulator and their tracker
        # entries are dropped — memory stays O(active requests).
        self.stream_stats: Optional[StreamingRunStats] = (
            None if config.retain_per_request
            else StreamingRunStats(qos_params=self.qos_params)
        )
        self.tracker = RequestTracker(
            record_traces=config.record_token_traces,
            retire_into=self.stream_stats,
        )

        # Request queues (state-machine mirrors, shared with stages and
        # the offload manager).
        self.waiting: list = []
        self.prefill_queue: list = []
        self.running: list = []
        self.preempted: list = []
        self.loading: list = []

        self._busy = False            # an iteration is in flight
        self._in_scheduler = False    # re-entrancy guard for _kick
        self._unfinished = 0
        # The boundary-time SystemView of the iteration being planned;
        # the decode fusion plane consults it (lists are live).
        self._iter_view: Optional[SystemView] = None
        self.timeline = Timeline()    # (t, queued, running) samples
        # Timeline downsampling: once the timeline hits the cap it is
        # decimated 2:1 and the sampling stride doubles, so long runs
        # keep a bounded, evenly-thinned record.  `_timeline_pending`
        # counts the instants since the last kept sample.
        self._timeline_stride = 1
        self._timeline_pending = 0

        # Stages (see repro.serving.stages).  Order matters only for
        # construction dependencies; the loop sequence is fixed in
        # _start_iteration below.
        self.memory = MemoryPressureStage(self)
        self.composer = BatchComposer(self, self.memory)
        self.decode_stream = DecodeStream(self, self.memory)
        self.admission = AdmissionStage(self)

        self.offload = RequestOffloadManager(
            engine=self.engine,
            tracker=self.tracker,
            kv=self.kv,
            waiting=self.waiting,
            prefill_queue=self.prefill_queue,
            running=self.running,
            preempted=self.preempted,
            loading=self.loading,
            on_state_change=self._kick,
            on_swap_observed=self.memory.observe_swap,
        )

    # --- submission -----------------------------------------------------------
    def submit(self, requests: list) -> None:
        """Register future arrivals with the event engine."""
        self.admission.submit(requests)

    def feed(self, stream) -> None:
        """Drive arrivals from a lazy workload stream.

        ``stream`` yields :class:`~repro.workload.request.Request`
        objects in non-decreasing arrival order; only one future
        request is scheduled (hence in memory) at any time —
        each arrival event pops its successor before admitting, so the
        engine's decision horizon (the fusion plane's
        ``decision_horizon``) always sees the next pending arrival
        exactly as the materialised :meth:`submit` path would.
        """
        self.admission.feed(stream)

    # --- the loop --------------------------------------------------------------
    def _kick(self) -> None:
        """Try to start the next iteration (idempotent, re-entrancy safe)."""
        if self._busy or self._in_scheduler:
            return
        self._in_scheduler = True
        try:
            self._start_iteration()
        finally:
            self._in_scheduler = False

    def _start_iteration(self) -> None:
        overhead = 0.0
        admission = self.admission
        if admission.tick_due:
            admission.tick_due = False
            if self.rate_controller is not None:
                self.rate_controller.adjust(self)
            decision = self.scheduler.on_tick(self.view())
            self.offload.execute(decision)
            overhead += self.scheduler.scheduling_cost_s()
        view = self.view()
        self._iter_view = view
        boundary = self.scheduler.on_iteration_boundary(view)
        self.offload.execute(boundary)
        overhead += self.scheduler.scheduling_cost_s()

        # The running set's min buffer is computed at most once per
        # iteration: the prefill budget and the defer decision share it.
        composer = self.composer
        composer.iter_min_buffer = None
        entries = composer.plan_prefill()
        if entries and composer.should_defer_prefill(entries):
            entries = []
        if entries:
            composer.decodes_since_prefill = 0
            self.decode_stream.run_prefill(entries, overhead)
            return
        batch = composer.plan_decode()
        if batch:
            composer.decodes_since_prefill += 1
            self.decode_stream.run_decode(batch, overhead)
            return
        self._sample_timeline()

    # --- glue ------------------------------------------------------------------
    def _sample_timeline(self) -> None:
        """Record a (t, queued, running) sample at the current instant."""
        self._sample_timeline_many([self.engine.now()])

    def _sample_timeline_many(self, instants,
                              queued: Optional[int] = None) -> None:
        """Record a (t, queued, running) sample at each of ``instants``
        (a list), downsampling over time; ``queued`` overrides the
        current waiting + prefill length.

        Long runs would otherwise grow the timeline without bound: when
        it reaches :data:`TIMELINE_CAP` samples it is decimated 2:1 and
        the stride doubles, bounding memory at the cap while keeping
        every ``stride``-th instant of the run from the first.  Runs
        shorter than the cap (every figure workload) are recorded
        exactly.

        The fused decode path emits the samples of a whole macro-step
        window — at its historical iteration boundaries — from the
        window's final completion event.  Queue lengths are frozen
        across a fused window (no admission, completion, or preemption
        between its interior boundaries), so they are read once.
        """
        timeline = self.timeline
        if queued is None:
            queued = len(self.waiting) + len(self.prefill_queue)
        running = len(self.running)
        stride = self._timeline_stride
        n = len(instants)
        # Index into ``instants`` of the last kept sample (negative:
        # it came before them); the next one is ``stride`` further on.
        last = -1 - self._timeline_pending
        while last + stride < n:
            room = TIMELINE_CAP - len(timeline)
            picked = instants[last + stride:last + stride * room + 1:stride]
            timeline.extend(picked, queued, running)
            last += stride * len(picked)
            if len(timeline) >= TIMELINE_CAP:
                # The cap is even, so decimation drops the newest
                # sample and the last kept one is a stride back.
                timeline.decimate()
                last -= stride
                stride *= 2
        self._timeline_stride = stride
        self._timeline_pending = n - 1 - last

    def view(self) -> SystemView:
        """Snapshot for schedulers (lists are live; treat as read-only)."""
        now = self.engine.now()
        return SystemView(
            now=now,
            waiting=self.waiting,
            prefill_queue=self.prefill_queue,
            running=self.running,
            preempted=self.preempted,
            loading=self.loading,
            tracker=self.tracker,
            kv=self.kv,
            executor=self.executor,
            latency=self.latency,
            max_batch=self.config.max_batch,
        )

    # --- run + report ----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event loop; returns the final simulation time."""
        return self.engine.run(until=until, max_events=max_events)

    @property
    def unfinished(self) -> int:
        return self._unfinished

    def makespan(self) -> float:
        first = self.tracker.first_arrival()
        if first is None:
            return 0.0
        return max(self.decode_stream.last_token_time - first, 1e-9)

    def report(self) -> RunReport:
        """Build the aggregate :class:`RunReport` for this run."""
        scheduler_stats = {
            "name": self.scheduler.name,
            "scheduling_cost_s": self.scheduler.scheduling_cost_s(),
        }
        for attr in ("fallback_ticks", "scheduling_passes"):
            if hasattr(self.scheduler, attr):
                scheduler_stats[attr] = getattr(self.scheduler, attr)
        scheduler_stats.update(self.offload.stats)
        kv_stats = dict(self.kv.stats)
        kv_stats["pcie_utilisation"] = self.kv.link.utilisation(
            max(self.makespan(), 1e-9)
        )
        # Lifetime GPU-pool demand: cumulative blocks allocated and the
        # high-water mark.  Prefix-sharing savings show up here (reused
        # blocks never hit allocate()), so a workload and its
        # identity-stripped copy are directly comparable.
        kv_stats["gpu_blocks_allocated"] = self.kv.gpu_pool.total_allocated
        kv_stats["gpu_peak_blocks"] = self.kv.gpu_pool.peak
        return build_report(
            system=self.scheduler.name,
            tracker=self.tracker,
            makespan=self.makespan(),
            qos_params=self.qos_params,
            stream_stats=self.stream_stats,
            timeline=self.timeline,
            executor_stats={
                "prefill_iterations": self.executor.stats.prefill_iterations,
                "decode_iterations": self.executor.stats.decode_iterations,
                "prefill_tokens": self.executor.stats.prefill_tokens,
                "decode_tokens": self.executor.stats.decode_tokens,
                "busy_time": self.executor.stats.busy_time,
                "fused_windows": self.decode_stream.fused_windows,
                "fused_iterations": self.decode_stream.fused_iterations,
            },
            kv_stats=kv_stats,
            scheduler_stats=scheduler_stats,
        )
