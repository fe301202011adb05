"""The cluster: N replicas in K shards under one dispatch coordinator.

:class:`ShardedServingCluster` is the dispatch layer of paper §8.  It
splits N replicas across K shard hosts, each owning a contiguous slice
of the replicas on its own :class:`~repro.sim.engine.SimEngine`, and
drives them with the conservative-window discipline of parallel
discrete-event simulation:

* Replicas never interact except **at dispatch instants**, where the
  router reads instance state.  Between consecutive dispatch times
  every replica's evolution is fully determined, so a shard may run
  ahead to the next dispatch instant without any risk of a causality
  violation — the dispatch "ladder" (the global sequence of arrival
  times) is each shard's lookahead bound, surfaced to the fusion
  plane through the :class:`~repro.sim.engine.ScopedEngine` external
  horizon.  An instance plans decode windows against only its own
  events plus that ladder, so the same windows form whatever the
  shard count, which is what makes every K *bit-identical*, executor
  stats included.
* At a dispatch that needs instance state (``least_loaded``,
  ``least_queued``, ``buffer_aware``, sticky misses), the coordinator
  pauses every shard at that instant, gathers per-instance metrics in
  global instance order, and runs the router's pure
  ``select_from_metrics`` decision locally — the only place router
  state mutates, so placements replay exactly.
* Dispatches that need no state (``round_robin`` striping,
  ``session_affinity`` sticky hits) are decided immediately and
  buffered; whole stretches of them collapse into one ``apply``
  message per shard, which is what keeps coordination overhead small
  at soak scale.
* **Speculative dispatch** extends that cheapness to stateful routers
  that implement the trajectory snapshot protocol
  (``Router.speculative`` — ``least_loaded`` and ``session_affinity``
  over it).  Pause replies piggyback per-instance *trajectory
  snapshots*: the metric's value, the one already-scheduled completion
  event that can change it, and a proven exactness horizon.  The
  coordinator folds every confirmed placement into this mirrored
  metrics table and resolves whole epochs of arrivals against it — one
  gather, N selections replayed in arrival order — as long as every
  instance's horizon covers the arrival; the first arrival past any
  horizon takes an authoritative round that refreshes the mirror.
  See ARCHITECTURE.md ("Cluster") for the exactness argument.

State crosses the process boundary as the picklable structures the
streaming/vectorised planes already produce: ``ServingConfig`` slices
and a :class:`~repro.experiments.systems.SchedulerRecipe` outbound,
per-instance ``RunReport`` (sketch-backed at soak scale) inbound.
Reports aggregate through :func:`repro.serving.metrics.aggregate_reports`.

Transports: ``inline`` runs the :class:`ShardHost` protocol in the
coordinator's process — the default for one shard, which gains
nothing from a worker, and selectable for any K with
``REPRO_SHARD_INLINE=1`` or ``transport="inline"``; ``process`` (the
default for K > 1) runs each shard as a long-lived task on the warm
pool from :mod:`repro.orchestration.pool`, talking over manager
queues.  The two transports execute identical host code.
"""

from __future__ import annotations

import copy
import heapq
import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from typing import Callable, List, Optional, Sequence, Union

from repro.serving.cluster import ClusterReport
from repro.serving.metrics import aggregate_reports
from repro.serving.routers import Router, make_router
from repro.serving.server import ServingSystem
from repro.sim.engine import ScopedEngine, SimEngine

# Stateless dispatches buffered between forced flushes: bounds
# coordinator memory on streamed soaks and keeps shard workers fed
# while the coordinator is still routing.
FLUSH_INTERVAL = 1024

# Wall-clock ceiling on waiting for shard replies before declaring the
# run wedged (simulation is deterministic; only a dead worker or a
# broken pool can stall a gather).
GATHER_TIMEOUT_S = 600.0


class ShardHost:
    """One shard: a slice of cluster replicas on a private engine.

    The same host runs inside a worker process (process transport) or
    in the coordinator's process (inline transport); all simulation
    semantics live here so the transports stay pure plumbing.
    """

    def __init__(
        self,
        shard_id: int,
        configs: Sequence,
        scheduler_factory: Callable[[], object],
        router: Router,
        horizon: Optional[float],
    ) -> None:
        self.shard_id = shard_id
        self.horizon = horizon
        self.engine = SimEngine()
        # The dispatch ladder: every global dispatch instant the
        # coordinator has discovered, this shard's external horizon.
        self.upcoming: List[float] = []
        self.router = router  # used for instance_metrics only (pure)
        self.instances = [
            ServingSystem(
                config,
                scheduler_factory(),
                engine=ScopedEngine(self.engine, self._next_dispatch_time),
            )
            for config in configs
        ]

    def _next_dispatch_time(self) -> Optional[float]:
        """Earliest upcoming dispatch instant (instances' external horizon).

        Entries at or before the clock are spent — their dispatch has
        already been applied this instant (``run_before`` parks the
        clock at a dispatch before any same-instant instance event) —
        so they are lazily dropped here.
        """
        times = self.upcoming
        now = self.engine.now()
        while times and times[0] <= now:
            heapq.heappop(times)
        return times[0] if times else None

    def push_ladder(self, times: Sequence[float]) -> None:
        for t in times:
            heapq.heappush(self.upcoming, t)

    def apply(self, entries: Sequence) -> None:
        """Replay routed dispatches: ``(time, local_index, request)``.

        ``run_before`` drains strictly past events and parks the clock
        at the dispatch instant, so the synchronous part of
        ``submit`` (unfinished accounting) lands before any
        same-instant instance event and the admission events it
        schedules land after them — the (time, seq) order the shared
        engine produces.
        """
        for t, local_idx, request in entries:
            self.engine.run_before(t, until=self.horizon)
            self.instances[local_idx].submit([request])

    def pause(self, t: float, request) -> list:
        """Advance to dispatch instant ``t``; measure every instance."""
        self.engine.run_before(t, until=self.horizon)
        return [
            self.router.instance_metrics(instance, request)
            for instance in self.instances
        ]

    def snap(self, t: float, request):
        """:meth:`pause` plus trajectory snapshots (speculative routers).

        The snapshots ride back on the same reply the metrics use —
        the delta-metrics channel costs no extra messages.
        """
        self.engine.run_before(t, until=self.horizon)
        metrics = []
        snaps = []
        for instance in self.instances:
            metrics.append(self.router.instance_metrics(instance, request))
            snaps.append(self.router.instance_snapshot(instance, request))
        return metrics, snaps

    def finish(self):
        """Drain to the run horizon and hand the results back."""
        self.engine.run(until=self.horizon)
        reports = [instance.report() for instance in self.instances]
        unfinished = sum(instance.unfinished for instance in self.instances)
        return unfinished, reports, self.engine.events_processed


def _in_main_process() -> bool:
    """True unless running inside a forked worker process."""
    return multiprocessing.current_process().name == "MainProcess"


def _handle_message(host: ShardHost, msg: tuple):
    """Shared protocol step for both transports; returns the reply."""
    kind = msg[0]
    if kind == "ladder":
        host.push_ladder(msg[1])
        return None
    if kind == "apply":
        host.push_ladder(msg[2])
        host.apply(msg[1])
        return None
    if kind == "pause":
        host.push_ladder(msg[3])
        return ("metrics", host.shard_id, host.pause(msg[1], msg[2]))
    if kind == "snap":
        host.push_ladder(msg[3])
        metrics, snaps = host.snap(msg[1], msg[2])
        return ("metrics", host.shard_id, metrics, snaps)
    if kind == "finish":
        host.push_ladder(msg[1])
        unfinished, reports, events = host.finish()
        return ("done", host.shard_id, unfinished, reports, events)
    raise ValueError(f"unknown shard message {kind!r}")


def _shard_worker_main(
    inbox, outbox, shard_id, configs, scheduler_factory, router, horizon
) -> bool:
    """Long-lived shard loop run as one warm-pool task per run."""
    from repro.orchestration.pool import iter_messages

    try:
        host = ShardHost(shard_id, configs, scheduler_factory, router, horizon)
        while True:
            payload = inbox.get()
            for msg in iter_messages(payload):
                if msg[0] == "stop":
                    return True
                reply = _handle_message(host, msg)
                if reply is not None:
                    outbox.put(reply)
                if msg[0] == "finish":
                    return True
    except BaseException:
        try:
            outbox.put(("error", shard_id, traceback.format_exc()))
        except Exception:
            pass
        return False


class _InlineTransport:
    """Hosts in the coordinator's process; messages become calls."""

    def __init__(self, shard_configs, scheduler_factory, router, horizon):
        self.hosts = [
            ShardHost(s, configs, scheduler_factory, copy.deepcopy(router), horizon)
            for s, configs in enumerate(shard_configs)
        ]
        self._replies: list = []

    def send(self, shard_id: int, msg: tuple) -> None:
        reply = _handle_message(self.hosts[shard_id], msg)
        if reply is not None:
            self._replies.append(reply)

    def send_many(self, shard_id: int, msgs: list) -> None:
        for msg in msgs:
            self.send(shard_id, msg)

    def gather(self, n: int) -> list:
        if len(self._replies) < n:
            raise RuntimeError(
                f"shard protocol error: expected {n} replies, "
                f"got {len(self._replies)}"
            )
        replies = self._replies[:n]
        del self._replies[:n]
        return replies

    def close(self) -> None:
        pass


class _ProcessTransport:
    """Shard loops as warm-pool tasks, talking over manager queues."""

    def __init__(self, shard_configs, scheduler_factory, router, horizon):
        from repro.orchestration.pool import get_manager, get_pool

        n_shards = len(shard_configs)
        pool = get_pool(min_workers=n_shards)
        manager = get_manager()
        self.outbox = manager.Queue()
        self.inboxes = [manager.Queue() for _ in range(n_shards)]
        self.futures = [
            pool.submit(
                _shard_worker_main,
                self.inboxes[s],
                self.outbox,
                s,
                shard_configs[s],
                scheduler_factory,
                router,
                horizon,
            )
            for s in range(n_shards)
        ]

    def send(self, shard_id: int, msg: tuple) -> None:
        self.inboxes[shard_id].put(msg)

    def send_many(self, shard_id: int, msgs: list) -> None:
        # One envelope, one manager-queue round-trip per shard per
        # coordination round (see orchestration.pool message batching).
        from repro.orchestration.pool import pack_messages

        if msgs:
            self.inboxes[shard_id].put(pack_messages(msgs))

    def gather(self, n: int) -> list:
        replies: list = []
        deadline = time.monotonic() + GATHER_TIMEOUT_S
        while len(replies) < n:
            try:
                reply = self.outbox.get(timeout=0.25)
            except queue_mod.Empty:
                self._check_futures()
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"sharded run wedged: {n - len(replies)} shard "
                        f"replies missing after {GATHER_TIMEOUT_S:.0f}s"
                    )
                continue
            if reply[0] == "error":
                raise RuntimeError(
                    f"shard {reply[1]} failed:\n{reply[2]}"
                )
            replies.append(reply)
        return replies

    def _check_futures(self) -> None:
        for future in self.futures:
            if future.done() and future.exception() is not None:
                from repro.orchestration.pool import reset_pool

                # A hard worker death (OOM-kill, segfault) breaks the
                # whole pool; retire it so later runs re-fork cleanly.
                reset_pool()
                raise RuntimeError(
                    f"shard worker died: {future.exception()!r}"
                ) from future.exception()

    def close(self) -> None:
        # Workers exit after "finish"; the pool itself stays warm for
        # the next run (that reuse is the point of orchestration.pool).
        pass


class ShardedServingCluster:
    """N serving replicas in K shards behind one arrival router.

    Build from ``configs`` + ``scheduler_factory`` + ``router``, record
    arrivals with ``submit``/``feed``, then ``run(until)`` once and
    ``report()``.  Arrivals are recorded at ``submit``/``feed`` time
    and all simulation happens inside the single ``run`` call (the
    coordination loop); reports are bit-identical for any shard count
    and either transport.

    ``scheduler_factory`` and the workload requests must be picklable
    for the process transport (use
    :class:`~repro.experiments.systems.SchedulerRecipe`); the inline
    transport has no such requirement.
    """

    def __init__(
        self,
        configs: Sequence,
        scheduler_factory: Callable[[], object],
        router: Union[str, Router] = "least_loaded",
        shards: int = 1,
        transport: Optional[str] = None,
    ) -> None:
        if not configs:
            raise ValueError("need at least one instance config")
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        self.router = make_router(router)
        self.configs = list(configs)
        n = len(self.configs)
        # More shards than replicas would leave empty workers; clamp.
        self.shards = min(shards, n)
        sizes = [
            n // self.shards + (1 if s < n % self.shards else 0)
            for s in range(self.shards)
        ]
        starts = [sum(sizes[:s]) for s in range(self.shards)]
        self._shard_configs = [
            self.configs[starts[s]:starts[s] + sizes[s]]
            for s in range(self.shards)
        ]
        self._shard_start = starts
        self._shard_of = [
            s for s in range(self.shards) for _ in range(sizes[s])
        ]
        self.scheduler_factory = scheduler_factory
        if transport is None:
            transport = (
                "inline"
                if self.shards == 1 or os.environ.get("REPRO_SHARD_INLINE") == "1"
                else "process"
            )
        if transport not in ("process", "inline"):
            raise ValueError(f"unknown shard transport {transport!r}")
        self.transport = transport
        self.placements: dict = {}
        # With streaming telemetry on every instance the per-request
        # placement map would be the last O(total-requests) structure
        # left in a soak run; keep only the per-instance counters then.
        self._retain_placements = any(
            config.retain_per_request for config in self.configs
        )
        self._placement_counts = [0] * n
        self._pending: list = []       # submitted, not yet run
        self._stream = None            # fed, not yet run
        self._pending_dispatch = 0     # left unrouted at the horizon
        self._ran = False
        self._instance_reports: Optional[list] = None
        self._unfinished_final = 0
        # Coordination accounting (benchmarks read these after run()).
        self.coordination_rounds = 0
        self.messages_sent = 0
        self.speculation_hits = 0      # stateful dispatches the mirror resolved
        self.shard_events: List[int] = []

    # --- workload intake --------------------------------------------------
    def submit(self, requests: Sequence) -> None:
        """Record arrivals; routing happens inside :meth:`run`.

        A cluster takes either submitted requests or one fed stream,
        not both: raises ``ValueError`` once a stream is fed.
        """
        if self._ran:
            raise RuntimeError("cluster already ran")
        if self._stream is not None:
            raise ValueError(
                "cluster already has a fed stream; submit or feed, not both"
            )
        for request in requests:
            if request.arrival_time < 0.0:
                raise ValueError(
                    f"request {request.req_id} arrives in the past"
                )
        self._pending.extend(requests)

    def feed(self, stream) -> None:
        """Record a lazy arrival stream; consumed inside :meth:`run`.

        The coordinator pops one request at a time (the streamed-run
        memory contract), validating arrival order exactly like
        :func:`~repro.serving.stages.feed_stream_arrivals`.  Raises
        ``ValueError`` when requests were already submitted.
        """
        if self._ran:
            raise RuntimeError("cluster already ran")
        if self._stream is not None:
            raise RuntimeError("cluster already has a pending stream")
        if self._pending:
            raise ValueError(
                "cluster already has submitted requests; submit or feed, not both"
            )
        self._stream = iter(stream)

    def _iter_dispatches(self, until: Optional[float]):
        """Arrival-ordered dispatch sequence, truncated at the horizon.

        A submitted request whose arrival falls past ``until`` counts as
        pending (it is never dispatched); a streamed run stops at the
        first such pop without materialising the rest.
        """
        if self._stream is not None:
            last = None
            for request in self._stream:
                if last is not None and request.arrival_time < last:
                    raise ValueError(
                        f"request {request.req_id} arrives in the past "
                        f"({request.arrival_time} < {last}) — workload "
                        f"streams must be ordered by arrival time"
                    )
                last = request.arrival_time
                if until is not None and request.arrival_time > until:
                    self._pending_dispatch += 1
                    return
                yield request
            return
        # Stable sort: ties keep submission order.
        for request in sorted(self._pending, key=lambda r: r.arrival_time):
            if until is not None and request.arrival_time > until:
                self._pending_dispatch += 1
                continue
            yield request

    # --- coordination loop ------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        if self._ran:
            raise RuntimeError("cluster already ran")
        self._ran = True
        n = len(self.configs)
        n_shards = self.shards
        if self.transport == "inline" or not _in_main_process():
            # Inside a pool worker (e.g. a `repro matrix --jobs N`
            # cell) a nested warm pool deadlocks worker shutdown:
            # multiprocessing's _bootstrap joins all non-daemon
            # children via util._exit_function BEFORE the nested
            # executor's threading-atexit shutdown runs, so the
            # nested workers are never told to exit.  The inline
            # transport runs the identical host code in-process —
            # bit-identical results, and no jobs×shards process
            # oversubscription.
            transport = _InlineTransport(
                self._shard_configs, self.scheduler_factory, self.router, until
            )
        else:
            transport = _ProcessTransport(
                self._shard_configs, self.scheduler_factory, self.router, until
            )

        ladder: List[float] = []          # every discovered dispatch time
        sent = [0] * n_shards             # per-shard ladder watermark
        buffered: List[list] = [[] for _ in range(n_shards)]

        def ladder_delta(s: int) -> list:
            delta = ladder[sent[s]:]
            sent[s] = len(ladder)
            return delta

        def flush(s: int) -> None:
            if buffered[s]:
                transport.send(s, ("apply", buffered[s], ladder_delta(s)))
                self.messages_sent += 1
                buffered[s] = []

        router = self.router
        speculative = router.speculative
        # The mirrored metrics table: one trajectory snapshot per
        # instance (global order), refreshed by every round's replies
        # and folded forward by every confirmed placement.
        mirror: Optional[list] = None

        since_flush = 0
        for request in self._iter_dispatches(until):
            t = request.arrival_time
            ladder.append(t)
            if not router.needs_state(request):
                idx = router.select_from_metrics(n, None, request)
            elif (
                mirror is not None
                and all(router.snapshot_fresh(m, t) for m in mirror)
            ):
                # Epoch-batched speculative resolution: every mirror
                # entry is provably exact at t, so this selection —
                # replayed against the folding table in arrival order —
                # is the authoritative selection, with zero messages.
                metrics = [router.snapshot_metric(m, t) for m in mirror]
                idx = router.select_from_metrics(n, metrics, request)
                self.speculation_hits += 1
            else:
                # Stateful round: every shard advances to t and
                # reports metrics (plus snapshots for speculative
                # routers); selection happens here, in global instance
                # order.
                kind = "snap" if speculative else "pause"
                for s in range(n_shards):
                    msgs = []
                    if buffered[s]:
                        msgs.append(("apply", buffered[s], ladder_delta(s)))
                        buffered[s] = []
                        msgs.append((kind, t, request, []))
                    else:
                        msgs.append((kind, t, request, ladder_delta(s)))
                    transport.send_many(s, msgs)
                    self.messages_sent += len(msgs)
                replies = transport.gather(n_shards)
                self.coordination_rounds += 1
                by_shard = {}
                for reply in replies:
                    if reply[0] != "metrics":
                        raise RuntimeError(
                            f"shard protocol error: expected metrics, "
                            f"got {reply[0]!r}"
                        )
                    by_shard[reply[1]] = reply
                metrics = []
                snaps: list = []
                for s in range(n_shards):
                    metrics.extend(by_shard[s][2])
                    if speculative:
                        snaps.extend(by_shard[s][3])
                if speculative:
                    mirror = snaps
                idx = router.select_from_metrics(n, metrics, request)
            # Every placement — mirror-resolved, round-resolved, or
            # stateless — folds into the mirrored table so later
            # speculative selections see it.
            if mirror is not None:
                router.fold_snapshot(mirror[idx], t, request)
            if self._retain_placements:
                self.placements[request.req_id] = idx
            self._placement_counts[idx] += 1
            s = self._shard_of[idx]
            buffered[s].append((t, idx - self._shard_start[s], request))
            since_flush += 1
            if since_flush >= FLUSH_INTERVAL:
                for s in range(n_shards):
                    flush(s)
                since_flush = 0

        for s in range(n_shards):
            flush(s)
            transport.send(s, ("finish", ladder_delta(s)))
            self.messages_sent += 1
        replies = transport.gather(n_shards)
        by_shard = {}
        for reply in replies:
            if reply[0] != "done":
                raise RuntimeError(
                    f"shard protocol error: expected done, got {reply[0]!r}"
                )
            by_shard[reply[1]] = reply
        reports: list = []
        unfinished = 0
        self.shard_events = []
        for s in range(n_shards):
            _, _, shard_unfinished, shard_reports, events = by_shard[s]
            unfinished += shard_unfinished
            reports.extend(shard_reports)
            self.shard_events.append(events)
        self._instance_reports = reports
        self._unfinished_final = unfinished + self._pending_dispatch
        self._pending = []
        self._stream = None
        transport.close()
        if until is not None:
            return until
        return max(
            (report.makespan for report in reports if report is not None),
            default=0.0,
        )

    # --- reporting --------------------------------------------------------
    @property
    def unfinished(self) -> int:
        if not self._ran:
            return len(self._pending)
        return self._unfinished_final

    def report(self) -> ClusterReport:
        if self._instance_reports is None:
            raise RuntimeError("run() the cluster before report()")
        reports = self._instance_reports
        total = aggregate_reports(reports)
        return ClusterReport(
            per_instance=reports,
            aggregate=total,
            n_requests=total.n_requests,
            n_finished=total.n_finished,
            total_tokens=total.total_tokens,
            throughput=total.throughput,
            effective_throughput=total.effective_throughput,
            qos=total.qos,
            ttft_mean=total.ttft_mean,
            ttft_p50=total.ttft_p50,
            ttft_p99=total.ttft_p99,
            stall_total=total.stall_total,
            preemptions=total.preemptions,
            coordination_rounds=self.coordination_rounds,
            messages_sent=self.messages_sent,
            speculation_hits=self.speculation_hits,
        )

    def placement_counts(self) -> list:
        """Requests routed to each instance (load-balance check)."""
        return list(self._placement_counts)
