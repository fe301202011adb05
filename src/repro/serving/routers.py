"""Pluggable cluster routing policies (paper §8 dispatch layer).

A :class:`Router` places each arriving request on one of the cluster's
:class:`~repro.serving.server.ServingSystem` instances.  Policies are
registered by name in :data:`ROUTERS`, so experiments and scenarios
select them declaratively (``ScenarioSpec.router = "buffer_aware"``)
and new policies plug in without touching the cluster loop:

* ``round_robin`` — arrival-order striping.
* ``least_loaded`` — fewest unfinished requests (default).
* ``least_queued`` — shortest waiting+prefill queue at arrival.
* ``buffer_aware`` — smallest aggregate client-buffer deficit: the
  cluster-level analogue of the paper's buffer-aware scheduler.  Each
  running request contributes its shortfall against a target buffer;
  queued/preempted work counts a full target's worth (no buffer yet).
* ``session_affinity`` — sticky routing by conversation: turns of one
  session land on the instance that served its first turn (KV reuse /
  prefix-cache locality), with a fallback policy for fresh sessions.

Every policy is deterministic: ties break on the lowest instance
index, so identical scenario+seed runs place identically.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Type, Union

from repro.workload.request import RequestState

_INF = float("inf")


def _decode_floor(instance) -> float:
    """A hard lower bound on one decode iteration of ``instance``.

    Every decode step streams at least the full weight matrix and pays
    the per-iteration launch overhead
    (:meth:`~repro.gpu.latency.LatencyModel.decode_step_time_from_total`
    is ``max(mem_time, compute_time) + overhead`` with ``mem_time >=
    weights / bandwidth``), so no token — and therefore no request
    completion — can arrive faster than this per remaining token.
    """
    latency = instance.latency
    return (
        latency.model.weight_bytes / latency.hardware.effective_mem_bandwidth
        + latency.hardware.iteration_overhead_s
    )


def _decode_tokens_left(request) -> int:
    """Decode iterations still separating ``request`` from finishing.

    The *first* output token is emitted by prefill completion, not by a
    decode iteration, so a request that has not generated yet needs one
    fewer decode step than its remaining token count (zero for
    ``output_len == 1`` — such a request can finish on the heels of a
    prefill, faster than any decode-floor bound, and must contribute a
    zero-width quiet window).
    """
    remaining = request.output_len - request.generated
    if request.generated == 0:
        remaining -= 1
    return remaining


class Router(abc.ABC):
    """Dispatch policy: pick the instance index for each arrival.

    Routers may keep state (stripe counters, sticky maps); a fresh
    instance is built per run, so repeated runs of one scenario are
    independent and deterministic.

    Instances may live in other processes (shard workers), so a policy
    is split into a per-instance measurement (:meth:`instance_metrics`,
    computed where the instance lives, returning something picklable)
    and a pure decision over the gathered measurements
    (:meth:`select_from_metrics`, run on the coordinator).  Every policy
    therefore runs on any shard count with the same comparison code on
    the same float values.
    """

    name: str = "base"

    #: Whether this policy supports *speculative dispatch*: trajectory
    #: snapshots (:meth:`instance_snapshot`) whose declared staleness
    #: horizon proves the mirrored metric exact, so the coordinator can
    #: resolve whole epochs of arrivals without a coordination round.
    #: A policy whose metric can move on events the snapshot cannot
    #: bound (e.g. ``buffer_aware``'s continuous-time deficit,
    #: ``least_queued``'s prefill-completion decrements) leaves this
    #: False and pays one coordination round per stateful dispatch.
    speculative: bool = False

    def needs_state(self, request) -> bool:
        """Whether placing ``request`` requires fresh instance metrics.

        Policies that decide without looking at the instances (stripe
        counters, sticky-map hits) return ``False``; the sharded
        coordinator then skips the metric-gathering round entirely —
        the lever that lets stateless policies batch arbitrarily many
        dispatches into one shard message.
        """
        return True

    def instance_metrics(self, instance, request):
        """Measure one instance for placing ``request`` (picklable)."""
        raise NotImplementedError(
            f"router {self.name!r} needs instance state but does not "
            f"implement instance_metrics"
        )

    @abc.abstractmethod
    def select_from_metrics(self, n: int, metrics: Optional[List], request) -> int:
        """Pick an index in ``range(n)`` from gathered ``metrics``.

        ``metrics[i]`` is :meth:`instance_metrics` for instance ``i``
        (``None`` when :meth:`needs_state` said no state was needed).
        This is the only place a policy may mutate its own state, so
        replaying the same dispatch sequence reproduces the same
        placements regardless of where metrics were computed.
        """

    # --- speculative dispatch --------------------------------------------
    #
    # A *trajectory snapshot* is a small picklable record, taken where
    # the instance lives at a pause instant, that lets the coordinator
    # evolve the routing metric forward in simulated time without
    # talking to the shard again: the snapshot carries the metric's
    # current value, the one already-scheduled completion event that
    # can change it (time + how many requests finish there), and an
    # *exactness horizon* before which no other change is possible.
    # The coordinator folds every confirmed placement back into its
    # mirror (:meth:`fold_snapshot`), so arrivals inside the horizon
    # resolve against provably exact values with zero messages, while
    # the first arrival past any horizon takes an authoritative round
    # that also refreshes the mirror.

    def instance_snapshot(self, instance, request):
        """Trajectory snapshot of one instance at the current instant.

        Returned records are opaque to the coordinator: only
        :meth:`snapshot_metric` / :meth:`snapshot_fresh` /
        :meth:`fold_snapshot` interpret them.  Must be picklable.
        """
        raise NotImplementedError(
            f"router {self.name!r} does not implement trajectory "
            f"snapshots (Router.speculative)"
        )

    def snapshot_metric(self, snap, t: float):
        """Evolve ``snap`` to instant ``t`` and return the metric.

        Only valid while ``snapshot_fresh(snap, t)`` holds; the value
        must then equal what :meth:`instance_metrics` would measure on
        the live instance at ``t``.
        """
        raise NotImplementedError

    def snapshot_fresh(self, snap, t: float) -> bool:
        """Whether ``snap`` is provably exact at instant ``t``."""
        raise NotImplementedError

    def fold_snapshot(self, snap, t: float, request) -> None:
        """Account a confirmed placement of ``request`` at ``t`` on
        the instance ``snap`` mirrors (metric bump + horizon clamp)."""
        raise NotImplementedError


ROUTERS: Dict[str, Type[Router]] = {}


def register_router(cls: Type[Router]) -> Type[Router]:
    """Class decorator: add a :class:`Router` subclass to the registry."""
    ROUTERS[cls.name] = cls
    return cls


def make_router(router: Union[str, Router]) -> Router:
    """Resolve a router name (or pass through an instance)."""
    if isinstance(router, Router):
        return router
    if router not in ROUTERS:
        raise ValueError(
            f"router must be one of {sorted(ROUTERS)}, got {router!r}"
        )
    return ROUTERS[router]()


@register_router
class RoundRobinRouter(Router):
    """Arrival-order striping across instances."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def needs_state(self, request) -> bool:
        return False

    def select_from_metrics(self, n: int, metrics: Optional[List], request) -> int:
        idx = self._next
        self._next = (idx + 1) % n
        return idx


@register_router
class LeastLoadedRouter(Router):
    """Fewest unfinished requests (admitted or not).

    The ``unfinished`` metric moves on exactly two event kinds —
    dispatches (+1, which the coordinator itself confirms and folds)
    and request finishes (−1) — and every finish is attached to an
    executor completion event the instance has *already scheduled*.
    That makes the metric's short-term trajectory fully predictable,
    so this router implements the speculative-dispatch snapshot
    protocol: ``[value, next_completion, finishers, horizon, floor]``,
    where ``horizon`` is a proven lower bound on the first instant any
    *other* finish could land (every surviving resident still needs
    ``_decode_tokens_left`` iterations of at least ``_decode_floor``
    seconds each, serialized behind the in-flight event).
    """

    name = "least_loaded"
    speculative = True

    def instance_metrics(self, instance, request) -> int:
        return instance.unfinished

    def select_from_metrics(self, n: int, metrics: Optional[List], request) -> int:
        return min(range(n), key=lambda i: metrics[i])

    def instance_snapshot(self, instance, request):
        t = instance.engine.now()
        floor = _decode_floor(instance)
        value = instance.unfinished
        queues = (instance.running, instance.waiting, instance.prefill_queue,
                  instance.preempted, instance.loading)
        inflight = instance.decode_stream.inflight if instance._busy else None
        if inflight is None or inflight[1] < t:
            if instance._busy:
                # Busy without a usable descriptor: refuse to promise
                # anything (zero-width window, always stale).
                return [value, None, 0, t, floor]
            remaining = [_decode_tokens_left(r) for q in queues for r in q]
            horizon = t + min(remaining) * floor if remaining else _INF
            return [value, None, 0, horizon, floor]
        kind, end, payload = inflight
        finishers = 0
        survivors: list = []
        covered = set()
        if kind == "prefill":
            # Entries reaching their full context at ``end`` promote
            # and emit their first token there — which finishes them
            # outright when output_len == 1.
            for r, chunk in payload:
                if (r.state is RequestState.PREFILLING
                        and r.prefill_progress + chunk >= r.context_len):
                    covered.add(id(r))
                    if r.generated == 0 and r.output_len <= 1:
                        finishers += 1
                    else:
                        survivors.append(_decode_tokens_left(r))
        else:
            batch, k = (payload, 1) if kind == "decode" else payload
            # Each batch member gains k tokens by ``end``; the fusion
            # planner guarantees none finishes strictly earlier.
            for r in batch:
                covered.add(id(r))
                rem = r.output_len - r.generated
                if rem <= k:
                    finishers += 1
                else:
                    survivors.append(rem - k)
        for q in queues:
            for r in q:
                if id(r) not in covered:
                    survivors.append(_decode_tokens_left(r))
        horizon = end + min(survivors) * floor if survivors else _INF
        return [value, end, finishers, horizon, floor]

    def snapshot_metric(self, snap, t: float):
        if snap[1] is not None and snap[1] < t:
            # The known completion event has fired (strictly before t:
            # same-instant dispatches run ahead of instance events).
            snap[0] -= snap[2]
            snap[1] = None
        return snap[0]

    def snapshot_fresh(self, snap, t: float) -> bool:
        return t < snap[3]

    def fold_snapshot(self, snap, t: float, request) -> None:
        snap[0] += 1
        bound = t + _decode_tokens_left(request) * snap[4]
        if bound < snap[3]:
            snap[3] = bound


@register_router
class LeastQueuedRouter(Router):
    """Shortest waiting + prefill queue at arrival time."""

    name = "least_queued"

    def instance_metrics(self, instance, request) -> int:
        return len(instance.waiting) + len(instance.prefill_queue)

    def select_from_metrics(self, n: int, metrics: Optional[List], request) -> int:
        return min(range(n), key=lambda i: metrics[i])


@register_router
class BufferAwareRouter(Router):
    """Route to the instance with the smallest aggregate buffer deficit.

    The deficit of one instance is how many buffered seconds its
    resident requests are collectively short of ``target_buffer_s``,
    plus a full target's worth for every request that has no client
    buffer yet (waiting / prefilling / preempted / loading).  This is
    the dispatch-layer counterpart of the paper's buffer-aware
    scheduling objective: new load goes where client buffers are
    healthiest, so a node with thin buffers is not pushed into stalls.
    """

    name = "buffer_aware"

    def __init__(self, target_buffer_s: float = 1.0) -> None:
        if target_buffer_s <= 0:
            raise ValueError("target_buffer_s must be positive")
        self.target_buffer_s = target_buffer_s

    def instance_deficit(self, instance) -> float:
        """Aggregate buffered-seconds shortfall of one instance.

        Requests that have no client buffer yet — waiting, prefilling,
        preempted, or dispatched-but-not-yet-arrived (``unfinished``
        minus the decode batch) — each count a full target: they are
        pure future demand.
        """
        target = self.target_buffer_s
        now = instance.engine.now()
        buffer_seconds = instance.tracker.buffer_seconds
        deficit = 0.0
        for request in instance.running:
            shortfall = target - buffer_seconds(request.req_id, now)
            if shortfall > 0.0:
                deficit += shortfall
        pending = instance.unfinished - len(instance.running)
        return deficit + target * pending

    def instance_metrics(self, instance, request):
        return (self.instance_deficit(instance), instance.unfinished)

    def select_from_metrics(self, n: int, metrics: Optional[List], request) -> int:
        # Deficit first; among equally-healthy nodes, least total load;
        # then lowest index (full determinism).
        return min(
            range(n),
            key=lambda i: (metrics[i][0], metrics[i][1], i),
        )


@register_router
class SessionAffinityRouter(Router):
    """Sticky routing: all turns of a session go to one instance.

    Session identity is the request's ``session_id`` (set by the
    session drivers and session workload builders); standalone requests
    (``session_id is None``) are placed individually by the ``base``
    policy.  Fresh sessions are placed by the base policy too, and
    later turns reuse the recorded placement — modelling KV/prefix-cache
    locality for multi-turn conversations.
    """

    name = "session_affinity"

    def __init__(self, base: Union[str, Router] = "least_loaded") -> None:
        self.base = make_router(base)
        # The speculative-dispatch snapshot protocol is the base
        # policy's (sticky hits are stateless and simply fold into the
        # mirror).
        self.speculative = self.base.speculative
        self.assignments: Dict[int, int] = {}

    def needs_state(self, request) -> bool:
        # `Request.affinity_key` is the typed accessor shared with the
        # prefix-sharing lookup path — no defensive getattr: every
        # request defines it.
        session = request.affinity_key
        if session is not None and session in self.assignments:
            return False
        return self.base.needs_state(request)

    def instance_metrics(self, instance, request):
        return self.base.instance_metrics(instance, request)

    def select_from_metrics(self, n: int, metrics: Optional[List], request) -> int:
        session = request.affinity_key
        if session is None:
            return self.base.select_from_metrics(n, metrics, request)
        idx = self.assignments.get(session)
        if idx is None:
            idx = self.base.select_from_metrics(n, metrics, request)
            self.assignments[session] = idx
        return idx

    def instance_snapshot(self, instance, request):
        return self.base.instance_snapshot(instance, request)

    def snapshot_metric(self, snap, t: float):
        return self.base.snapshot_metric(snap, t)

    def snapshot_fresh(self, snap, t: float) -> bool:
        return self.base.snapshot_fresh(snap, t)

    def fold_snapshot(self, snap, t: float, request) -> None:
        self.base.fold_snapshot(snap, t, request)
