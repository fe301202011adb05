"""Deterministic discrete-event engine.

Components schedule callbacks via :meth:`SimEngine.call_at` /
:meth:`SimEngine.call_after`; :meth:`SimEngine.run` drains the event
queue in timestamp order, advancing the shared clock.  A run is fully
determined by the scheduled callbacks and the RNG seed, which is what
makes the serving experiments reproducible.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue


class SimEngine:
    """Event loop driving a simulation run."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._queue = EventQueue()
        self._events_processed = 0
        self._running = False
        self._stopped = False
        self._run_until: Optional[float] = None

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_processed

    # --- decision horizon -------------------------------------------------
    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or ``None``.

        This is the engine's *decision horizon*: no externally visible
        state can change strictly before this instant, so components
        may advance their own state in closed form up to (but not
        including) it — the macro-step decode fusion relies on this.
        """
        return self._queue.peek_time()

    @property
    def run_until(self) -> Optional[float]:
        """The ``until`` bound of the in-progress :meth:`run` call.

        ``None`` outside :meth:`run` or when running unbounded.  Fused
        multi-iteration advances must not cross it: events completing
        after ``until`` stay pending for the *next* run() call, exactly
        as per-iteration events would.
        """
        return self._run_until

    def now(self) -> float:
        """Current simulation time."""
        return self.clock.now()

    def call_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulation time ``time``.

        Scheduling in the past raises ``ValueError`` — it would silently
        reorder causality otherwise.
        """
        if time < self.clock.now():
            raise ValueError(
                f"cannot schedule event in the past: now={self.clock.now()}, at={time}"
            )
        return self._queue.push(time, action, label)

    def call_after(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self.clock.now() + delay, action, label)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Args:
            until: stop once the next event would fire after this time
                (the clock is left at ``until`` in that case).
            max_events: safety valve against runaway loops.

        Returns:
            The simulation time when the loop exited.
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run() call)")
        self._running = True
        self._stopped = False
        self._run_until = until
        executed = 0
        try:
            while not self._stopped:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.clock.advance_to(until)
                    break
                event = self._queue.pop()
                assert event is not None
                self.clock.advance_to(event.time)
                event.action()
                self._events_processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._running = False
            self._run_until = None
        if until is not None and self.clock.now() < until and not self._queue:
            # Nothing left to do before the horizon: jump to it so the
            # caller sees a consistent end-of-run timestamp.
            self.clock.advance_to(until)
        return self.clock.now()

    def run_before(self, horizon: float, until: Optional[float] = None) -> float:
        """Drain events strictly *before* ``horizon``, then advance to it.

        The conservative-window primitive of the sharded cluster plane:
        a shard replays the single-process event order exactly by
        draining everything scheduled before the next dispatch instant,
        leaving events *at* the instant pending — dispatch-time router
        reads and admissions interleave with same-timestamp events in
        the same order the shared-engine run produces.

        ``until`` sets :attr:`run_until` for the drained events (the
        enclosing run's safety horizon), so fused decode windows obey
        the same bound they would inside one ``run(until=...)`` call;
        ``horizon`` itself enters fusion planning through
        :meth:`next_event_time` (pending dispatches are part of the
        decision horizon), not through ``run_until``.
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run() call)")
        self._running = True
        self._stopped = False
        self._run_until = until
        try:
            while not self._stopped:
                next_time = self._queue.peek_time()
                if next_time is None or next_time >= horizon:
                    break
                event = self._queue.pop()
                assert event is not None
                self.clock.advance_to(event.time)
                event.action()
                self._events_processed += 1
        finally:
            self._running = False
            self._run_until = None
        if self.clock.now() < horizon:
            self.clock.advance_to(horizon)
        return self.clock.now()


class ScopedEngine:
    """A per-component view of a shared :class:`SimEngine`.

    Events scheduled through it land in the shared queue (one global
    timeline, one run loop, unchanged ordering), but
    :meth:`next_event_time` answers with the earliest pending event
    *scheduled through this view* — merged with an optional external
    horizon callable — instead of the global minimum.

    This is what makes cluster fusion windows partition-invariant: a
    :class:`~repro.serving.server.ServingSystem` inside a cluster
    plans its macro-step decode windows against its *own* decision
    horizon (its events plus the cluster's next dispatch instant), so
    a sibling replica's internal events never truncate its windows.
    The same instance therefore forms the same windows whether its
    siblings share its shard's engine or live in another shard —
    per-instance reports, executor stats included, stay bit-identical
    across partitionings.

    The own-event heap holds the very :class:`Event` objects pushed to
    the shared queue; entries that were executed (``_queue`` cleared on
    pop) or cancelled are lazily discarded when they surface.  Dead
    entries carry timestamps at or before the clock, so each peek
    drains them from the front — the heap stays proportional to this
    component's live event count.
    """

    def __init__(
        self,
        base: SimEngine,
        external_horizon: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        self.base = base
        self.external_horizon = external_horizon
        self._own: list = []

    # --- scheduling (tracked) ---------------------------------------------
    def call_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        event = self.base.call_at(time, action, label)
        heapq.heappush(self._own, event)
        return event

    def call_after(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        event = self.base.call_after(delay, action, label)
        heapq.heappush(self._own, event)
        return event

    # --- scoped decision horizon ------------------------------------------
    def own_event_time(self) -> Optional[float]:
        """Earliest live event scheduled *through this view*, ignoring
        the external horizon.

        The sharded plane's trajectory snapshots read this to learn the
        one already-scheduled completion that can change an instance's
        routing metric, independent of where the dispatch ladder
        currently ends — extending the ladder (confirmed placements
        arriving later) moves the external horizon but never this.
        """
        own = self._own
        while own and (own[0].cancelled or own[0]._queue is None):
            heapq.heappop(own)
        return own[0].time if own else None

    def next_event_time(self) -> Optional[float]:
        mine = self.own_event_time()
        external = (
            self.external_horizon() if self.external_horizon is not None else None
        )
        if mine is None:
            return external
        if external is None:
            return mine
        return mine if mine <= external else external

    # --- shared-engine delegation -----------------------------------------
    @property
    def clock(self):
        return self.base.clock

    def now(self) -> float:
        return self.base.now()

    @property
    def run_until(self) -> Optional[float]:
        return self.base.run_until

    @property
    def events_processed(self) -> int:
        return self.base.events_processed

    def stop(self) -> None:
        self.base.stop()

    def pending(self) -> int:
        return self.base.pending()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        return self.base.run(until=until, max_events=max_events)

    def run_before(self, horizon: float, until: Optional[float] = None) -> float:
        return self.base.run_before(horizon, until=until)
