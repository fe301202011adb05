"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import ScopedEngine, SimEngine


class TestScheduling:
    def test_call_at_runs_at_time(self, engine):
        times = []
        engine.call_at(2.5, lambda: times.append(engine.now()))
        engine.run()
        assert times == [2.5]

    def test_call_after_offsets_from_now(self, engine):
        times = []
        engine.call_at(1.0, lambda: engine.call_after(0.5, lambda: times.append(engine.now())))
        engine.run()
        assert times == [1.5]

    def test_call_at_past_raises(self, engine):
        engine.call_at(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.call_at(0.5, lambda: None)

    def test_negative_delay_raises(self, engine):
        with pytest.raises(ValueError):
            engine.call_after(-0.1, lambda: None)

    def test_events_execute_in_order(self, engine):
        order = []
        engine.call_at(3.0, lambda: order.append("c"))
        engine.call_at(1.0, lambda: order.append("a"))
        engine.call_at(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        event = engine.call_at(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []


class TestRun:
    def test_run_until_stops_before_later_events(self, engine):
        fired = []
        engine.call_at(1.0, lambda: fired.append(1))
        engine.call_at(10.0, lambda: fired.append(10))
        end = engine.run(until=5.0)
        assert fired == [1]
        assert end == 5.0
        assert len(engine._queue) == 1

    def test_run_until_advances_clock_to_horizon(self, engine):
        end = engine.run(until=7.0)
        assert end == 7.0
        assert engine.now() == 7.0

    def test_run_resumes_after_until(self, engine):
        fired = []
        engine.call_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        engine.run()
        assert fired == [10]

    def test_max_events_bounds_execution(self, engine):
        for idx in range(10):
            engine.call_at(float(idx), lambda: None)
        engine.run(max_events=3)
        assert engine.events_processed == 3

    def test_reentrant_run_rejected(self, engine):
        def recurse():
            engine.run()

        engine.call_at(1.0, recurse)
        with pytest.raises(RuntimeError):
            engine.run()

    def test_events_processed_counter(self, engine):
        engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_event_can_schedule_more_events(self, engine):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.call_after(1.0, lambda: chain(depth + 1))

        engine.call_at(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now() == 3.0


class TestRunBefore:
    """Edge cases of the conservative-window primitive (sharded plane)."""

    def test_drains_strictly_before_horizon(self, engine):
        fired = []
        engine.call_at(1.0, lambda: fired.append(1.0))
        engine.call_at(2.0, lambda: fired.append(2.0))
        engine.call_at(3.0, lambda: fired.append(3.0))
        engine.run_before(2.0)
        assert fired == [1.0]
        assert engine.now() == 2.0

    def test_tied_timestamps_at_horizon_stay_pending(self, engine):
        """Events AT the horizon instant are the next window's work:
        dispatch-time router reads happen before any same-instant
        instance event, so none of the ties may run."""
        fired = []
        for tag in ("a", "b", "c"):
            engine.call_at(2.0, lambda tag=tag: fired.append(tag))
        engine.run_before(2.0)
        assert fired == []
        assert len(engine._queue) == 3
        # The follow-up drain runs the ties in scheduling order.
        engine.run_before(2.5)
        assert fired == ["a", "b", "c"]

    def test_tied_timestamps_below_horizon_keep_order(self, engine):
        fired = []
        engine.call_at(1.0, lambda: fired.append("first"))
        engine.call_at(1.0, lambda: fired.append("second"))
        engine.call_at(1.0, lambda: fired.append("third"))
        engine.run_before(1.5)
        assert fired == ["first", "second", "third"]

    def test_empty_window_advances_clock_only(self, engine):
        engine.run_before(4.0)
        assert engine.now() == 4.0
        assert engine.events_processed == 0
        # A later horizon keeps advancing; an identical one is a no-op.
        engine.run_before(4.0)
        assert engine.now() == 4.0
        engine.run_before(7.0)
        assert engine.now() == 7.0

    def test_until_bounds_drained_events(self, engine):
        seen = []
        engine.call_at(1.0, lambda: seen.append(engine.run_until))
        engine.run_before(2.0, until=10.0)
        assert seen == [10.0]
        assert engine.run_until is None  # restored after the drain


class TestScopedEngine:
    def _scoped(self, horizon_holder):
        base = SimEngine()
        scoped = ScopedEngine(base, lambda: horizon_holder[0])
        return base, scoped

    def test_next_event_merges_external_horizon(self):
        horizon = [5.0]
        base, scoped = self._scoped(horizon)
        scoped.call_at(7.0, lambda: None)
        assert scoped.own_event_time() == 7.0
        assert scoped.decision_horizon()[0] == 5.0

    def test_horizon_extension_under_confirmed_placements(self):
        """Extending the dispatch ladder (confirmed placements landing
        later) moves the merged horizon but never the own-event view —
        trajectory snapshots stay valid across ladder growth."""
        horizon = [2.0]
        base, scoped = self._scoped(horizon)
        scoped.call_at(4.0, lambda: None)
        assert scoped.decision_horizon()[0] == 2.0
        horizon[0] = 3.0   # ladder extended past the old horizon
        assert scoped.decision_horizon()[0] == 3.0
        assert scoped.own_event_time() == 4.0
        horizon[0] = None  # ladder exhausted: own events take over
        assert scoped.decision_horizon()[0] == 4.0
        assert scoped.own_event_time() == 4.0

    def test_own_event_time_skips_dead_entries(self):
        horizon = [None]
        base, scoped = self._scoped(horizon)
        event = scoped.call_at(1.0, lambda: None)
        scoped.call_at(2.0, lambda: None)
        event.cancel()
        assert scoped.own_event_time() == 2.0
        base.run()
        assert scoped.own_event_time() is None

    def test_own_event_time_after_partial_drain(self):
        horizon = [None]
        base, scoped = self._scoped(horizon)
        scoped.call_at(1.0, lambda: None)
        scoped.call_at(3.0, lambda: None)
        base.run_before(2.0)
        assert scoped.own_event_time() == 3.0

    def test_decision_horizon_skips_the_ignored_event(self):
        horizon = [None]
        base, scoped = self._scoped(horizon)
        tick = scoped.call_at(1.0, lambda: None, label="sched-tick")
        scoped.call_at(2.0, lambda: None, label="arrival:3")
        assert scoped.decision_horizon() == (1.0, "sched-tick")
        assert scoped.decision_horizon(tick) == (2.0, "arrival:3")
        horizon[0] = 1.5
        assert scoped.decision_horizon(tick) == (1.5, "dispatch")
        assert base.decision_horizon(tick) == (2.0, "arrival:3")
        # Skipping is a peek: the run order is untouched.
        fired = []
        base.call_at(2.0, lambda: fired.append("late"))
        tick.action = lambda: fired.append("tick")
        base.run()
        assert fired == ["tick", "late"]
        assert base.decision_horizon() == (None, "")
        horizon[0] = None
        assert scoped.decision_horizon(tick) == (None, "")
