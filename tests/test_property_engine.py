"""Property-based tests for the event engine and arrival processes."""

import pytest

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.sim.engine import SimEngine
from repro.workload.arrivals import gamma_arrivals, poisson_arrivals

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)


class TestEngineProperties:
    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=40)
    )
    @settings(max_examples=200, deadline=None)
    def test_execution_order_matches_timestamps(self, delays):
        engine = SimEngine()
        seen = []
        for delay in delays:
            engine.call_at(delay, lambda d=delay: seen.append(d))
        engine.run()
        assert seen == sorted(seen)
        assert engine.events_processed == len(delays)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
        horizon=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_run_until_partitions_events(self, delays, horizon):
        engine = SimEngine()
        seen = []
        for delay in delays:
            engine.call_at(delay, lambda d=delay: seen.append(d))
        engine.run(until=horizon)
        assert all(d <= horizon for d in seen)
        remaining = [d for d in delays if d > horizon]
        assert len(engine._queue) == len(remaining)

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        engine = SimEngine()
        stamps = []
        for delay in delays:
            engine.call_at(delay, lambda: stamps.append(engine.now()))
        engine.run()
        assert stamps == sorted(stamps)


class TestArrivalProperties:
    @given(
        rate=st.floats(min_value=0.5, max_value=20.0),
        duration=st.floats(min_value=1.0, max_value=50.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_poisson_arrivals_sorted_within_horizon(self, rate, duration, seed):
        rng = np.random.default_rng(seed)
        times = poisson_arrivals(rate, duration, rng)
        assert np.all(np.diff(times) >= 0)
        if len(times):
            assert times[0] >= 0.0
            assert times[-1] < duration

    @given(
        rate=st.floats(min_value=0.5, max_value=20.0),
        cv=st.floats(min_value=0.2, max_value=4.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_gamma_arrivals_sorted_within_horizon(self, rate, cv, seed):
        rng = np.random.default_rng(seed)
        times = gamma_arrivals(rate, cv, 30.0, rng)
        assert np.all(np.diff(times) >= 0)
        if len(times):
            assert 0.0 <= times[0] and times[-1] < 30.0
