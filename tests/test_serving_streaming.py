"""Streaming plane: feed-vs-submit parity and bounded-memory telemetry.

Two independent guarantees are pinned here:

1. **Arrival-path parity** — driving a run through
   ``ServingSystem.feed(stream)`` / ``ShardedServingCluster.feed(stream)`` is
   *event-for-event identical* to the materialised ``submit(list)``
   path: the oracle's ``streamed`` row (``tests/oracle.py``) compares
   every field of the two runs exactly, engine events and placements
   included, for every registry scenario (fast subset here, the full
   sweep in the slow marker).
2. **Streaming telemetry** — with ``retain_per_request=False`` the
   tracker retires finished requests into
   :class:`StreamingRunStats`; the oracle's ``retain_per_request`` row
   bounds how far its aggregates and percentile sketches may stray
   from the retained report, and no O(total) structure survives the
   run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.scenarios import build_run, get_scenario, scenario_names
from repro.serving.metrics import (
    QuantileSketch,
    StreamingRunStats,
    aggregate_reports,
)
from repro.workload.request import clone_requests
from tests.oracle import PLAIN, Cell, check, outcome

FAST_PARITY_SCENARIOS = [
    ("table1-h200-a", 0.1),        # burst, fusion-heavy
    ("table1-rtx4090-c", 0.25),    # poisson, preemption pressure
    ("cluster-burst-4x", 0.25),    # 4-replica cluster routing
    ("bursty-sessions", 0.25),     # session-id workload, 2 replicas
]


def states(cell, knob, settings=(False, True)):
    """``cell``'s memoised deep states with ``knob`` at each setting."""
    return [outcome(cell, PLAIN.but(**{knob: v})).state for v in settings]


class TestFeedSubmitParity:
    @pytest.mark.parametrize("name,scale", FAST_PARITY_SCENARIOS)
    def test_bit_identical_reports(self, name, scale):
        check("streamed", Cell(name, scale))

    @pytest.mark.parametrize("name,scale", FAST_PARITY_SCENARIOS)
    def test_same_event_count(self, name, scale):
        # The self-refilling arrival chain adds no events: each arrival
        # pops its successor inside its own event.
        submitted, streamed = states(Cell(name, scale), "streamed")
        assert submitted["events"] == streamed["events"]

    def test_cluster_placements_identical(self):
        submitted, streamed = states(Cell("cluster-burst-4x", 0.25), "streamed")
        for key in ("placements", "placement_counts"):
            assert submitted[key] == streamed[key]

    def test_unfused_parity(self):
        # The parity must not depend on the fusion plane being on.
        check("streamed", Cell("table1-h200-a", 0.1),
              PLAIN.but(per_iteration=True))

    def test_feed_rejects_unordered_stream(self):
        from tests.conftest import make_request

        run = build_run(get_scenario("table1-h200-a", scale=0.1))
        unordered = [make_request(req_id=0, arrival=5.0),
                     make_request(req_id=1, arrival=1.0)]
        with pytest.raises(ValueError, match="ordered by arrival"):
            run.target.feed(iter(unordered))
            run.target.run(until=run.spec.horizon)

    @pytest.mark.parametrize("streamed", [False, True])
    def test_cluster_truncation_raises_not_drops(self, streamed):
        # A cluster run cut at the horizon must report the unserved
        # tail as unfinished — in both arrival modes.  (Streamed runs
        # count every request popped off the stream; the not-yet-popped
        # tail is unknowable by construction, but at least one pending
        # arrival is always scheduled, so truncation can never look
        # like success.)
        spec = get_scenario("cluster-burst-4x", scale=0.1, horizon=0.2)
        with pytest.raises(RuntimeError, match="unfinished at horizon"):
            build_run(spec).execute(streamed=streamed)

    def test_stream_native_run_supports_forced_submit(self):
        # execute(streamed=False) on a stream-native scenario
        # materialises the stream rather than crashing.
        run = build_run(get_scenario("soak-steady", scale=0.002))
        report = run.execute(streamed=False)
        assert report.n_finished == report.n_requests > 0

    def test_lookahead_window_is_bounded(self):
        # A fed stream keeps at most one future arrival scheduled:
        # pending events never exceed in-flight work + 1 arrival +
        # tick, regardless of how many requests the stream holds.
        run = build_run(get_scenario("table1-h200-a", scale=0.1))
        engine = run.target.engine
        run.target.feed(iter(clone_requests(run.requests)))
        assert len(engine._queue) == 1  # exactly the first arrival
        run.target.run(until=run.spec.horizon)
        assert run.target.unfinished == 0


@pytest.mark.slow
class TestFeedSubmitParityFullRegistry:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_registry_scenario(self, name):
        check("streamed", Cell(name, 0.02 if name.startswith("soak") else 0.1))


class TestStreamingTelemetry:
    @pytest.fixture(scope="class")
    def streaming(self):
        spec = get_scenario("table1-rtx4090-c", scale=0.25)
        return build_run(spec.with_overrides(retain_per_request=False)).execute()

    def test_exact_aggregates_match(self):
        check("retain_per_request", Cell("table1-rtx4090-c", 0.25))

    def test_percentiles_within_sketch_envelope(self):
        # The sketch approximates the order statistic itself (no
        # interpolation); allow the bucket error plus one order-stat
        # step at this sample size.
        retained, streaming = states(Cell("table1-rtx4090-c", 0.25), "retain",
                                     (True, False))
        for key in ("metrics.ttft_p50", "metrics.ttft_p99"):
            assert math.isclose(streaming[key], retained[key], rel_tol=0.15), key

    def test_streaming_report_shape(self, streaming):
        assert streaming.stream_stats is not None
        assert streaming.per_request == []
        assert streaming.stream_stats.n_requests == streaming.n_requests
        # Executor/kv/scheduler stats still ride on the report.
        assert streaming.executor_stats["decode_iterations"] > 0
        assert "pcie_utilisation" in streaming.kv_stats

    def test_tracker_fully_retired(self):
        spec = get_scenario("soak-steady", scale=0.01)
        run = build_run(spec)
        report = run.execute()
        assert report.n_finished == report.n_requests
        assert len(run.target.tracker) == 0

    def test_summary_row_renders(self, streaming):
        row = streaming.summary_row()
        assert len(row) == len(type(streaming).summary_headers())


class TestQuantileSketch:
    def test_empty(self):
        sketch = QuantileSketch()
        assert math.isnan(sketch.quantile(50))
        assert math.isnan(sketch.mean)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=0.0, sigma=1.5, size=20_000)
        sketch = QuantileSketch()
        for v in values:
            sketch.add(float(v))
        for q in (10, 50, 90, 99):
            exact = float(np.percentile(values, q))
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.02), q

    def test_mean_total_exact(self):
        sketch = QuantileSketch()
        for v in (0.0, 1.0, 2.0, 3.0):
            sketch.add(v)
        assert sketch.count == 4
        assert sketch.mean == pytest.approx(1.5)
        assert sketch.minimum == 0.0 and sketch.maximum == 3.0

    def test_zero_values(self):
        sketch = QuantileSketch()
        for _ in range(10):
            sketch.add(0.0)
        sketch.add(5.0)
        assert sketch.quantile(50) == 0.0
        assert sketch.quantile(100) == 5.0

    def test_merge_equals_union(self):
        rng = np.random.default_rng(1)
        a_vals = rng.exponential(1.0, 500)
        b_vals = rng.exponential(3.0, 700)
        a, b, union = QuantileSketch(), QuantileSketch(), QuantileSketch()
        for v in a_vals:
            a.add(float(v)); union.add(float(v))
        for v in b_vals:
            b.add(float(v)); union.add(float(v))
        a.merge(b)
        assert a.count == union.count
        assert a.total == pytest.approx(union.total)
        for q in (25, 50, 95):
            assert a.quantile(q) == union.quantile(q)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(-1.0)

    def test_pickle_roundtrip(self):
        import pickle

        sketch = QuantileSketch()
        for v in (0.5, 1.5, 2.5):
            sketch.add(v)
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.count == 3
        assert clone.quantile(50) == sketch.quantile(50)


class TestStreamingRunStatsMerge:
    def test_merge_matches_single_fold(self):
        spec = get_scenario("table1-h200-a", scale=0.1)
        streaming = build_run(
            spec.with_overrides(retain_per_request=False)
        ).execute()
        # Merging a report's stats with an empty one must be identity.
        empty = StreamingRunStats()
        merged = aggregate_reports([streaming], system="x")
        assert merged.n_requests == streaming.n_requests
        assert merged.qos == pytest.approx(streaming.qos, rel=1e-12)
        assert merged.stream_stats is not None
        del empty

    def test_mixed_retained_and_streaming(self):
        spec = get_scenario("table1-h200-a", scale=0.1)
        retained = build_run(spec).execute()
        streaming = build_run(
            spec.with_overrides(retain_per_request=False)
        ).execute()
        combined = aggregate_reports([retained, streaming])
        assert combined.stream_stats is not None
        assert combined.n_requests == retained.n_requests + streaming.n_requests
        assert combined.total_tokens == retained.total_tokens + streaming.total_tokens
        assert combined.preemptions == retained.preemptions + streaming.preemptions
