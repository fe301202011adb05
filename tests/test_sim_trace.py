"""Tests for structured event tracing."""

import json

import pytest

from repro.baselines import SGLangScheduler
from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.sim.trace import TraceRecorder
from repro.workload.request import Request
from tests.oracle import Cell, check


class TestRecorder:
    def test_records_events(self):
        tracer = TraceRecorder()
        tracer.record(1.0, "a", "x", value=1)
        tracer.record(2.0, "b", "y")
        assert len(tracer) == 2
        assert tracer.records[0].fields == {"value": 1}

    def test_category_filter(self):
        tracer = TraceRecorder(categories=["keep"])
        tracer.record(0.0, "keep", "x")
        tracer.record(0.0, "drop", "y")
        assert len(tracer) == 1
        assert not tracer.wants("drop")

    def test_capacity_ring_buffer(self):
        tracer = TraceRecorder(categories=["c"], capacity=3)
        for idx in range(3):
            tracer.record(float(idx), "c", "e")
        # Exactly full: nothing dropped yet.
        assert tracer.dropped == 0
        assert [r.time for r in tracer.records] == [0.0, 1.0, 2.0]
        tracer.record(3.0, "c", "e")
        tracer.record(4.0, "other", "e")  # filtered, not dropped
        tracer.record(5.0, "c", "e")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        # Oldest first, in arrival order.
        assert [r.time for r in tracer.records] == [2.0, 3.0, 5.0]
        assert [r.time for r in tracer.between(0.0, 10.0)] == [2.0, 3.0, 5.0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_queries(self):
        tracer = TraceRecorder()
        tracer.record(1.0, "a", "x")
        tracer.record(2.0, "a", "y")
        tracer.record(3.0, "b", "x")
        assert len(tracer.by_category("a")) == 2
        assert len(tracer.by_event("x")) == 2
        assert len(tracer.between(1.5, 3.5)) == 2
        assert tracer.counts()[("a", "x")] == 1

    def test_jsonl_export(self, tmp_path):
        tracer = TraceRecorder()
        tracer.record(1.0, "a", "x", req_id=7)
        path = tracer.to_jsonl(tmp_path / "trace.jsonl")
        record = json.loads(path.read_text().strip())
        assert record == {"time": 1.0, "category": "a", "event": "x", "req_id": 7}


class TestServingIntegration:
    def test_serving_run_emits_lifecycle_and_executor_events(self):
        tracer = TraceRecorder()
        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.02, max_batch=4)
        system = ServingSystem(config, SGLangScheduler(), tracer=tracer)
        system.submit([
            Request(req_id=i, arrival_time=0.0, prompt_len=64,
                    output_len=16, rate=10.0)
            for i in range(3)
        ])
        system.run(until=1_000.0)
        counts = tracer.counts()
        assert counts[("request", "arrive")] == 3
        assert counts[("request", "finish")] == 3
        assert counts.get(("executor", "prefill_start"), 0) >= 1
        assert counts.get(("executor", "decode_start"), 0) >= 1

    def test_idle_ticks_record_no_tick_cut(self):
        # Every decode_start names what cut its window.  With nothing
        # waiting and nothing preempted every tick is idle, so windows
        # run through ticks and none is cut by one.
        tracer = TraceRecorder(categories=["executor"])
        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.1, max_batch=8)
        scheduler = TokenFlowScheduler()
        system = ServingSystem(config, scheduler, tracer=tracer)
        system.submit([
            Request(req_id=i, arrival_time=0.0, prompt_len=64,
                    output_len=600, rate=10.0)
            for i in range(4)
        ])
        system.run(until=1_000.0)
        assert system.unfinished == 0
        assert scheduler.scheduling_passes > 2
        assert scheduler.active_passes == 0
        windows = tracer.by_event("decode_start")
        cuts = [w.fields["cut"] for w in windows]
        assert all(isinstance(cut, str) and cut for cut in cuts)
        assert "tick" not in cuts
        assert max(w.fields["duration"] for w in windows) > scheduler.tick_interval

    def test_no_tracer_path_unaffected(self):
        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.02, max_batch=4)
        system = ServingSystem(config, SGLangScheduler())
        system.submit([Request(req_id=0, arrival_time=0.0, prompt_len=64,
                               output_len=8, rate=10.0)])
        system.run(until=100.0)
        assert system.unfinished == 0


@pytest.mark.parametrize("name,scale", [
    ("table1-h200-a", 0.1),
    ("tab02-tokenflow", 0.25),
    ("tab02-tokenflow-no-writethrough", 0.25),
])
def test_tracer_observes_the_fast_path(name, scale):
    """Attaching a recorder changes nothing a run shows, and its one
    ``decode_start`` per executor event accounts for every decode
    iteration, fused windows included: the oracle's ``tracer`` row
    (``tests/oracle.py``)."""
    check("tracer", Cell(name, scale))


@pytest.mark.parametrize("router", ["round_robin", "least_queued"])
def test_tracer_shows_dispatch_cuts_in_a_cluster(router):
    """A dispatch that lands inside a replica's fused window rewrites
    the window's ``decode_start`` record: the record keeps accounting
    for every decode iteration, one record per fused window, and shows
    the cut as ``dispatch``."""
    check("tracer", Cell("cluster-soak-64x", 0.02, 0, router))
