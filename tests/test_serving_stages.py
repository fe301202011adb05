"""Unit tests for the composable serving-loop stages."""

import pytest

from repro.baselines import SGLangChunkedScheduler, SGLangScheduler
from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.serving.stages import (
    AdmissionStage,
    BatchComposer,
    DecodeStream,
    MemoryPressureStage,
)
from repro.workload.request import Request


def burst(n, prompt=64, output=32, rate=10.0, start=0.0):
    return [
        Request(req_id=i, arrival_time=start, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def make_system(scheduler=None, mem_frac=0.01, max_batch=8, **kwargs):
    config = ServingConfig(
        hardware="h200", model="llama3-8b", mem_frac=mem_frac,
        max_batch=max_batch, **kwargs,
    )
    return ServingSystem(config, scheduler or SGLangScheduler())


class TestWiring:
    def test_shell_exposes_all_four_stages(self):
        system = make_system()
        assert isinstance(system.admission, AdmissionStage)
        assert isinstance(system.composer, BatchComposer)
        assert isinstance(system.memory, MemoryPressureStage)
        assert isinstance(system.decode_stream, DecodeStream)

    def test_stages_share_the_shell_queues(self):
        """Stages bind the shell's queue lists by identity, so state
        changes are visible everywhere without copying."""
        system = make_system()
        assert system.composer.running is system.running
        assert system.composer.prefill_queue is system.prefill_queue
        assert system.admission.waiting is system.waiting
        assert system.decode_stream.running is system.running

    def test_offload_reports_swaps_to_memory_stage(self):
        system = make_system()
        assert system.offload._on_swap_observed == system.memory.observe_swap

    def test_chunked_flag_from_sglang_chunked(self):
        system = make_system(scheduler=SGLangChunkedScheduler())
        assert system.composer.chunked
        assert not make_system().composer.chunked

    def test_chunked_flag_from_scheduler(self):
        class ChunkWanting(SGLangScheduler):
            wants_chunked_prefill = True

        system = make_system(scheduler=ChunkWanting())
        assert system.composer.chunked


class TestAdmissionStage:
    def test_past_arrival_rejected(self):
        system = make_system()
        system.run(until=5.0)
        with pytest.raises(ValueError):
            system.admission.submit(burst(1, start=1.0))

    def test_arrival_registers_everywhere(self):
        system = make_system()
        system.submit(burst(2))
        assert system.unfinished == 2
        system.run(until=0.0)  # deliver the arrival events only
        assert all(r in system.tracker for r in (0, 1))

    def test_tick_clock_only_for_ticking_schedulers(self):
        system = make_system()  # SGLang: tick_interval None
        system.submit(burst(1))
        system.run(until=0.0)  # deliver the arrival event
        assert system.admission.tick_event is None
        ticking = make_system(scheduler=TokenFlowScheduler())
        ticking.submit(burst(1))
        ticking.run(until=0.0)
        assert ticking.admission.tick_event is not None


class TestBatchComposer:
    def test_min_buffer_memo_shared_within_iteration(self):
        system = make_system()
        system.submit(burst(2, output=64))
        system.run(until=0.5)
        composer = system.composer
        composer.iter_min_buffer = None
        if system.running:
            first = composer.min_running_buffer()
            # Second call must hit the memo (same object, not recompute).
            assert composer.min_running_buffer() == first
            assert composer.iter_min_buffer == first

    def test_decode_batch_respects_max_batch(self):
        system = make_system(max_batch=2)
        system.submit(burst(6, prompt=32, output=64))
        system.run(until=2.0)
        if system.running:
            batch = system.composer.plan_decode()
            assert len(batch) <= 2

    def test_full_run_matches_monolith_metrics(self):
        """End-to-end smoke: the staged loop still finishes workloads
        with the exact accounting invariants of the old monolith."""
        system = make_system(scheduler=TokenFlowScheduler())
        system.submit(burst(8, output=32))
        system.run(until=10_000.0)
        report = system.report()
        assert report.n_finished == 8
        assert report.total_tokens == 8 * 32


class TestMemoryPressureStage:
    def test_write_priority_orders_by_buffer(self):
        system = make_system()
        system.submit(burst(2, output=64))
        system.run(until=5.0)
        now = system.engine.now()
        priority = system.memory.write_priority_at(now)
        for req_id in (0, 1):
            if req_id in system.tracker:
                assert priority(req_id) == system.tracker.buffer_seconds(
                    req_id, now
                )

    def test_resolve_deficit_noop_without_pressure(self):
        system = make_system(mem_frac=0.2)
        system.submit(burst(2, output=8))
        system.run(until=2.0)
        batch = list(system.running)
        growth = {r.req_id: 0 for r in batch}
        assert system.memory.resolve_deficit(batch, growth) == batch


class TestDecodeStream:
    def test_last_token_time_feeds_makespan(self):
        system = make_system()
        system.submit(burst(1, prompt=64, output=8))
        system.run(until=1_000.0)
        stream = system.decode_stream
        assert stream.last_token_time > 0
        first = system.tracker.first_arrival()
        assert system.makespan() == pytest.approx(
            stream.last_token_time - first
        )

    def test_finish_fires_session_callback(self):
        system = make_system()
        done = []
        system.on_request_finished = lambda r: done.append(r.req_id)
        system.submit(burst(2, output=8))
        system.run(until=1_000.0)
        assert sorted(done) == [0, 1]
