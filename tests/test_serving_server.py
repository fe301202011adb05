"""Unit tests for the serving loop."""

import pytest

from repro.baselines import SGLangChunkedScheduler, SGLangScheduler
from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.workload.request import Request, RequestState


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


class TestSubmission:
    def test_past_arrival_rejected(self):
        system = make_system()
        system.run(until=5.0)
        with pytest.raises(ValueError):
            system.submit(burst(1, start=1.0))

    def test_unfinished_counter(self):
        system = make_system()
        system.submit(burst(3))
        assert system.unfinished == 3
        system.run(until=10_000.0)
        assert system.unfinished == 0


class TestSingleRequest:
    def test_lifecycle_and_metrics(self):
        system = make_system()
        system.submit(burst(1, prompt=128, output=16))
        system.run(until=1_000.0)
        report = system.report()
        assert report.n_finished == 1
        metrics = report.per_request[0]
        assert metrics.generated == 16
        assert metrics.ttft is not None and metrics.ttft > 0
        assert metrics.finish_time is not None

    def test_first_token_comes_from_prefill(self):
        system = make_system()
        system.submit(burst(1, prompt=512, output=8))
        system.run(until=1_000.0)
        entry = system.tracker.get(0)
        # TTFT equals the first prefill completion, which must cost at
        # least the latency model's prefill time.
        min_prefill = system.latency.prefill_time([512])
        assert entry.request.ttft >= min_prefill * 0.9

    def test_token_timestamps_monotone(self):
        system = make_system(record_token_traces=True)
        system.submit(burst(1, output=32))
        system.run(until=1_000.0)
        times = system.tracker.get(0).buffer.generation_times
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert len(times) == 32

    def test_memory_released_after_finish(self):
        system = make_system()
        system.submit(burst(1, output=8))
        system.run(until=1_000.0)
        assert system.kv.gpu_pool.used == 0


class TestBatching:
    def test_concurrent_decode(self):
        system = make_system(max_batch=8)
        system.submit(burst(4, output=64))
        system.run(until=1_000.0)
        stats = system.executor.stats
        # 4 requests of 64 tokens each decode mostly together: far
        # fewer decode iterations than total tokens.
        assert stats.decode_iterations < 4 * 64

    def test_max_batch_respected_in_decode(self):
        system = make_system(max_batch=2)
        system.submit(burst(6, output=64))
        system.run(until=10_000.0)
        assert system.report().n_finished == 6

    def test_staggered_arrivals(self):
        system = make_system()
        early = burst(2, output=32)
        late = [
            Request(req_id=10 + i, arrival_time=5.0, prompt_len=64,
                    output_len=32, rate=10.0)
            for i in range(2)
        ]
        system.submit(early + late)
        system.run(until=10_000.0)
        report = system.report()
        assert report.n_finished == 4


class TestMemoryPressure:
    def test_oom_triggers_reactive_preemption(self):
        system = make_system(mem_frac=0.002, max_batch=8)
        system.submit(burst(8, prompt=256, output=512))
        system.run(until=10_000.0)
        report = system.report()
        assert report.n_finished == 8
        # Reactive preemption (or admission blocking) must have kicked
        # in; with this little memory all 8 cannot be resident at once.
        assert report.preemptions > 0 or report.ttft_p99 > report.ttft_p50

    def test_tokenflow_preempts_and_resumes(self):
        system = make_system(
            scheduler=TokenFlowScheduler(), mem_frac=0.002, max_batch=4
        )
        system.submit(burst(10, prompt=256, output=256))
        system.run(until=10_000.0)
        report = system.report()
        assert report.n_finished == 10
        assert report.preemptions > 0
        assert system.kv.stats["loads"] + system.offload.stats["recomputes"] > 0


class TestChunkedPrefill:
    def test_chunked_config_splits_prompts(self):
        system = make_system(scheduler=SGLangChunkedScheduler(),
                             prefill_chunk_size=128)
        system.submit(burst(1, prompt=512, output=8))
        system.run(until=1_000.0)
        assert system.executor.stats.prefill_iterations >= 4


class TestTimeline:
    def test_timeline_sampled(self):
        system = make_system()
        system.submit(burst(4, output=32))
        system.run(until=1_000.0)
        assert len(system.timeline) > 0
        times = [t for t, _, _ in system.timeline]
        assert times == sorted(times)

    def test_makespan_positive(self):
        system = make_system()
        system.submit(burst(2, output=16))
        system.run(until=1_000.0)
        assert system.makespan() > 0

    def test_report_contains_stats(self):
        system = make_system()
        system.submit(burst(2, output=16))
        system.run(until=1_000.0)
        report = system.report()
        assert "decode_iterations" in report.executor_stats
        assert "pcie_utilisation" in report.kv_stats
        assert report.scheduler_stats["name"] == "sglang"
