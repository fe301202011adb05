"""Unit + behaviour tests for the FastServe-style MLFQ baseline."""

from repro.baselines import MLFQScheduler, SGLangScheduler
from repro.baselines.mlfq import BASE_QUANTUM_TOKENS, N_LEVELS, SKIP_JOIN_THRESHOLD
from repro.experiments.runner import run_comparison
from repro.memory.kv_manager import KVManagerConfig
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec
from repro.workload.lengths import NormalLengthSampler
from repro.workload.request import Request


def run_system(scheduler, requests, mem_frac=0.002, max_batch=4):
    config = ServingConfig(
        hardware="h200", model="llama3-8b", mem_frac=mem_frac,
        max_batch=max_batch, kv=KVManagerConfig(enable_offload=False),
    )
    system = ServingSystem(config, scheduler)
    system.submit(requests)
    system.run(until=50_000.0)
    assert system.unfinished == 0
    return system


def burst(n, prompt=128, output=128, rate=10.0):
    return [
        Request(req_id=i, arrival_time=0.0, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


class TestLevels:
    def test_skip_join_by_prompt_length(self):
        scheduler = MLFQScheduler()
        assert scheduler.initial_level(SKIP_JOIN_THRESHOLD - 1) == 0
        assert scheduler.initial_level(SKIP_JOIN_THRESHOLD) == 1
        assert scheduler.initial_level(2 * SKIP_JOIN_THRESHOLD) == 2
        assert scheduler.initial_level(99_999) == N_LEVELS - 1  # clamped

    def test_quantum_doubles_per_level(self):
        scheduler = MLFQScheduler()
        assert scheduler.quantum(0) == BASE_QUANTUM_TOKENS
        assert scheduler.quantum(2) == 4 * BASE_QUANTUM_TOKENS

    def test_demotion_after_quantum(self):
        scheduler = MLFQScheduler()
        request = Request(req_id=0, arrival_time=0.0, prompt_len=64,
                          output_len=64, rate=10.0)
        assert scheduler.level_of(request) == 0
        request.generated = BASE_QUANTUM_TOKENS + 1  # beyond the level-0 quantum
        scheduler.note_progress(request)
        assert scheduler.level_of(request) == 1

    def test_no_demotion_below_last_level(self):
        scheduler = MLFQScheduler()
        request = Request(req_id=0, arrival_time=0.0, prompt_len=64,
                          output_len=64, rate=10.0)
        scheduler.level_of(request)
        for _ in range(N_LEVELS + 1):
            request.generated += scheduler.quantum(N_LEVELS - 1)
            scheduler.note_progress(request)
        assert scheduler.level_of(request) == N_LEVELS - 1


class TestBehaviour:
    def test_completes_burst(self):
        system = run_system(MLFQScheduler(), burst(10, prompt=256, output=256))
        assert system.report().n_finished == 10

    def test_short_prompts_finish_before_long_under_pressure(self):
        """Skip-join favours short prompts: their mean TTFT is lower."""
        short = [Request(req_id=i, arrival_time=0.0, prompt_len=128,
                         output_len=128, rate=10.0) for i in range(6)]
        long_ = [Request(req_id=100 + i, arrival_time=0.0, prompt_len=1400,
                         output_len=128, rate=10.0) for i in range(6)]
        system = run_system(MLFQScheduler(), short + long_, mem_frac=0.003)
        report = system.report()
        short_ttft = [m.ttft for m in report.per_request if m.req_id < 100]
        long_ttft = [m.ttft for m in report.per_request if m.req_id >= 100]
        assert sum(short_ttft) / len(short_ttft) < sum(long_ttft) / len(long_ttft)

    def test_recompute_based_restore(self):
        system = run_system(MLFQScheduler(), burst(12, prompt=256, output=384))
        assert system.kv.stats["loads"] == 0

    def test_factory_integration(self):
        spec = WorkloadSpec(
            arrival="burst", n_requests=8,
            lengths=NormalLengthSampler(prompt_mean=128, prompt_std=16,
                                        output_mean=96, output_std=16),
            rates=RateMixture.fixed(10.0),
        )
        requests = WorkloadBuilder(spec, RngStreams(0)).build()
        reports = run_comparison(("mlfq", "tokenflow"), requests,
                                 mem_frac=0.01, max_batch=8)
        assert reports["mlfq"].n_finished == 8

    def test_buffer_agnostic_contrast_with_tokenflow(self):
        """MLFQ knows nothing about buffers: under a burst TokenFlow
        matches or beats its effective throughput."""
        spec = WorkloadSpec(
            arrival="burst", n_requests=40, burst_spread=0.25,
            rates=RateMixture.fixed(10.0),
        )
        requests = WorkloadBuilder(spec, RngStreams(1)).build()
        reports = run_comparison(("mlfq", "tokenflow"), requests,
                                 mem_frac=0.02, max_batch=16)
        assert (
            reports["tokenflow"].effective_throughput
            >= 0.95 * reports["mlfq"].effective_throughput
        )
