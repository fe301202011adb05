"""Unit tests for the baseline schedulers (SGLang, chunked, Andes)."""

from repro.baselines import AndesScheduler, SGLangChunkedScheduler, SGLangScheduler
from repro.memory.kv_manager import KVManagerConfig
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.workload.request import Request


def burst(n, prompt=64, output=64, rate=10.0):
    return [
        Request(req_id=i, arrival_time=0.0, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def run_system(scheduler, n=8, prompt=64, output=128, rate=10.0,
               mem_frac=0.002, max_batch=4, offload=False):
    # Baselines have no hierarchical offload: preemptions drop the KV
    # cache (recompute-based restore), matching the paper's wiring.
    config = ServingConfig(
        hardware="h200", model="llama3-8b", mem_frac=mem_frac,
        max_batch=max_batch, kv=KVManagerConfig(enable_offload=offload),
    )
    system = ServingSystem(config, scheduler)
    system.submit(burst(n, prompt=prompt, output=output, rate=rate))
    system.run(until=10_000.0)
    assert system.unfinished == 0
    return system


class TestSGLang:
    def test_no_periodic_tick(self):
        assert SGLangScheduler().tick_interval is None

    def test_completes_burst_fcfs(self):
        system = run_system(SGLangScheduler())
        report = system.report()
        assert report.n_finished == 8
        # Pure FCFS without memory pressure preemptions: TTFTs follow
        # arrival (= req_id) order.
        ttfts = {m.req_id: m.ttft for m in report.per_request}
        ordered = [ttfts[i] for i in range(8)]
        assert ordered == sorted(ordered)

    def test_head_of_line_blocking_under_memory_pressure(self):
        """Later requests wait for earlier ones: P99 TTFT >> P50."""
        system = run_system(SGLangScheduler(), n=24, prompt=256, output=256)
        report = system.report()
        assert report.ttft_p99 > 1.8 * report.ttft_p50

    def test_scheduling_cost_tiny(self):
        assert SGLangScheduler().scheduling_cost_s() < 1e-3


class TestSGLangChunked:
    def test_wants_chunked_prefill(self):
        assert SGLangChunkedScheduler.wants_chunked_prefill

    def test_completes_burst(self):
        system = run_system(SGLangChunkedScheduler(), n=8, prompt=256)
        assert system.report().n_finished == 8
        # Chunked prefill ran more (smaller) prefill iterations than
        # whole-prompt prefill would need.
        assert system.executor.stats.prefill_iterations >= 2


class TestAndes:
    def test_completes_burst(self):
        system = run_system(AndesScheduler(), n=10, prompt=256, output=256)
        assert system.report().n_finished == 10

    def test_preempts_under_pressure(self):
        system = run_system(AndesScheduler(), n=12, prompt=256, output=512)
        assert system.report().preemptions > 0

    def test_recompute_based_restore(self):
        """Andes drops KV on preemption: loads never happen."""
        system = run_system(AndesScheduler(), n=12, prompt=256, output=512)
        assert system.kv.stats["loads"] == 0
        assert system.kv.stats["recompute_drops"] >= 1

    def test_improves_ttft_over_sglang_in_burst(self):
        sglang = run_system(SGLangScheduler(), n=16, prompt=256, output=512)
        andes = run_system(AndesScheduler(), n=16, prompt=256, output=512)
        assert andes.report().ttft_p99 < sglang.report().ttft_p99

    def test_loses_throughput_to_sglang(self):
        """The paper's observation: recompute preemption wastes compute."""
        sglang = run_system(SGLangScheduler(), n=16, prompt=256, output=512)
        andes = run_system(AndesScheduler(), n=16, prompt=256, output=512)
        assert andes.report().throughput <= sglang.report().throughput * 1.05
