"""Unit tests for the roofline latency model."""

import pytest

from repro.gpu.hardware import get_hardware
from repro.gpu.latency import LatencyModel
from repro.gpu.models import get_model


@pytest.fixture
def h200_llama() -> LatencyModel:
    return LatencyModel(get_hardware("h200"), get_model("llama3-8b"))


@pytest.fixture
def rtx4090_llama() -> LatencyModel:
    return LatencyModel(get_hardware("rtx4090"), get_model("llama3-8b"))


class TestPrefill:
    def test_zero_tokens_is_free(self, h200_llama):
        assert h200_llama.prefill_time([]) == 0.0
        assert h200_llama.prefill_time([0]) == 0.0

    def test_monotone_in_tokens(self, h200_llama):
        assert h200_llama.prefill_time([2048]) > h200_llama.prefill_time([512])

    def test_quadratic_attention_term(self, h200_llama):
        # One 4096-token prompt costs more than four 1024-token prompts
        # (equal linear FLOPs; the n^2 attention term differs).
        single = h200_llama.prefill_time([4096])
        split = h200_llama.prefill_time([1024] * 4)
        assert single > split

    def test_negative_tokens_rejected(self, h200_llama):
        with pytest.raises(ValueError):
            h200_llama.prefill_time([-5])

    def test_h200_faster_than_4090(self, h200_llama, rtx4090_llama):
        assert h200_llama.prefill_time([2048]) < rtx4090_llama.prefill_time([2048])


class TestDecode:
    def test_empty_batch_is_free(self, h200_llama):
        assert h200_llama.decode_step_time([]) == 0.0

    def test_single_stream_speed_plausible(self, h200_llama):
        # H200 + 8B fp16 should decode well over 100 tokens/s single-stream.
        step = h200_llama.decode_step_time([512])
        assert 1.0 / step > 100.0

    def test_4090_single_stream_slower(self, rtx4090_llama):
        step = rtx4090_llama.decode_step_time([512])
        assert 20.0 < 1.0 / step < 100.0

    def test_bandwidth_bound_at_small_batch(self, h200_llama):
        # Doubling a small batch barely changes the step time (weights
        # dominate), so throughput nearly doubles.
        t1 = h200_llama.decode_step_time([512])
        t2 = h200_llama.decode_step_time([512, 512])
        assert t2 < 1.2 * t1

    def test_kv_reads_grow_with_context(self, h200_llama):
        assert h200_llama.decode_step_time([8192] * 16) > h200_llama.decode_step_time([256] * 16)

    def test_negative_context_rejected(self, h200_llama):
        with pytest.raises(ValueError):
            h200_llama.decode_step_time([-1])

    def test_batching_improves_throughput(self, h200_llama):
        assert h200_llama.decode_throughput(32, 1024) > h200_llama.decode_throughput(1, 1024)

    def test_derived_constants_match_the_specs(self, h200_llama):
        # Derived once at construction; the roofline floats must be the
        # ones the spec properties give, bit for bit.
        model, hardware = h200_llama.model, h200_llama.hardware
        for total, batch in [(512, 1), (40_000, 87), (3, 400)]:
            kv_bytes = model.kv_bytes_per_token * float(total)
            mem_time = (model.weight_bytes + kv_bytes) / hardware.effective_mem_bandwidth
            compute_time = model.flops_per_token * batch / hardware.effective_flops
            expected = max(mem_time, compute_time) + hardware.iteration_overhead_s
            assert h200_llama.decode_step_time_from_total(total, batch) == expected
        assert h200_llama == LatencyModel(hardware, model)

    def test_throughput_zero_batch(self, h200_llama):
        assert h200_llama.decode_throughput(0, 1024) == 0.0


class TestTransfersAndRecompute:
    def test_transfer_time_linear(self, h200_llama):
        assert h200_llama.transfer_time(2000) == pytest.approx(
            2 * h200_llama.transfer_time(1000)
        )

    def test_transfer_negative_rejected(self, h200_llama):
        with pytest.raises(ValueError):
            h200_llama.transfer_time(-1)

    def test_load_beats_recompute_on_h200(self, h200_llama):
        # The §4.2.3 crossover: with idle PCIe, loading 2k tokens of KV
        # is much cheaper than re-prefilling them.
        ctx = 2048
        assert h200_llama.transfer_time(ctx) < h200_llama.recompute_time(ctx)

    def test_recompute_equals_prefill(self, h200_llama):
        assert h200_llama.recompute_time(1024) == h200_llama.prefill_time([1024])
