"""Unit tests for the iteration-level executor."""

import pytest

from repro.gpu.executor import LLMExecutor
from repro.gpu.hardware import get_hardware
from repro.gpu.latency import LatencyModel
from repro.gpu.models import get_model


@pytest.fixture
def executor() -> LLMExecutor:
    latency = LatencyModel(get_hardware("h200"), get_model("llama3-8b"))
    return LLMExecutor(latency)


class TestPlanning:
    def test_prefill_plan(self, executor):
        result = executor.plan_prefill([(1, 512), (2, 256)])
        assert result.kind == "prefill"
        assert result.req_ids == (1, 2)
        assert result.tokens == 768
        assert result.duration > 0

    def test_decode_plan(self, executor):
        result = executor.plan_decode([(1, 512), (2, 1024)])
        assert result.kind == "decode"
        assert result.tokens == 2  # one token per request
        assert result.duration > 0

    def test_empty_batches_rejected(self, executor):
        with pytest.raises(ValueError):
            executor.plan_prefill([])
        with pytest.raises(ValueError):
            executor.plan_decode([])

    def test_planning_does_not_mutate_stats(self, executor):
        executor.plan_decode([(1, 512)])
        assert executor.stats.decode_iterations == 0


class TestAccounting:
    def test_commit_updates_totals(self, executor):
        executor.commit(executor.plan_prefill([(1, 512)]))
        executor.commit(executor.plan_decode([(1, 513)]))
        assert executor.stats.prefill_iterations == 1
        assert executor.stats.decode_iterations == 1
        assert executor.stats.prefill_tokens == 512
        assert executor.stats.decode_tokens == 1
        assert executor.stats.busy_time > 0

    def test_capacity_estimate_before_history(self, executor):
        assert executor.capacity_estimate() > 0

    def test_capacity_estimate_tracks_batch(self, executor):
        for _ in range(8):
            executor.commit(executor.plan_decode([(i, 512) for i in range(32)]))
        batched = executor.capacity_estimate()
        fresh = LLMExecutor(executor.latency)
        for _ in range(8):
            fresh.commit(fresh.plan_decode([(0, 512)]))
        single = fresh.capacity_estimate()
        assert batched > single

    def test_capacity_window_bounded(self, executor):
        for _ in range(LLMExecutor.CAPACITY_WINDOW + 10):
            executor.commit(executor.plan_decode([(0, 512)]))
        assert len(executor.stats.recent_decode) == LLMExecutor.CAPACITY_WINDOW


class TestChunking:
    def test_max_prefill_tokens_validated(self):
        latency = LatencyModel(get_hardware("h200"), get_model("llama3-8b"))
        with pytest.raises(ValueError):
            LLMExecutor(latency, max_prefill_tokens=0)
