"""Property-based tests for the roofline latency model.

The scheduler's decisions rest on a handful of monotonicity and
linearity facts about the timing model; these pin them across random
batch compositions and all paper hardware/model pairings.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.gpu.hardware import HARDWARE_SPECS, get_hardware
from repro.gpu.latency import LatencyModel
from repro.gpu.models import MODEL_SPECS, get_model

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

PAIRINGS = [
    (hw, model)
    for hw in ("h200", "rtx4090", "a6000", "ascend910b")
    for model in ("llama3-8b", "qwen2-7b")
]

contexts = st.lists(st.integers(min_value=1, max_value=8192),
                    min_size=1, max_size=32)


def model_for(pair):
    hw, model = pair
    return LatencyModel(get_hardware(hw), get_model(model))


class TestDecodeProperties:
    @given(ctx=contexts, pair=st.sampled_from(PAIRINGS))
    @settings(max_examples=150, deadline=None)
    def test_decode_time_positive_and_finite(self, ctx, pair):
        step = model_for(pair).decode_step_time(ctx)
        assert 0 < step < 10.0

    @given(ctx=contexts, extra=st.integers(1, 4096),
           pair=st.sampled_from(PAIRINGS))
    @settings(max_examples=150, deadline=None)
    def test_decode_monotone_in_context(self, ctx, extra, pair):
        latency = model_for(pair)
        longer = list(ctx)
        longer[0] += extra
        assert latency.decode_step_time(longer) >= latency.decode_step_time(ctx)

    # Adding one long request can lower tokens/s in a memory-bound
    # step (here 3874.6 -> 3870.7 for a copy of the 7281-token head),
    # so the added request is at most the batch mean.
    @example(ctx=[7281] + [1] * 25, pair=("h200", "llama3-8b"), share=1.0)
    @given(ctx=contexts, pair=st.sampled_from(PAIRINGS),
           share=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_batching_never_reduces_step_throughput(self, ctx, pair, share):
        """Adding a request no longer than the batch mean never lowers
        tokens/s.  With step time ``max(W + b*S, c*n) + o`` over total
        context ``S`` and batch ``n``, an added ``s <= S/n`` gives
        ``n*(W + o + b*(S + s)) <= (n + 1)*(W + o + b*S)`` and
        ``n*c*(n + 1) = (n + 1)*c*n``, so neither regime loses."""
        latency = model_for(pair)
        base = len(ctx) / latency.decode_step_time(ctx)
        added = max(1, int(share * (sum(ctx) // len(ctx))))
        bigger = ctx + [added]
        grown = len(bigger) / latency.decode_step_time(bigger)
        assert grown >= base * 0.999


class TestPrefillProperties:
    @given(tokens=st.integers(1, 16384), pair=st.sampled_from(PAIRINGS))
    @settings(max_examples=150, deadline=None)
    def test_prefill_positive(self, tokens, pair):
        assert model_for(pair).prefill_time([tokens]) > 0

    @given(a=st.integers(1, 8192), b=st.integers(1, 8192),
           pair=st.sampled_from(PAIRINGS))
    @settings(max_examples=150, deadline=None)
    def test_prefill_superadditive_in_one_prompt(self, a, b, pair):
        """One long prompt costs at least as much as its two halves in
        one batch (quadratic attention), minus one iteration overhead."""
        latency = model_for(pair)
        whole = latency.prefill_time([a + b])
        split = latency.prefill_time([a, b])
        overhead = latency.hardware.iteration_overhead_s
        assert whole >= split - overhead - 1e-9

    @given(tokens=st.integers(64, 8192), pair=st.sampled_from(PAIRINGS))
    @settings(max_examples=100, deadline=None)
    def test_prefill_cheaper_per_token_than_decode(self, tokens, pair):
        latency = model_for(pair)
        prefill_per_token = latency.prefill_time([tokens]) / tokens
        decode_per_token = latency.decode_step_time([tokens])
        assert prefill_per_token < decode_per_token


class TestTransferProperties:
    @given(n=st.integers(0, 100_000), m=st.integers(0, 100_000),
           pair=st.sampled_from(PAIRINGS))
    @settings(max_examples=150, deadline=None)
    def test_transfer_additive(self, n, m, pair):
        latency = model_for(pair)
        combined = latency.transfer_time(n + m)
        parts = latency.transfer_time(n) + latency.transfer_time(m)
        assert combined == pytest.approx(parts, rel=1e-9, abs=1e-12)

    @given(n=st.integers(1, 100_000), pair=st.sampled_from(PAIRINGS))
    @settings(max_examples=100, deadline=None)
    def test_transfer_monotone(self, n, pair):
        latency = model_for(pair)
        assert latency.transfer_time(n + 1) > latency.transfer_time(n)
