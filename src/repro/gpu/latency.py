"""Roofline latency model for prefill and decode iterations.

Prefill is compute-bound: time ≈ FLOPs / effective FLOP/s, with a
quadratic attention term that matters for long prompts.  Decode is
memory-bandwidth-bound at serving batch sizes: every step streams the
full weight matrix plus each request's KV cache from device memory;
compute only takes over at very large batches.  This reproduces the
batch-size/throughput trade-off the paper's scheduler exploits
(§3.3 "Batch Size vs Decode Speed").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.gpu.hardware import HardwareSpec
from repro.gpu.models import ModelSpec


@dataclass(frozen=True)
class LatencyModel:
    """Analytical iteration-latency model for one (hardware, model) pair."""

    hardware: HardwareSpec
    model: ModelSpec
    # Roofline constants, derived once from the (frozen) specs: the
    # decode walk reads them once per fused iteration.
    kv_bytes_per_token: int = field(init=False, repr=False, compare=False)
    weight_bytes: float = field(init=False, repr=False, compare=False)
    effective_mem_bandwidth: float = field(init=False, repr=False, compare=False)
    flops_per_token: float = field(init=False, repr=False, compare=False)
    effective_flops: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        derived = {
            "kv_bytes_per_token": self.model.kv_bytes_per_token,
            "weight_bytes": self.model.weight_bytes,
            "effective_mem_bandwidth": self.hardware.effective_mem_bandwidth,
            "flops_per_token": self.model.flops_per_token,
            "effective_flops": self.hardware.effective_flops,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def prefill_time(self, prompt_tokens: Sequence[int]) -> float:
        """Duration of a prefill iteration over a batch of prompts.

        Args:
            prompt_tokens: number of tokens each request contributes to
                this prefill iteration (full prompt, or a chunk of it).
        """
        total_tokens = sum(prompt_tokens)
        if total_tokens < 0:
            raise ValueError("prompt token counts must be non-negative")
        if total_tokens == 0:
            return 0.0
        linear_flops = self.flops_per_token * total_tokens
        # Self-attention score/context matmuls: ~4 * layers * hidden *
        # n^2 FLOPs per request (quadratic in its own prompt length).
        attn_flops = sum(
            4.0 * self.model.n_layers * self.model.hidden_size * float(n) * float(n)
            for n in prompt_tokens
        )
        compute_time = (linear_flops + attn_flops) / self.effective_flops
        return compute_time + self.hardware.iteration_overhead_s

    def decode_step_time(self, context_lengths: Iterable[int]) -> float:
        """Duration of one decode iteration (one token per request).

        Args:
            context_lengths: current context length of each request in
                the running batch.
        """
        lengths = list(context_lengths)
        if not lengths:
            return 0.0
        total = 0
        for length in lengths:
            if length < 0:
                raise ValueError("context lengths must be non-negative")
            total += length
        return self.decode_step_time_from_total(total, len(lengths))

    def decode_step_time_from_total(self, total_context: int, batch: int) -> float:
        """:meth:`decode_step_time` from the summed context length.

        The single copy of the decode roofline float sequence: both the
        per-iteration executor path and the fused macro-step walk (which
        advances ``total_context`` by ``batch`` per iteration in closed
        form) route through here, so their completion instants can never
        drift apart.
        """
        kv_bytes = self.kv_bytes_per_token * float(total_context)
        mem_time = (self.weight_bytes + kv_bytes) / self.effective_mem_bandwidth
        compute_time = self.flops_per_token * batch / self.effective_flops
        return max(mem_time, compute_time) + self.hardware.iteration_overhead_s

    def decode_throughput(self, batch: int, avg_context: int) -> float:
        """Steady-state tokens/s for a homogeneous batch (for sizing)."""
        if batch <= 0:
            return 0.0
        step = self.decode_step_time([avg_context] * batch)
        return batch / step if step > 0 else float("inf")

    def recompute_time(self, context_length: int) -> float:
        """Time to re-prefill a preempted request's full context."""
        return self.prefill_time([context_length])

    def transfer_time(self, n_tokens: int) -> float:
        """PCIe time to move ``n_tokens`` of KV cache one way."""
        if n_tokens < 0:
            raise ValueError("n_tokens must be non-negative")
        nbytes = self.kv_bytes_per_token * float(n_tokens)
        return nbytes / self.hardware.pcie_bytes_per_s
