"""Serving-system configuration.

Pins the hardware, model, memory split, batching, and KV-manager
behaviour of one serving instance.  Schedulers are configured
separately and passed alongside the config, so the same
:class:`ServingConfig` can be reused across policies in a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.gpu.hardware import HardwareSpec, get_hardware
from repro.gpu.models import ModelSpec, get_model
from repro.memory.kv_manager import KVManagerConfig


@dataclass
class ServingConfig:
    """Static configuration of one serving instance.

    Attributes:
        hardware: hardware spec or its name (e.g. "h200").
        model: model spec or its name (e.g. "llama3-8b").
        mem_frac: fraction of device memory given to the KV pool.
            ``None`` derives it from what is left after weights (with
            a 10 % reserve for activations/fragmentation).  The paper's
            H200 experiments start at 0.3 (§7.3).
        block_size: tokens per KV block.
        max_batch: hard cap on concurrent decode requests.
        max_prefill_tokens: per-iteration prefill token budget.
        prefill_chunk_size: chunk size when chunking is active (the
            scheduler asks for it with ``wants_chunked_prefill``, as
            SGLang-chunked does).
        kv: KV-manager behaviour switches (Table 2 ablations).
        retain_per_request: keep every finished request's tracker entry
            (and its :class:`~repro.serving.metrics.RequestMetrics`
            row) until report time — the exact historical pipeline,
            and the default.  ``False`` switches the run to streaming
            telemetry: finished requests retire into a
            :class:`~repro.serving.metrics.StreamingRunStats`
            accumulator (exact counts/sums, sketch-backed TTFT/stall
            percentiles) the moment they complete, so memory stays
            O(active requests) — the soak scenarios' mode.  Per-token
            trace export and per-request report rows need the default.
        record_token_traces: keep per-token generation/consumption
            timestamp lists on every client buffer.  Metrics and QoS
            need only the compact occupancy aggregates, so this is off
            by default (memory stays O(1) per request and the delivery
            hot path skips three list appends per token) without
            changing any :class:`~repro.serving.metrics.RunReport`
            number; JSONL token-trace export and occupancy-series
            plots need it on.
        timeline_cap: sample-count bound for the (t, queued, running)
            timeline; above it samples are decimated 2:1 and the
            sampling stride doubles (long runs stop growing without
            bound).
    """

    hardware: Union[str, HardwareSpec] = "h200"
    model: Union[str, ModelSpec] = "llama3-8b"
    mem_frac: Optional[float] = None
    block_size: int = 16
    max_batch: int = 128
    max_prefill_tokens: int = 8192
    prefill_chunk_size: int = 2048
    kv: KVManagerConfig = field(default_factory=KVManagerConfig)
    retain_per_request: bool = True
    record_token_traces: bool = False
    timeline_cap: int = 65536

    def __post_init__(self) -> None:
        if isinstance(self.hardware, str):
            self.hardware = get_hardware(self.hardware)
        if isinstance(self.model, str):
            self.model = get_model(self.model)
        if self.mem_frac is not None and not 0 < self.mem_frac < 1:
            raise ValueError("mem_frac must be in (0, 1)")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_prefill_tokens <= 0:
            raise ValueError("max_prefill_tokens must be positive")
        if self.prefill_chunk_size <= 0:
            raise ValueError("prefill_chunk_size must be positive")
        if self.timeline_cap < 2:
            raise ValueError("timeline_cap must be at least 2")
        if self.record_token_traces and not self.retain_per_request:
            raise ValueError(
                "record_token_traces needs retain_per_request: streaming "
                "telemetry drops each request's traces at retirement"
            )
        # Keep the KV config's block size consistent with ours, on a
        # copy: the caller's frozen KVManagerConfig may be shared.
        if self.kv.block_size != self.block_size:
            self.kv = replace(self.kv, block_size=self.block_size)
        if self.resolved_mem_frac() <= 0:
            raise ValueError(
                f"model {self.model.name} weights do not leave KV room on "
                f"{self.hardware.name}"
            )

    def resolved_mem_frac(self) -> float:
        """The KV pool's share of device memory."""
        if self.mem_frac is not None:
            return self.mem_frac
        leftover = 1.0 - self.model.weight_bytes / self.hardware.mem_capacity_bytes
        return max(0.0, leftover - 0.10)

    def kv_pool_bytes(self) -> float:
        return self.hardware.mem_capacity_bytes * self.resolved_mem_frac()

    def kv_capacity_tokens(self) -> int:
        """Tokens of KV cache the GPU pool can hold."""
        return int(self.kv_pool_bytes() // self.model.kv_bytes_per_token)

    def kv_capacity_blocks(self) -> int:
        capacity = self.kv_capacity_tokens() // self.block_size
        if capacity <= 0:
            raise ValueError(
                f"KV pool too small: {self.kv_pool_bytes():.2e} bytes holds no "
                f"{self.block_size}-token block of {self.model.name}"
            )
        return capacity
