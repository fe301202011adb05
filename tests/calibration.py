"""Roofline calibration checks against published serving numbers.

The substitution argument (DESIGN.md §2) holds only if the latency
model lands in the right *regimes*: single-stream decode speeds in the
published ballpark, batch scaling saturating where memory bandwidth
says it must, prefill far faster per token than decode, and PCIe
transfers cheaper than recompute for contexts past a small crossover.
This helper computes those checkpoints from a
:class:`~repro.gpu.latency.LatencyModel` so the tests can verify a
hardware/model pairing behaves sanely.  No simulation run reads these
operating points, so they live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.hardware import HardwareSpec
from repro.gpu.latency import LatencyModel
from repro.gpu.models import ModelSpec


def decode_throughput(latency: LatencyModel, batch: int, avg_context: int) -> float:
    """Steady-state tokens/s for a homogeneous batch."""
    if batch <= 0:
        return 0.0
    step = latency.decode_step_time([avg_context] * batch)
    return batch / step if step > 0 else float("inf")


def recompute_time(latency: LatencyModel, context_length: int) -> float:
    """Time to re-prefill a preempted request's full context."""
    return latency.prefill_time([context_length])


def transfer_time(latency: LatencyModel, n_tokens: int) -> float:
    """PCIe time to move ``n_tokens`` of KV cache one way."""
    if n_tokens < 0:
        raise ValueError("n_tokens must be non-negative")
    nbytes = latency.kv_bytes_per_token * float(n_tokens)
    return nbytes / latency.hardware.pcie_bytes_per_s


@dataclass(frozen=True)
class CalibrationReport:
    """Key operating points of one (hardware, model) pairing."""

    hardware: str
    model: str
    single_stream_tok_s: float       # decode speed, batch 1, ctx 512
    batch32_tok_s: float             # decode throughput, batch 32
    batch_scaling: float             # batch32 / single-stream
    prefill_tok_s: float             # prefill rate on a 2k prompt
    prefill_to_decode_ratio: float   # per-token prefill vs decode cost
    load_vs_recompute_crossover: int  # ctx tokens where load wins
    weights_fit: bool                # weights fit in device memory

    def rows(self) -> list:
        return [
            ["single-stream decode (tok/s)", round(self.single_stream_tok_s, 1)],
            ["batch-32 decode (tok/s)", round(self.batch32_tok_s, 1)],
            ["batch-32 scaling (x)", round(self.batch_scaling, 1)],
            ["prefill rate (tok/s)", round(self.prefill_tok_s, 0)],
            ["prefill/decode per-token speedup", round(self.prefill_to_decode_ratio, 1)],
            ["load-beats-recompute from ctx", self.load_vs_recompute_crossover],
            ["weights fit in memory", self.weights_fit],
        ]


def _load_recompute_crossover(latency: LatencyModel, limit: int = 65536) -> int:
    """Smallest context where loading KV beats recomputing it.

    With compute-bound prefill and bandwidth-bound PCIe both linear in
    context length, the comparison is scale-free; the fixed prefill
    iteration overhead is what loading must amortise, so the crossover
    sits at small contexts. Returns ``limit`` if recompute always wins.
    """
    low, high = 1, limit
    if transfer_time(latency, high) >= recompute_time(latency, high):
        return limit
    while low < high:
        mid = (low + high) // 2
        if transfer_time(latency, mid) < recompute_time(latency, mid):
            high = mid
        else:
            low = mid + 1
    return low


def calibrate(hardware: HardwareSpec, model: ModelSpec) -> CalibrationReport:
    """Compute the calibration checkpoints for one pairing."""
    latency = LatencyModel(hardware, model)
    single = 1.0 / latency.decode_step_time([512])
    batch32 = decode_throughput(latency, 32, 512)
    prefill_time = latency.prefill_time([2048])
    prefill_rate = 2048.0 / prefill_time if prefill_time > 0 else float("inf")
    decode_per_token = latency.decode_step_time([2048])
    prefill_per_token = prefill_time / 2048.0
    return CalibrationReport(
        hardware=hardware.name,
        model=model.name,
        single_stream_tok_s=single,
        batch32_tok_s=batch32,
        batch_scaling=batch32 / single if single > 0 else float("inf"),
        prefill_tok_s=prefill_rate,
        prefill_to_decode_ratio=decode_per_token / prefill_per_token,
        load_vs_recompute_crossover=_load_recompute_crossover(latency),
        weights_fit=model.weight_bytes < hardware.mem_capacity_bytes,
    )


def sanity_check(report: CalibrationReport) -> list:
    """Return a list of violated expectations (empty = healthy).

    Thresholds encode what any credible LLM-serving deployment shows:
    meaningful batch scaling, prefill ≫ decode per token, and a
    load-vs-recompute crossover well below typical context lengths.
    """
    problems: list = []
    if not report.weights_fit:
        problems.append("model weights exceed device memory")
    if report.single_stream_tok_s < 5.0:
        problems.append(
            f"single-stream decode {report.single_stream_tok_s:.1f} tok/s "
            "is implausibly slow"
        )
    if report.batch_scaling < 4.0:
        problems.append(
            f"batch-32 scaling {report.batch_scaling:.1f}x is too flat "
            "(decode should be bandwidth-bound at small batch)"
        )
    if report.prefill_to_decode_ratio < 10.0:
        problems.append(
            "prefill is not clearly cheaper per token than decode"
        )
    if report.load_vs_recompute_crossover > 8192:
        problems.append(
            "KV loading never beats recompute below 8k context — PCIe "
            "or prefill calibration is off"
        )
    return problems
