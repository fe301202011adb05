"""Iteration-level LLM executor.

Plays the role of SGLang's model runner: given the current batch it
produces the duration of the next prefill or decode iteration from the
roofline latency model, plus running totals used by the throughput
metrics and the scheduler's Γ (capacity) estimate.

The executor is *planning-only*: the serving loop owns simulated time
and schedules the completion events; the executor never mutates
requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.gpu.latency import LatencyModel


@dataclass(frozen=True)
class IterationResult:
    """Timing plan for one executor iteration."""

    kind: str                # "prefill" or "decode"
    duration: float          # seconds
    req_ids: tuple           # participating request ids
    tokens: int              # tokens processed (prompt or generated)


@dataclass
class ExecutorStats:
    """Aggregate executor counters for a run."""

    prefill_iterations: int = 0
    decode_iterations: int = 0
    prefill_tokens: int = 0
    decode_tokens: int = 0
    busy_time: float = 0.0
    # Sliding window of recent decode steps for capacity estimation.
    recent_decode: list = field(default_factory=list)


class LLMExecutor:
    """Batched iteration planner over a latency model."""

    # Window length for the Γ (throughput capacity) estimate.
    CAPACITY_WINDOW = 32

    def __init__(self, latency: LatencyModel, max_prefill_tokens: int = 8192) -> None:
        if max_prefill_tokens <= 0:
            raise ValueError("max_prefill_tokens must be positive")
        self.latency = latency
        self.max_prefill_tokens = max_prefill_tokens
        self.stats = ExecutorStats()

    # --- planning ----------------------------------------------------------
    def plan_prefill(self, entries: Sequence) -> IterationResult:
        """Plan a prefill iteration.

        Args:
            entries: sequence of ``(req_id, n_tokens)`` pairs, where
                ``n_tokens`` is what each request prefills this
                iteration (full prompt or a chunk).
        """
        if not entries:
            raise ValueError("prefill batch must be non-empty")
        req_ids = tuple(req_id for req_id, _ in entries)
        token_counts = [n for _, n in entries]
        duration = self.latency.prefill_time(token_counts)
        return IterationResult(
            kind="prefill", duration=duration, req_ids=req_ids, tokens=sum(token_counts)
        )

    def plan_decode(self, contexts: Sequence) -> IterationResult:
        """Plan one decode step.

        Args:
            contexts: sequence of ``(req_id, context_len)`` pairs for
                the running batch; each generates one token.
        """
        if not contexts:
            raise ValueError("decode batch must be non-empty")
        req_ids = tuple([req_id for req_id, _ in contexts])
        duration = self.latency.decode_step_time([length for _, length in contexts])
        return IterationResult(
            kind="decode", duration=duration, req_ids=req_ids, tokens=len(contexts)
        )

    # --- accounting ----------------------------------------------------------
    def commit(self, result: IterationResult) -> None:
        """Record a completed iteration in the running totals."""
        self.stats.busy_time += result.duration
        if result.kind == "prefill":
            self.stats.prefill_iterations += 1
            self.stats.prefill_tokens += result.tokens
        else:
            self.stats.decode_iterations += 1
            self.stats.decode_tokens += result.tokens
            window = self.stats.recent_decode
            window.append((result.tokens, result.duration))
            if len(window) > self.CAPACITY_WINDOW:
                window.pop(0)

    def commit_fused(self, result: IterationResult, step_durations: Sequence) -> None:
        """Record ``len(step_durations)`` decode iterations in one call.

        Equivalent to committing one :class:`IterationResult` per fused
        iteration (same batch, per-iteration durations): busy time
        accumulates with the identical per-iteration float additions,
        and the capacity window ends with the exact entries the
        sequential appends would have left behind.
        """
        stats = self.stats
        k = len(step_durations)
        tokens = result.tokens
        for duration in step_durations:
            stats.busy_time += duration
        stats.decode_iterations += k
        stats.decode_tokens += tokens * k
        window = stats.recent_decode
        window.extend([(tokens, duration) for duration in step_durations])
        if len(window) > self.CAPACITY_WINDOW:
            del window[: len(window) - self.CAPACITY_WINDOW]

    def capacity_estimate(self) -> float:
        """Γ: recent decode throughput in tokens/s (paper §4.3).

        Falls back to the model's single-stream rate before any decode
        history exists.
        """
        window = self.stats.recent_decode
        if window:
            tokens = sum(t for t, _ in window)
            seconds = sum(d for _, d in window)
            if seconds > 0:
                return tokens / seconds
        step = self.latency.decode_step_time([512])
        return 1.0 / step if step > 0 else float("inf")
