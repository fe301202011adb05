"""Sliding-window runtime estimators (paper §4.2.3).

The scheduler prices recompute-based resumption (``t_recompute``) with
an online estimate of the per-token prefill latency, which is only
known after the fact.  It feeds the recompute-vs-load decision
``t_overhead = min(t_IO, t_recompute)``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class SlidingWindowMean:
    """Mean of the last ``window`` observations, O(1) per update."""

    def __init__(self, window: int = 32, initial: Optional[float] = None) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self._window = window
        self._values: deque = deque(maxlen=window)
        self._sum = 0.0
        self._initial = initial

    def observe(self, value: float) -> None:
        if len(self._values) == self._window:
            self._sum -= self._values[0]
        self._values.append(value)
        self._sum += value

    def mean(self) -> Optional[float]:
        if not self._values:
            return self._initial
        return self._sum / len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)


class PrefillCostEstimator:
    """Sliding-window-averaged per-token prefill latency (§4.2.3)."""

    def __init__(self, window: int = 32, initial_per_token: float = 50e-6) -> None:
        if initial_per_token <= 0:
            raise ValueError("initial_per_token must be positive")
        self._per_token = SlidingWindowMean(window, initial=initial_per_token)

    def observe_prefill(self, n_tokens: int, duration: float) -> None:
        """Record a completed prefill iteration."""
        if n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._per_token.observe(duration / n_tokens)

    def per_token(self) -> float:
        mean = self._per_token.mean()
        assert mean is not None  # initial value guarantees this
        return mean

    def estimate_recompute(self, context_tokens: int) -> float:
        """t_recompute for re-prefilling ``context_tokens``."""
        if context_tokens < 0:
            raise ValueError("context_tokens must be non-negative")
        return self.per_token() * context_tokens
