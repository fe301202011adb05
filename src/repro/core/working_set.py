"""Working-set determination and admission control (paper §4.2.1).

The working set is the group of requests the system actively serves —
possibly more than fit in GPU memory (overcommitment), with the excess
offloaded to the CPU pool.  Its size is bounded statically by hardware
(Eq. 4) and adjusted dynamically with demand (Eq. 5):

    W_static    = ⌊ M / β ⌋                                (Eq. 4)
    W_scheduled = W_static − λ·(W_static − N_running)      (Eq. 5)

where β is the estimated per-request memory footprint (learned online
from observed context lengths) and λ ∈ [0,1] controls how fast the
working set tracks demand.  Overcommitment multiplies the static bound
by ``overcommit_factor`` (the CPU pool absorbs the surplus).

Admission of a new request additionally requires that preempting an
existing request is *safe*: some running request must hold enough
buffered tokens to survive the swap —

    b_rem ≥ μ · r · (τ_evict + τ_load + τ_schedule)

with safety factor μ ≥ 1 ("buffer conservativeness", the Fig. 23
knob).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class WorkingSetParams:
    """Knobs for working-set sizing and admission.

    Attributes:
        overcommit_factor: how far the working set may exceed the
            GPU-resident capacity (CPU pool absorbs the rest).
        adjust_rate: λ of Eq. 5.
        safety_factor: μ — buffer conservativeness (Fig. 23).
        schedule_latency: τ_schedule, the scheduler interval share of
            the swap budget.
        beta_window: window of the per-request footprint estimator.
        initial_beta_tokens: footprint prior before observations.
    """

    overcommit_factor: float = 2.0
    adjust_rate: float = 0.5
    safety_factor: float = 2.0
    schedule_latency: float = 0.5
    beta_window: int = 64
    initial_beta_tokens: float = 1024.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.overcommit_factor) or self.overcommit_factor < 1.0:
            raise ValueError("overcommit_factor must be finite and >= 1")
        if not 0.0 <= self.adjust_rate <= 1.0:
            raise ValueError("adjust_rate must be in [0, 1]")
        if not math.isfinite(self.safety_factor) or self.safety_factor < 1.0:
            raise ValueError("safety_factor (mu) must be finite and >= 1")
        if not math.isfinite(self.schedule_latency) or self.schedule_latency < 0:
            raise ValueError("schedule_latency must be non-negative and finite")
        if self.beta_window <= 0:
            raise ValueError("beta_window must be positive")
        # beta() clamps the prior at 1: an infinite one would pin
        # W_static to 1 and a NaN or non-positive one would read as 1.
        if not math.isfinite(self.initial_beta_tokens) or self.initial_beta_tokens <= 0:
            raise ValueError("initial_beta_tokens must be positive and finite")


class WorkingSetPolicy:
    """Sizing + admission logic for the scheduler's working set."""

    def __init__(
        self,
        gpu_capacity_tokens: float,
        params: Optional[WorkingSetParams] = None,
    ) -> None:
        if gpu_capacity_tokens <= 0:
            raise ValueError("gpu_capacity_tokens must be positive")
        self.params = params if params is not None else WorkingSetParams()
        self._capacity_tokens = float(gpu_capacity_tokens)
        self._contexts: deque = deque(maxlen=self.params.beta_window)
        self._context_sum = 0

    # --- footprint estimation (β) -------------------------------------------
    # β is the mean of the last ``beta_window`` observed context lengths.
    # They are integers, so the window sum is exact and recomputing it
    # equals any running float sum of the same values; ``S / n`` on ints
    # is the same correctly rounded quotient as ``float(S) / n``.
    def observe_footprints(self, requests) -> None:
        """Feed the context lengths of a batch of requests, in order,
        into the β estimate.

        The scheduler runs this once per iteration over the whole
        decode batch.  (Request validates ``prompt_len > 0``, so every
        context is positive.)
        """
        self._contexts.extend([r.prompt_len + r.generated for r in requests])
        self._context_sum = sum(self._contexts)

    def replay_footprints(self, running, n_iters: int) -> None:
        """Replay ``n_iters`` skipped :meth:`observe_footprints` calls.

        Skipped call ``j`` (1-based) would have observed every running
        request at its context length plus ``j``.  Only the last
        ``beta_window`` observations of that j-major sequence stay in
        the window, so only its last ⌈beta_window / B⌉ calls are built.
        """
        if not running or n_iters <= 0:
            return
        contexts = [r.prompt_len + r.generated for r in running]
        calls = min(n_iters, -(-self.params.beta_window // len(contexts)))
        window = self._contexts
        window.extend([c + j for j in range(n_iters - calls + 1, n_iters + 1)
                       for c in contexts])
        self._context_sum = sum(window)

    def beta(self) -> float:
        if not self._contexts:
            return max(1.0, self.params.initial_beta_tokens)
        return max(1.0, self._context_sum / len(self._contexts))

    # --- sizing (Eq. 4 / Eq. 5) ------------------------------------------------
    def w_static(self) -> int:
        """Eq. 4: GPU-resident request capacity ⌊M/β⌋ (at least 1)."""
        return max(1, int(self._capacity_tokens // self.beta()))

    def w_max(self) -> int:
        """Overcommitted upper bound on the working-set size."""
        return max(1, int(self.w_static() * self.params.overcommit_factor))

    def w_scheduled(self, n_running: int) -> int:
        """Eq. 5: demand-adjusted working-set size.

        Scales down toward ``n_running`` when the system is
        under-utilised; pinned at ``w_max`` once demand saturates it.
        """
        if n_running < 0:
            raise ValueError("n_running must be non-negative")
        w_static = self.w_static()
        w_max = self.w_max()
        if n_running >= w_max:
            return w_max
        scheduled = w_static - self.params.adjust_rate * (w_static - n_running)
        # Overcommitment headroom grows with demand pressure.
        scheduled = max(scheduled, float(n_running))
        return max(1, min(w_max, int(round(scheduled + (w_max - w_static) * min(1.0, n_running / max(1, w_static))))))

    # --- admission (buffer criterion) --------------------------------------------
    def swap_budget(self, tau_evict: float, tau_load: float) -> float:
        """Total latency a preempted request must ride out on its buffer."""
        return tau_evict + tau_load + self.params.schedule_latency

    def admission_buffer_requirement(
        self, rate: float, tau_evict: float, tau_load: float
    ) -> float:
        """Minimum buffered tokens (b_rem) for a safe preemption.

        b_rem ≥ μ · r · (τ_evict + τ_load + τ_schedule).
        """
        if rate <= 0:
            raise ValueError("rate must be positive")
        return self.params.safety_factor * rate * self.swap_budget(tau_evict, tau_load)

    def is_preemption_safe(
        self,
        buffered_tokens: float,
        rate: float,
        tau_evict: float,
        tau_load: float,
    ) -> bool:
        """True if a request with this buffer survives a swap cycle."""
        return buffered_tokens >= self.admission_buffer_requirement(
            rate, tau_evict, tau_load
        )
