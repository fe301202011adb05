"""Streaming QoS metric (paper §3.2) and effective throughput (§7.1.3).

Two token-weighting schemes appear in the paper:

* **Eq. (1)** — token utility with an absolute buffer threshold τ and
  linear decay α, feeding the QoS score of Eq. (2):

      QoS = (1/T) Σ_i [ Σ_j w_ij  −  λ·TTFT_i  −  μ·Rebuffer_i ]

* **Effective throughput** (§7.1.3) — tokens weighted by buffer
  occupancy relative to the request's *total output length*: full
  weight below τ₁ = 10 %, linear decay to zero at τ₂ = 20 %, zero
  beyond.

Both operate on ``B_{i,j}`` — the client-buffer occupancy at the
moment token *j* of request *i* was generated — which
:class:`repro.client.buffer.ClientBuffer` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Histograms at least this long take the array fold; below it the
# plain loop wins (numpy call overhead exceeds the per-item work).  On
# dense count lists timed on a 2-CPU x86-64 container (Python 3.11,
# numpy 2.4) the two cross at about 90-110 buckets.
_FOLD_VECTOR_MIN = 96


@dataclass(frozen=True)
class QoSParams:
    """Weights of the QoS score (Eq. 2) and the Eq. 1 decay.

    Attributes:
        tau: absolute buffer threshold (tokens) where utility decay
            starts; if None, τ is derived per request as
            ``tau_frac * output_len`` (the paper notes τ "is related
            to the total output length").
        tau_frac: fraction of the output length used when ``tau`` is None.
        alpha: linear decay factor beyond τ (per token).
        lam: λ — TTFT penalty weight (per second).
        mu: μ — rebuffer penalty weight (per second).
    """

    tau: Optional[float] = None
    tau_frac: float = 0.10
    alpha: float = 0.02
    lam: float = 0.1
    mu: float = 1.0

    def __post_init__(self) -> None:
        if self.tau is not None and self.tau < 0:
            raise ValueError("tau must be non-negative")
        if not 0 < self.tau_frac <= 1:
            raise ValueError("tau_frac must be in (0, 1]")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.lam < 0 or self.mu < 0:
            raise ValueError("lam and mu must be non-negative")

    def resolve_tau(self, output_len: int) -> float:
        return self.tau if self.tau is not None else self.tau_frac * output_len


def effective_token_weight(
    buffer_occupancy: float,
    output_len: int,
    tau1_frac: float = 0.10,
    tau2_frac: float = 0.20,
) -> float:
    """§7.1.3 weight: 1 below τ₁·L, linear to 0 at τ₂·L, 0 beyond."""
    if output_len <= 0:
        raise ValueError("output_len must be positive")
    if not 0 < tau1_frac < tau2_frac:
        raise ValueError("need 0 < tau1_frac < tau2_frac")
    tau1 = tau1_frac * output_len
    tau2 = tau2_frac * output_len
    if buffer_occupancy <= tau1:
        return 1.0
    if buffer_occupancy >= tau2:
        return 0.0
    return (tau2 - buffer_occupancy) / (tau2 - tau1)


def fold_hist_metrics(
    occupancy_counts: Sequence,
    output_len: int,
    params: QoSParams,
    tau1_frac: float = 0.10,
    tau2_frac: float = 0.20,
) -> tuple:
    """Single pass over a dense occupancy histogram computing both
    token-weighting schemes: ``(effective_tokens, utility_sum)``.

    ``occupancy_counts[B]`` is the number of tokens generated at
    occupancy ``B`` (:attr:`ClientBuffer.occupancy_counts`, a typed
    ``array('I')``, or any sequence of ints), so each
    weight is evaluated once per distinct B instead of once per token.
    The reporting fold needs the §7.1.3 effective count *and* the
    Eq. (1) utility sum for every finished request; walking the
    histogram once halves the dominant per-request metric cost.  Each
    accumulator folds left to right from 0 in ascending B, with the
    weights of :func:`effective_token_weight` and Eq. (1) inlined.
    """
    if output_len <= 0:
        raise ValueError("output_len must be positive")
    if not 0 < tau1_frac < tau2_frac:
        raise ValueError("need 0 < tau1_frac < tau2_frac")
    tau1 = tau1_frac * output_len
    tau2 = tau2_frac * output_len
    span = tau2 - tau1
    tau = params.resolve_tau(output_len)
    alpha = params.alpha
    n = len(occupancy_counts)
    if n >= _FOLD_VECTOR_MIN:
        # Array fold, bit-identical to the loop below: the per-bucket
        # weights are the same elementwise IEEE operations, and the
        # accumulation uses np.cumsum — which is *sequential* (unlike
        # np.sum's pairwise tree) — so the partial sums replay the
        # loop's left-to-right additions exactly.
        b = np.arange(n, dtype=np.float64)
        # A buffer's typed count array converts through the buffer
        # protocol; uint32 -> float64 is exact.
        counts = np.array(occupancy_counts, dtype=np.float64)
        w_eff = np.where(
            b <= tau1, 1.0, np.where(b >= tau2, 0.0, (tau2 - b) / span)
        )
        u = 1.0 - alpha * (b - tau)
        w_util = np.where(b <= tau, 1.0, np.where(u > 0.0, u, 0.0))
        effective = float(np.cumsum(counts * w_eff)[-1])
        utility = float(np.cumsum(counts * w_util)[-1])
        return effective, utility
    effective = 0.0
    utility = 0.0
    for b, count in enumerate(occupancy_counts):
        if b <= tau1:
            effective += count * 1.0
        elif b >= tau2:
            effective += count * 0.0
        else:
            effective += count * ((tau2 - b) / span)
        if b <= tau:
            utility += count * 1.0
        else:
            u = 1.0 - alpha * (b - tau)
            utility += count * (u if u > 0.0 else 0.0)
    return effective, utility
