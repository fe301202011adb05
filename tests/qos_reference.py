"""Per-token reference formulas of the streaming QoS metric.

Eq. (1)'s token utility, Eq. (2)'s per-request bracket and score, and
the §7.1.3 effective-token count, evaluated token by token over the
occupancies ``B_{i,j}``.  A run folds the same weights over a buffer's
occupancy histogram instead (:func:`repro.core.qos.fold_hist_metrics`);
these per-token spellings are the oracle the tests check that fold
against, so they live with the tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.qos import QoSParams, effective_token_weight


def token_utility(buffer_occupancy: float, tau: float, alpha: float) -> float:
    """Eq. (1): w = 1 below τ, else max(1 − α·(B − τ), 0)."""
    if buffer_occupancy <= tau:
        return 1.0
    return max(1.0 - alpha * (buffer_occupancy - tau), 0.0)


def effective_token_count(
    occupancies: Sequence,
    output_len: int,
    tau1_frac: float = 0.10,
    tau2_frac: float = 0.20,
) -> float:
    """Sum of effective-throughput weights over a request's tokens."""
    return sum(
        effective_token_weight(b, output_len, tau1_frac, tau2_frac) for b in occupancies
    )


def request_qos_terms(
    occupancies: Sequence,
    output_len: int,
    ttft: float,
    rebuffer: float,
    params: QoSParams,
) -> float:
    """Inner bracket of Eq. (2) for one request."""
    tau = params.resolve_tau(output_len)
    utility_sum = sum(token_utility(b, tau, params.alpha) for b in occupancies)
    return utility_sum - params.lam * ttft - params.mu * rebuffer


def qos_score(per_request_terms: Iterable, total_time: float) -> float:
    """Eq. (2): sum of per-request terms normalised by process time T."""
    if total_time <= 0:
        raise ValueError("total_time must be positive")
    return sum(per_request_terms) / total_time
