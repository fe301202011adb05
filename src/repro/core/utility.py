"""Per-request utility / priority function (paper Eq. 3, §4.2.2).

The scheduler scores each candidate with two ingredients:

* **Token value** ``v_i`` — how useful newly generated tokens would be
  right now.  The paper ties v to the unread-token count; we use the
  effective-throughput weight at the current occupancy (full value
  while the buffer is below 10 % of the output length, decaying to
  zero at 20 %), which is exactly the quantity the proxy objective
  maximises.
* **Stall risk** ``φ(b_rem)`` — the paper uses ``φ(b) = e^{−b}``.  A
  raw token count in the exponent underflows for any healthy buffer
  (e^-200 ≈ 0), so we measure the buffer in *seconds of playback*
  (``b_rem / r_i``) before exponentiating.  This keeps the intended
  shape — near-empty buffers spike, fat buffers vanish — and makes
  the scale consistent across requests with different rates.

Combined priority (higher = schedule first):

    P_i = v_i · t_eff + γ · φ(b_seconds)

Eq. 3 writes the objective as ``v·t − γ·φ``; because φ only matters
for requests at risk of stalling *if left unscheduled*, the heuristic
in §4.2.2 folds it in as a positive urgency boost ("requests with
nearly empty buffers receive higher priority"), which is the form we
implement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.qos import effective_token_weight


@dataclass(frozen=True)
class UtilityParams:
    """Knobs of the priority function.

    Attributes:
        gamma: γ — stall-risk weight.
        tau1_frac / tau2_frac: effective-token-value thresholds as
            fractions of the output length (§7.1.3).
        stall_scale: seconds of buffer at which the stall-risk term
            decays to 1/e.
    """

    gamma: float = 4.0
    tau1_frac: float = 0.10
    tau2_frac: float = 0.20
    stall_scale: float = 2.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("gamma must be non-negative and finite")
        if not math.isfinite(self.stall_scale) or self.stall_scale <= 0:
            raise ValueError("stall_scale must be positive and finite")
        if not 0 < self.tau1_frac < self.tau2_frac or not math.isfinite(self.tau2_frac):
            raise ValueError("need 0 < tau1_frac < tau2_frac, both finite")


def stall_risk(buffer_seconds: float, params: UtilityParams) -> float:
    """φ: exponential stall-risk, 1 at empty buffer, →0 as it fattens."""
    if buffer_seconds < 0:
        raise ValueError("buffer_seconds must be non-negative")
    return math.exp(-buffer_seconds / params.stall_scale)


def token_value(
    buffer_occupancy: float, output_len: int, params: UtilityParams
) -> float:
    """v_i: marginal value of generating tokens at this occupancy."""
    return effective_token_weight(
        buffer_occupancy, output_len, params.tau1_frac, params.tau2_frac
    )


def request_priority(
    buffer_occupancy: float,
    buffer_seconds: float,
    output_len: int,
    effective_time: float,
    params: UtilityParams,
) -> float:
    """P_i = v_i · t_eff + γ · φ(b_seconds); higher runs first.

    Args:
        buffer_occupancy: unread tokens in the client buffer.
        buffer_seconds: the same buffer measured in playback seconds.
        output_len: request's total output length (scales v's decay).
        effective_time: t − t_overhead, the execution time this
            request would actually get in the scheduling interval.
    """
    if effective_time < 0:
        effective_time = 0.0
    value = token_value(buffer_occupancy, output_len, params)
    return value * effective_time + params.gamma * stall_risk(buffer_seconds, params)

