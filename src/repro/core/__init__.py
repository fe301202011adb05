"""TokenFlow's core contribution.

* :mod:`repro.core.qos` — the streaming QoS metric (paper Eq. 1–2) and
  the effective-throughput token weighting (§7.1.3).
* :mod:`repro.core.tracker` — the Request Tracker component.
* :mod:`repro.core.estimator` — the sliding-window prefill-cost
  estimator behind the recompute-vs-load decision (§4.2.3).
* :mod:`repro.core.utility` — the per-request utility/priority
  function (Eq. 3, §4.2.2).
* :mod:`repro.core.working_set` — working-set sizing and admission
  control (§4.2.1, Eq. 4–5).
* :mod:`repro.core.balancer` — buffer balancing: one greedy fill in
  priority order (§4.2.2).
* :mod:`repro.core.scheduler` — the two-step buffer-aware scheduler
  with the FCFS fallback (§4.3).
* :mod:`repro.core.offload` — the Request Offload Manager bridging
  scheduler decisions to KV-manager operations.
"""

from repro.core.qos import QoSParams, effective_token_weight
from repro.core.tracker import RequestTracker, TrackedRequest
from repro.core.estimator import SlidingWindowMean, PrefillCostEstimator
from repro.core.utility import UtilityParams, stall_risk, token_value, request_priority
from repro.core.working_set import WorkingSetPolicy, WorkingSetParams
from repro.core.balancer import BalanceResult, balance
from repro.core.scheduler import TokenFlowScheduler, TokenFlowParams
from repro.core.offload import RequestOffloadManager

__all__ = [
    "QoSParams",
    "effective_token_weight",
    "RequestTracker",
    "TrackedRequest",
    "SlidingWindowMean",
    "PrefillCostEstimator",
    "UtilityParams",
    "stall_risk",
    "token_value",
    "request_priority",
    "WorkingSetPolicy",
    "WorkingSetParams",
    "BalanceResult",
    "balance",
    "TokenFlowScheduler",
    "TokenFlowParams",
    "RequestOffloadManager",
]
