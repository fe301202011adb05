"""Baseline schedulers the paper compares against (§7.1.4).

* :class:`~repro.baselines.sglang.SGLangScheduler` — conservative
  FCFS, prefill-first admission, preemption only as reactive memory
  management (recompute-based), exactly the behaviour §2.3 critiques.
* :class:`~repro.baselines.sglang_chunked.SGLangChunkedScheduler` —
  the same policy with chunked prefill enabled in the serving loop.
* :class:`~repro.baselines.andes.AndesScheduler` — a QoE-aware
  preemptive scheduler in the style of Andes (Liu et al., 2024),
  reimplemented the way the paper did: urgency-driven preemption with
  recompute-based context restore and no proactive memory management.
"""

from repro.baselines.andes import AndesScheduler
from repro.baselines.mlfq import MLFQScheduler
from repro.baselines.sglang import SGLangScheduler
from repro.baselines.sglang_chunked import SGLangChunkedScheduler

__all__ = [
    "SGLangScheduler",
    "SGLangChunkedScheduler",
    "AndesScheduler",
    "MLFQScheduler",
]
