"""Request model and workload generation.

Provides the :class:`~repro.workload.request.Request` lifecycle object
plus generators for every arrival pattern used in the paper's
evaluation: bursty flash crowds, Poisson traffic, BurstGPT-like traces
with burst episodes, and a production-trace synthesizer matching the
shape of the paper's Figure 11.  Every pattern has a streaming
spelling (``*_arrival_stream`` / :meth:`WorkloadBuilder.stream`) that
yields the identical sequence lazily — the entry point of the
streaming workload plane (ARCHITECTURE.md, "Streaming plane").
"""

from repro.workload.request import Request, RequestState
from repro.workload.lengths import LengthSampler, NormalLengthSampler, LogNormalLengthSampler
from repro.workload.arrivals import (
    burst_arrival_stream,
    burst_arrivals,
    gamma_arrival_stream,
    gamma_arrivals,
    poisson_arrival_stream,
    poisson_arrivals,
)
from repro.workload.burstgpt import BurstGPTTraceGenerator
from repro.workload.production import ProductionTraceGenerator
from repro.workload.builder import WorkloadBuilder, WorkloadSpec

__all__ = [
    "Request",
    "RequestState",
    "LengthSampler",
    "NormalLengthSampler",
    "LogNormalLengthSampler",
    "burst_arrivals",
    "burst_arrival_stream",
    "poisson_arrivals",
    "poisson_arrival_stream",
    "gamma_arrivals",
    "gamma_arrival_stream",
    "BurstGPTTraceGenerator",
    "ProductionTraceGenerator",
    "WorkloadBuilder",
    "WorkloadSpec",
]
