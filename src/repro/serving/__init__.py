"""End-to-end serving system wiring.

:class:`~repro.serving.server.ServingSystem` connects arrivals, the
scheduler (TokenFlow or a baseline), the iteration-level executor, the
hierarchical KV manager, and per-request client buffers on one
discrete-event engine, and produces a :class:`~repro.serving.metrics.RunReport`.
The loop itself is staged (see :mod:`repro.serving.stages`); the cluster
(:mod:`repro.serving.shard`) routes arrivals across instances via
:mod:`repro.serving.routers`.
"""

from repro.serving.cluster import ClusterReport
from repro.serving.config import ServingConfig
from repro.serving.interface import BaseScheduler, SchedulerDecision, SystemView
from repro.serving.metrics import (
    QuantileSketch,
    RequestMetrics,
    RunReport,
    StreamingRunStats,
    aggregate_reports,
    build_report,
    report_to_dict,
)
from repro.serving.routers import ROUTERS, Router, make_router, register_router
from repro.serving.server import ServingSystem
from repro.serving.stages import (
    AdmissionStage,
    BatchComposer,
    DecodeStream,
    MemoryPressureStage,
)

__all__ = [
    "ClusterReport",
    "ServingConfig",
    "report_to_dict",
    "BaseScheduler",
    "SchedulerDecision",
    "SystemView",
    "QuantileSketch",
    "RequestMetrics",
    "RunReport",
    "StreamingRunStats",
    "aggregate_reports",
    "build_report",
    "ROUTERS",
    "Router",
    "make_router",
    "register_router",
    "ServingSystem",
    "AdmissionStage",
    "BatchComposer",
    "DecodeStream",
    "MemoryPressureStage",
]
