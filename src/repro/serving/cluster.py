"""Cluster-level report (paper §8, "Scaling TokenFlow").

The paper argues TokenFlow's single-node scheduling generalises to
multi-node serving by adding a dispatch layer above per-node
schedulers.  That layer is the shard coordinator in
:mod:`repro.serving.shard`: N independent
:class:`~repro.serving.server.ServingSystem` instances, split across
K shards, with a pluggable :class:`~repro.serving.routers.Router`
placing each arriving request on an instance.  Each node runs its own
buffer-aware scheduler and hierarchical KV manager exactly as in the
single-node system.

This module holds the :class:`ClusterReport` the coordinator returns;
cluster-level metrics reuse the single-node report aggregation from
:func:`repro.serving.metrics.aggregate_reports`.

The inter-node KV layer the paper sketches (migrating offloaded
context between nodes over RDMA) is intentionally out of scope: the
router never moves a request after placement, which matches today's
deployed LLM routers (e.g. Llumnix-style rebalancing is future work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.serving.metrics import RunReport


@dataclass
class ClusterReport:
    """Aggregate results across cluster instances."""

    per_instance: list = field(default_factory=list)  # RunReport each
    # The full folded RunReport the scalar fields below are drawn from
    # (kept so consumers never re-aggregate the per-instance rows).
    aggregate: Optional[RunReport] = None
    n_requests: int = 0
    n_finished: int = 0
    total_tokens: int = 0
    throughput: float = 0.0
    effective_throughput: float = 0.0
    qos: float = 0.0
    ttft_mean: float = 0.0
    ttft_p50: float = 0.0
    ttft_p99: float = 0.0
    stall_total: float = 0.0
    preemptions: int = 0
    # Coordination accounting (see serving/shard.py): blocking
    # metric-gather rounds, protocol messages, and stateful dispatches
    # resolved from the trajectory-snapshot mirror with zero messages
    # (``speculation_hits``).  ``speculation_misses`` is structurally 0
    # — the mirror only answers when it is provably exact — and stays
    # until the benchmark digest stops hashing it.  Deliberately
    # excluded from parity fingerprints: they describe the *execution*,
    # not the simulated system, and legitimately vary across shard
    # counts.
    coordination_rounds: int = 0
    messages_sent: int = 0
    speculation_hits: int = 0
    speculation_misses: int = 0
