"""The one run pipeline: ``ScenarioSpec`` -> built system -> report.

Every entrypoint — ``repro run``, the experiment runners, the
benchmark suite — builds serving runs through :func:`build_run`, so a
scenario behaves identically no matter where it is launched from.

``build_run`` returns a :class:`ScenarioRun` rather than executing
immediately: experiment code that needs the live system afterwards
(timelines, tracker entries, mid-run snapshots) executes the run and
then inspects ``run.target``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.scenarios.spec import ScenarioSpec
from repro.serving.cluster import ClusterReport
from repro.serving.config import ServingConfig
from repro.serving.metrics import RunReport
from repro.serving.server import ServingSystem
from repro.workload.request import clone_requests

if TYPE_CHECKING:
    from repro.serving.shard import ShardedServingCluster


@dataclass
class ScenarioRun:
    """A built-but-not-yet-executed scenario.

    Attributes:
        spec: the scenario that produced this run.
        target: the built :class:`ServingSystem` (``replicas == 1``) or
            :class:`~repro.serving.shard.ShardedServingCluster`.
        requests: the materialised workload (cloned at execute time, so
            one :class:`ScenarioRun` template's requests can seed
            several runs), or ``None`` for stream-native scenarios —
            those build a fresh lazy stream per execute and never hold
            the full workload in memory.
    """

    spec: ScenarioSpec
    target: Union[ServingSystem, "ShardedServingCluster"]
    requests: Optional[list]

    @property
    def is_cluster(self) -> bool:
        return not isinstance(self.target, ServingSystem)

    def execute(self, streamed: Optional[bool] = None) -> Union[RunReport, ClusterReport]:
        """Run the workload, drain the engine, and report.

        Stream-native runs (``requests is None``) feed the engine from
        the spec's lazy stream; materialised runs submit the cloned
        request list exactly as before.  ``streamed=True`` forces the
        :meth:`feed` path for a materialised run (the streams are
        event-for-event identical to submission — this is the parity
        tests' lever, and costs nothing but the clone).

        Raises ``RuntimeError`` if requests remain unfinished at the
        spec's horizon — a mis-sized workload, not a soft failure.
        """
        spec = self.spec
        if streamed is None:
            streamed = self.requests is None
        if streamed:
            if self.requests is None:
                stream = spec.build_workload_stream()
            else:
                stream = iter(clone_requests(self.requests))
            self.target.feed(stream)
        else:
            # Forcing the submit path on a stream-native run loses the
            # memory win but is well-defined: materialise the stream.
            requests = (
                self.requests if self.requests is not None
                else spec.build_workload()
            )
            self.target.submit(clone_requests(requests))
        self.target.run(until=spec.horizon)
        if self.target.unfinished:
            raise RuntimeError(
                f"{self._label()}: {self.target.unfinished} requests unfinished "
                f"at horizon {spec.horizon}s — raise the horizon or shrink the "
                f"workload"
            )
        return self.target.report()

    def _label(self) -> str:
        # Ad-hoc comparison specs label errors by system name (the
        # pre-scenario message format); named scenarios by scenario.
        return self.spec.name or self.spec.system


def run_matrix(matrix, **kwargs):
    """Run a scenario matrix; see :func:`repro.orchestration.run_matrix`.

    Lives here so the scenarios layer exposes both entrypoints — one
    cell (:func:`build_run`) and a whole matrix — from one module; the
    implementation stays in :mod:`repro.orchestration`, which imports
    this module (hence the lazy import).
    """
    from repro.orchestration import run_matrix as _run_matrix

    return _run_matrix(matrix, **kwargs)


def build_run(spec: ScenarioSpec, requests: Optional[list] = None) -> ScenarioRun:
    """Build the serving target for ``spec`` (single node or cluster).

    ``requests`` overrides the spec's workload factory — comparison
    runners pass one shared request list across several specs.
    """
    # Imported here: repro.experiments.runner (imported by the package
    # __init__) itself routes through this module, and Python cannot
    # resolve that cycle at import time.  The cluster module pulls in
    # multiprocessing, which single-node runs never need.
    from repro.experiments.systems import (
        SchedulerRecipe,
        build_system,
        make_kv_config,
    )
    from repro.serving.shard import ShardedServingCluster

    if requests is None and not spec.is_stream_native:
        requests = spec.build_workload()

    if spec.replicas == 1:
        system = build_system(
            spec.system,
            hardware=spec.hardware,
            model=spec.model,
            mem_frac=spec.mem_frac,
            max_batch=spec.max_batch,
            block_size=spec.block_size,
            tokenflow_params=spec.tokenflow_params,
            fuse_decode=spec.fuse_decode,
            vectorize_decode=spec.vectorize_decode,
            retain_per_request=spec.retain_per_request,
            record_token_traces=spec.record_token_traces,
        )
        return ScenarioRun(spec=spec, target=system, requests=requests)

    configs = [
        ServingConfig(
            hardware=spec.hardware,
            model=spec.model,
            mem_frac=spec.mem_frac,
            max_batch=spec.max_batch,
            block_size=spec.block_size,
            kv=make_kv_config(spec.system, spec.block_size),
            fuse_decode=spec.fuse_decode,
            vectorize_decode=spec.vectorize_decode,
            retain_per_request=spec.retain_per_request,
            record_token_traces=spec.record_token_traces,
        )
        for _ in range(spec.replicas)
    ]

    # A picklable factory (not a closure): the process transport ships
    # it to shard workers — each instance gets a fresh scheduler
    # stamped with the experiment's system name.
    scheduler_factory = SchedulerRecipe(spec.system, spec.tokenflow_params)

    # Router names resolve to a fresh instance inside the cluster; a
    # Router *instance* on the spec is copied so its state (stripe
    # counters, sticky session maps) never leaks between runs of the
    # same spec — repeated builds stay independent and deterministic.
    router = spec.router if isinstance(spec.router, str) else copy.deepcopy(spec.router)
    cluster = ShardedServingCluster(
        configs, scheduler_factory, router=router, shards=spec.shards
    )
    return ScenarioRun(spec=spec, target=cluster, requests=requests)
