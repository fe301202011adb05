"""Declarative scenario specification.

A :class:`ScenarioSpec` names everything one serving run needs —
workload, hardware, model, scheduler/system, router, replica count,
seed, horizon — in one frozen value object.  Experiments, benchmarks
and the CLI all hand a spec to
:func:`repro.scenarios.build.build_run`, so every entrypoint wires
systems identically (the "one pipeline" invariant).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from repro.serving.routers import ROUTERS, Router


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully-determined serving scenario.

    KV prefix sharing has no switch here: the workload decides it.
    Requests carrying a ``session_id`` or ``prefix_group`` share KV
    blocks through :mod:`repro.memory.blocktable`; the rest allocate
    private blocks.

    Attributes:
        name: scenario identifier (registry key or ad-hoc label).
        description: one-line human description.
        doc: longer catalogue entry (what the scenario exercises and
            which axes matter) — rendered by
            ``repro list-scenarios --long``.
        system: evaluated system name (scheduler + KV wiring), as
            understood by :func:`repro.experiments.systems.build_system`.
        hardware: hardware spec or name (e.g. "h200").
        model: model spec or name (e.g. "llama3-8b").
        mem_frac: KV-pool share of device memory (None = derived).
        max_batch: decode batch cap per instance.
        block_size: KV block size in tokens.
        replicas: number of serving instances; >1 builds the cluster,
            :class:`~repro.serving.shard.ShardedServingCluster`.
        router: cluster routing policy name (or Router instance) —
            ignored when ``replicas == 1``.
        shards: how many shards the cluster splits its replicas into;
            reports are bit-identical for every value.  One shard runs
            inline in this process; more run as worker processes
            (parallel replica simulation).  Clamped to ``replicas``;
            ignored when ``replicas == 1``.
        seed: root RNG seed for the workload.
        scale: workload scale factor (scenario builders shrink crowd
            sizes / horizons proportionally, like the experiments).
        horizon: simulation-time safety horizon for :meth:`execute`.
        workload: callable ``spec -> list[Request]`` materialising the
            workload (None for ad-hoc specs driven with explicit
            request lists).
        workload_stream: callable ``spec -> Iterator[Request]`` yielding
            the workload lazily in arrival order — the streaming plane's
            spelling.  A spec with only a stream factory executes
            through :meth:`ServingSystem.feed`; when both factories are
            set they must describe the same request sequence
            (:meth:`build_workload` falls back to draining the stream).
        retain_per_request: telemetry mode (see
            :class:`~repro.serving.config.ServingConfig`); ``False``
            retires finished requests into streaming accumulators so
            memory stays O(active) — the soak scenarios' setting.
        tokenflow_params: optional TokenFlow parameter overrides.
        record_token_traces: keep per-token generation/consumption
            timestamps on every client buffer (token-timeline plots).
    """

    name: str
    description: str = ""
    doc: str = ""
    system: str = "tokenflow"
    hardware: Union[str, object] = "h200"
    model: Union[str, object] = "llama3-8b"
    mem_frac: Optional[float] = None
    max_batch: int = 64
    block_size: int = 16
    replicas: int = 1
    router: Union[str, Router] = "least_loaded"
    shards: int = 1
    seed: int = 0
    scale: float = 1.0
    horizon: float = 50_000.0
    workload: Optional[Callable[["ScenarioSpec"], list]] = None
    workload_stream: Optional[Callable[["ScenarioSpec"], Iterator]] = None
    tokenflow_params: Optional[object] = None
    retain_per_request: bool = True
    record_token_traces: bool = False

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError(f"replicas must be positive, got {self.replicas}")
        if self.shards <= 0:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if isinstance(self.router, str) and self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; known: {sorted(ROUTERS)}"
            )

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def build_workload(self) -> list:
        """Materialise the spec's request list.

        Falls back to draining :attr:`workload_stream` for stream-only
        specs (tools that need the full list — parity tests, ad-hoc
        inspection — can always get one; it is the serving path that
        avoids materialisation, not the spec API).
        """
        if self.workload is not None:
            return self.workload(self)
        if self.workload_stream is not None:
            return list(self.workload_stream(self))
        raise ValueError(
            f"scenario {self.name!r} has no workload factory; pass an "
            f"explicit request list to build_run instead"
        )

    def build_workload_stream(self) -> Iterator:
        """The spec's lazy request stream.

        Stream-native specs call their factory; list-only specs fall
        back to iterating the materialised workload (same sequence,
        no memory win — existing scenarios keep working through the
        streaming execute path unchanged).
        """
        if self.workload_stream is not None:
            return self.workload_stream(self)
        return iter(self.build_workload())

    @property
    def is_stream_native(self) -> bool:
        """True when the workload exists only as a stream factory."""
        return self.workload is None and self.workload_stream is not None
