"""Named scenario registry.

Maps scenario names to builder functions producing fully-resolved
:class:`~repro.scenarios.spec.ScenarioSpec` values.  Builders take the
workload ``scale`` and ``seed`` (everything scale-dependent — crowd
sizes, KV pool fractions, horizons — is derived inside the builder,
exactly as the experiment runners derive it), and callers layer
scale-independent overrides (``replicas``, ``router``, ``system``) on
top via :meth:`ScenarioSpec.with_overrides`.

Registered families:

* ``table1-<gpu>-<key>`` — the paper's Table 1 controlled setups
  (burst and Poisson cells on RTX 4090 / H200).
* ``tab02-<variant>`` — the Table 2 memory-management ablations on the
  constrained-PCIe 4090 setup.
* ``cluster-burst-4x`` — §8 scale-out: one flash crowd over four
  TokenFlow replicas behind a router.
* ``bursty-sessions`` — multi-turn conversations arriving in bursts,
  the ``session_affinity`` router's home ground.
* ``soak-steady`` / ``soak-diurnal`` — sustained-load endurance runs
  on the streaming plane: stream-native workloads (no materialised
  request list) with streaming telemetry, scale-parameterised from a
  quick smoke up to ~10⁶ requests at O(active) memory.
* ``cluster-soak-64x`` — soak-scale load across a 64-replica
  round_robin cluster; the sharded-cluster benchmark workload
  (``--shards K`` partitions the replicas across worker processes).
* ``prefix-heavy-agents`` / ``rag-replay`` — prefix-sharing traffic
  (long multi-turn agent sessions; concurrent shared-prompt replays),
  where cross-request block reuse and copy-on-write forks in the KV
  block table carry the workload.

Each entry also carries a longer ``ScenarioSpec.doc`` catalogue
paragraph, rendered by ``repro list-scenarios --long`` and mirrored
into README.md.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Tuple

from repro.gpu.hardware import get_hardware
from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec
from repro.workload.lengths import NormalLengthSampler
from repro.workload.production import ProductionTraceGenerator
from repro.workload.request import Request
from repro.workload.sessions import TURN_STRIDE

# name -> (description, builder(scale, seed) -> ScenarioSpec)
_REGISTRY: Dict[str, Tuple[str, Callable[..., ScenarioSpec]]] = {}

# The Table 1 / Table 2 families derive from the experiment modules,
# which themselves import the run pipeline — registering them lazily
# (on first lookup) keeps the import graph acyclic.
_EXPERIMENT_FAMILIES_REGISTERED = False


def _ensure_registered() -> None:
    global _EXPERIMENT_FAMILIES_REGISTERED
    if not _EXPERIMENT_FAMILIES_REGISTERED:
        _EXPERIMENT_FAMILIES_REGISTERED = True
        _register_table1()
        _register_ablations()


def register_scenario(name: str, description: str):
    """Decorator: register ``fn(scale, seed) -> ScenarioSpec``."""
    def decorator(fn: Callable[..., ScenarioSpec]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} registered twice")
        _REGISTRY[name] = (description, fn)
        return fn
    return decorator


def get_scenario(
    name: str, scale: float = 1.0, seed: int = 0, **overrides
) -> ScenarioSpec:
    """Resolve a registered scenario at a scale/seed, with overrides.

    ``overrides`` are scale-independent spec fields (``replicas``,
    ``router``, ``system``, ``horizon`` ...) applied on top of the
    builder's output.
    """
    _ensure_registered()
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known: {known}")
    _, builder = _REGISTRY[name]
    spec = builder(scale=scale, seed=seed)
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec


def list_scenarios() -> List[Tuple[str, str]]:
    """``(name, description)`` rows, sorted by name."""
    _ensure_registered()
    return [(name, desc) for name, (desc, _) in sorted(_REGISTRY.items())]


def scenario_names() -> List[str]:
    _ensure_registered()
    return sorted(_REGISTRY)


# --- Table 1 controlled setups ---------------------------------------------

def _register_table1() -> None:
    # Imported here (not module top) purely for import-order hygiene:
    # controlled.py pulls in the runner stack, which in turn loads the
    # build pipeline.
    from repro.experiments.controlled import TABLE1, build_workload, serving_kwargs

    def make_builder(setup, name):
        def build(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
            kwargs = serving_kwargs(setup, scale)
            return ScenarioSpec(
                name=name,
                description=setup.label(),
                doc=(
                    f"Paper Table 1 controlled setup {setup.label()}: a "
                    "fixed flash crowd on one TokenFlow instance, the "
                    "golden-pinned headline workload.  Axes: system, "
                    "scale, seed."
                ),
                system="tokenflow",
                hardware=kwargs["hardware"],
                model=kwargs["model"],
                mem_frac=kwargs["mem_frac"],
                max_batch=kwargs["max_batch"],
                scale=scale,
                seed=seed,
                workload=lambda spec: build_workload(
                    setup, scale=spec.scale, seed=spec.seed
                ),
            )
        return build

    for (gpu, key), setup in sorted(TABLE1.items()):
        name = f"table1-{gpu}-{key}"
        register_scenario(name, f"Table 1 {setup.label()}")(
            make_builder(setup, name)
        )


# --- Table 2 ablations ------------------------------------------------------

def _register_ablations() -> None:
    from repro.experiments.controlled import TABLE1, build_workload, serving_kwargs
    from repro.experiments.systems import ABLATION_NAMES

    setup = TABLE1[("rtx4090", "b")]
    # The constrained host link that makes the §5.3 overlap technique
    # measurable (see experiments/ablation.py).
    pcie_gbps = 2.0

    def make_builder(variant, name):
        def build(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
            kwargs = serving_kwargs(setup, scale)
            hardware = dataclasses.replace(
                get_hardware(kwargs["hardware"]), pcie_bandwidth_gbps=pcie_gbps
            )
            return ScenarioSpec(
                name=name,
                description=f"Table 2 ablation: {variant} (PCIe {pcie_gbps} GB/s)",
                doc=(
                    f"Paper Table 2 memory-management ablation ({variant}) "
                    f"on the constrained-PCIe ({pcie_gbps} GB/s) RTX 4090 "
                    "setup, where offload/write-through/overlap each "
                    "become measurable.  Axes: scale, seed."
                ),
                system=variant,
                hardware=hardware,
                model=kwargs["model"],
                mem_frac=kwargs["mem_frac"],
                max_batch=kwargs["max_batch"],
                scale=scale,
                seed=seed,
                workload=lambda spec: build_workload(
                    setup, scale=spec.scale, seed=spec.seed
                ),
            )
        return build

    for variant in ABLATION_NAMES:
        name = f"tab02-{variant}"
        register_scenario(name, f"Table 2 memory ablation: {variant}")(
            make_builder(variant, name)
        )


# --- §8 multi-replica scale-out ---------------------------------------------

def _cluster_burst_workload(spec: ScenarioSpec) -> list:
    wl = WorkloadSpec(
        arrival="burst",
        n_requests=max(8, int(96 * spec.scale)),
        burst_spread=0.25,
        lengths=NormalLengthSampler(),
        rates=RateMixture.fixed(10.0),
    )
    return WorkloadBuilder(wl, RngStreams(spec.seed)).build()


@register_scenario(
    "cluster-burst-4x",
    "§8 scale-out: one flash crowd over 4 TokenFlow replicas",
)
def _cluster_burst(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="cluster-burst-4x",
        description="flash crowd on a 4-replica TokenFlow cluster",
        doc=(
            "§8 scale-out: one flash crowd split by a router across 4 "
            "TokenFlow replicas.  The router comparison scenario — run "
            "it with --router round_robin/least_loaded/buffer_aware, "
            "or --shards K for parallel replica simulation."
        ),
        system="tokenflow",
        hardware="h200",
        model="llama3-8b",
        mem_frac=0.02,
        max_batch=16,
        replicas=4,
        router="least_loaded",
        scale=scale,
        seed=seed,
        workload=_cluster_burst_workload,
    )


# --- bursty multi-turn sessions ---------------------------------------------

def _bursty_session_workload(spec: ScenarioSpec) -> list:
    """Conversation turns arriving in bursts.

    ``n_sessions`` conversations all start inside one flash crowd;
    each follows up with ``n_turns - 1`` further turns, spaced by the
    time a 10 tok/s reader needs to consume the previous answer plus a
    think-time gap.  Request ids use the ``TURN_STRIDE`` partitioning
    of :mod:`repro.workload.sessions` and carry ``session_id``, so
    ``session_affinity`` routing pins whole conversations to one
    replica.  Turn prompts grow with the accumulated context (earlier
    turns are re-fed as history).
    """
    n_sessions = max(4, int(24 * spec.scale))
    n_turns = 3
    rate = 10.0
    rng = RngStreams(spec.seed).stream("bursty-sessions")
    requests: list = []
    for session in range(n_sessions):
        start = float(rng.uniform(0.0, 0.5))
        prompt = int(rng.integers(96, 256))
        context = prompt
        arrival = start
        for turn in range(n_turns):
            output = int(rng.integers(96, 192))
            requests.append(
                Request(
                    req_id=session * TURN_STRIDE + turn,
                    arrival_time=arrival,
                    prompt_len=context,
                    output_len=output,
                    rate=rate,
                    session_id=session,
                )
            )
            think = float(rng.uniform(0.5, 2.0))
            arrival += output / rate + think
            # Next turn re-feeds the history plus a fresh user message.
            context += output + int(rng.integers(32, 96))
    requests.sort(key=lambda r: (r.arrival_time, r.req_id))
    return requests


@register_scenario(
    "bursty-sessions",
    "multi-turn chat sessions arriving in bursts (session_affinity demo)",
)
def _bursty_sessions(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="bursty-sessions",
        description="bursty multi-turn conversations on a 2-replica cluster",
        doc=(
            "Multi-turn chat sessions whose turns re-feed prior history, "
            "arriving in a flash crowd on a 2-replica cluster — the "
            "session_affinity router's home ground (sticky sessions keep "
            "KV locality).  Axes: router, replicas."
        ),
        system="tokenflow",
        hardware="h200",
        model="llama3-8b",
        mem_frac=0.02,
        max_batch=16,
        replicas=2,
        router="session_affinity",
        scale=scale,
        seed=seed,
        workload=_bursty_session_workload,
    )


# --- streaming-plane soak scenarios ------------------------------------------
#
# Sustained-load endurance runs: requests enter through a lazy stream
# (never materialised) and leave through streaming telemetry (retired
# into accumulators at completion), so a run's memory footprint is
# O(active requests) no matter how many the scale dials up.
#
# ``scale`` multiplies the request *count*: scale=1 is 40 000 requests
# — 100x the TABLE1 h200/(a) crowd, the soak RSS benchmark's workload
# — and scale=25 reaches the million-request regime.  Load shape is
# scale-invariant (the arrival rate stays fixed; the horizon grows).

SOAK_BASE_REQUESTS = 40_000
_SOAK_ARRIVAL_RATE = 15.0       # req/s — ~70% of paced-service capacity
_SOAK_CONSUME_RATE = 20.0       # tok/s per client


def _soak_lengths() -> NormalLengthSampler:
    # Chat-style short turns: residence is dominated by paced
    # consumption (~output/rate ≈ 3.2 s), which bounds steady-state
    # concurrency near arrival_rate × residence ≈ 50 active requests.
    return NormalLengthSampler(
        prompt_mean=128.0, prompt_std=32.0,
        output_mean=64.0, output_std=16.0,
    )


def _soak_requests(scale: float) -> int:
    """The one clamp shared by the stream factories (request cap) and
    the spec builders (horizon sizing) — they must never drift apart."""
    return max(64, int(SOAK_BASE_REQUESTS * scale))


def _soak_steady_stream(spec: ScenarioSpec) -> Iterator[Request]:
    n = _soak_requests(spec.scale)
    wl = WorkloadSpec(
        arrival="poisson",
        n_requests=n,
        poisson_rate=_SOAK_ARRIVAL_RATE,
        # Enough horizon for the capped count plus slack; the cap stops
        # the stream, so over-provisioning the duration costs nothing.
        duration=n / _SOAK_ARRIVAL_RATE * 1.5 + 120.0,
        lengths=_soak_lengths(),
        rates=RateMixture.fixed(_SOAK_CONSUME_RATE),
    )
    return WorkloadBuilder(wl, RngStreams(spec.seed)).stream()


@register_scenario(
    "soak-steady",
    "streaming-plane soak: steady Poisson load, O(active) memory "
    "(scale=1 ≈ 40k requests, scale=25 ≈ 10⁶)",
)
def _soak_steady(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    n = _soak_requests(scale)
    return ScenarioSpec(
        name="soak-steady",
        description="sustained Poisson load on the streaming plane",
        doc=(
            "Endurance run on the streaming plane: stream-native Poisson "
            "arrivals retire into sketch telemetry, so memory stays "
            "O(active requests).  scale multiplies the request count "
            "(scale=1 ≈ 40k, scale=25 ≈ 10⁶); the soak-RSS benchmark "
            "workload."
        ),
        system="tokenflow",
        hardware="h200",
        model="llama3-8b",
        mem_frac=0.05,
        max_batch=64,
        scale=scale,
        seed=seed,
        horizon=n / _SOAK_ARRIVAL_RATE * 1.5 + 10_000.0,
        workload_stream=_soak_steady_stream,
        retain_per_request=False,
    )


def _soak_diurnal_stream(spec: ScenarioSpec) -> Iterator[Request]:
    n = _soak_requests(spec.scale)
    generator = ProductionTraceGenerator(
        mean_rate=_SOAK_ARRIVAL_RATE * 0.8,
        diurnal_amplitude=0.5,
        period=1800.0,
        peak_times=(0.3, 0.8),
        peak_multiplier=1.5,
        peak_width=0.04,
    )
    wl = WorkloadSpec(
        arrival="production",
        n_requests=n,
        duration=n / generator.mean_rate * 2.0 + 120.0,
        lengths=_soak_lengths(),
        rates=RateMixture.fixed(_SOAK_CONSUME_RATE),
        production=generator,
    )
    return WorkloadBuilder(wl, RngStreams(spec.seed)).stream()


@register_scenario(
    "soak-diurnal",
    "streaming-plane soak: diurnal production-trace load with peak "
    "episodes (Fig. 11 shape), O(active) memory",
)
def _soak_diurnal(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    n = _soak_requests(scale)
    return ScenarioSpec(
        name="soak-diurnal",
        description="diurnal production-shaped load on the streaming plane",
        doc=(
            "Day-shaped endurance run: production-trace arrivals with a "
            "diurnal envelope and peak episodes (Fig. 11 shape) on the "
            "streaming plane, O(active) memory.  The capacity-planning "
            "and future autoscaling testbed."
        ),
        system="tokenflow",
        hardware="h200",
        model="llama3-8b",
        mem_frac=0.05,
        max_batch=64,
        scale=scale,
        seed=seed,
        horizon=n / (_SOAK_ARRIVAL_RATE * 0.8) * 2.0 + 10_000.0,
        workload_stream=_soak_diurnal_stream,
        retain_per_request=False,
    )


# --- sharded-cluster soak -----------------------------------------------------
# A cluster-scale endurance run: 64 replicas behind round_robin at the
# same ~70%-capacity per-replica Poisson load as soak-steady (cluster
# arrival rate = replicas × the single-node soak rate, striped evenly).
# Stream-native with streaming telemetry, so memory stays O(active)
# per replica.  This is the shard-scaling benchmark's workload
# (benchmarks/test_shard_scaling.py runs it at --shards 1/2/4); the
# registered spec keeps shards=1 so ordinary sweeps stay single-process.
CLUSTER_SOAK_REPLICAS = 64
_CLUSTER_SOAK_BASE_REQUESTS = 6_400   # 100 requests per replica at scale=1
_CLUSTER_SOAK_RATE = _SOAK_ARRIVAL_RATE * CLUSTER_SOAK_REPLICAS


def _cluster_soak_requests(scale: float) -> int:
    return max(64, int(_CLUSTER_SOAK_BASE_REQUESTS * scale))


def _cluster_soak_stream(spec: ScenarioSpec) -> Iterator[Request]:
    n = _cluster_soak_requests(spec.scale)
    wl = WorkloadSpec(
        arrival="poisson",
        n_requests=n,
        poisson_rate=_CLUSTER_SOAK_RATE,
        duration=n / _CLUSTER_SOAK_RATE * 1.5 + 120.0,
        lengths=_soak_lengths(),
        rates=RateMixture.fixed(_SOAK_CONSUME_RATE),
    )
    return WorkloadBuilder(wl, RngStreams(spec.seed)).stream()


@register_scenario(
    "cluster-soak-64x",
    "64-replica round_robin cluster soak (scale=1 ≈ 6.4k requests); "
    "the shard-scaling benchmark workload — run with --shards K for "
    "parallel replica simulation",
)
def _cluster_soak_64x(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    n = _cluster_soak_requests(scale)
    return ScenarioSpec(
        name="cluster-soak-64x",
        description="sharded-cluster endurance run across 64 replicas",
        doc=(
            "Cluster-scale soak: 64 TokenFlow replicas behind "
            "round_robin at ~70% per-replica capacity, stream-native "
            "with streaming telemetry.  The shard-scaling benchmark "
            "workload — run with --shards K to partition replicas "
            "across worker processes (reports stay bit-identical)."
        ),
        system="tokenflow",
        hardware="h200",
        model="llama3-8b",
        mem_frac=0.05,
        max_batch=64,
        replicas=CLUSTER_SOAK_REPLICAS,
        router="round_robin",
        scale=scale,
        seed=seed,
        horizon=n / _CLUSTER_SOAK_RATE * 1.5 + 10_000.0,
        workload_stream=_cluster_soak_stream,
        retain_per_request=False,
    )


# --- prefix-sharing scenario family -------------------------------------------
#
# Workloads where cross-request KV block reuse carries the run.  The
# same requests with their sharing identities stripped run identically
# except for peak/total block demand — exactly the comparison
# BENCH_prefix.json records.


def _prefix_agent_workload(spec: ScenarioSpec) -> list:
    """Long sequential agent conversations.

    Each session runs ``n_turns`` turns back-to-back: every turn
    re-feeds the whole accumulated context plus a short fresh message,
    so by the last turn almost the entire prompt is a prefix the
    previous turn already computed.  Turns are spaced by consumption
    plus think time, so most turns start after their predecessor
    finished — the donated-chain (cached-block) reuse path, with the
    occasional overlap exercising live sharing.
    """
    n_sessions = max(4, int(16 * spec.scale))
    n_turns = 6
    rate = 10.0
    rng = RngStreams(spec.seed).stream("prefix-heavy-agents")
    requests: list = []
    for session in range(n_sessions):
        start = float(rng.uniform(0.0, 2.0))
        context = int(rng.integers(128, 384))
        arrival = start
        for turn in range(n_turns):
            output = int(rng.integers(48, 128))
            requests.append(
                Request(
                    req_id=session * TURN_STRIDE + turn,
                    arrival_time=arrival,
                    prompt_len=context,
                    output_len=output,
                    rate=rate,
                    is_agent=True,
                    session_id=session,
                )
            )
            think = float(rng.uniform(1.0, 3.0))
            arrival += output / rate + think
            context += output + int(rng.integers(16, 48))
    requests.sort(key=lambda r: (r.arrival_time, r.req_id))
    return requests


@register_scenario(
    "prefix-heavy-agents",
    "long multi-turn agent sessions on the prefix-sharing block table "
    "(every turn re-feeds its history; block reuse carries the run)",
)
def _prefix_heavy_agents(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="prefix-heavy-agents",
        description="prefix-dominated agent sessions on one instance",
        doc=(
            "16 agent sessions × 6 turns where each turn's prompt is "
            "the previous turn's full context plus a short message — "
            "the block table maps the shared history onto cached "
            "blocks instead of re-allocating it (the BENCH_prefix "
            "workload; ≥30% GPU-block savings vs the same turns with "
            "session ids stripped).  Axes: scale, seed."
        ),
        system="tokenflow",
        hardware="h200",
        model="llama3-8b",
        mem_frac=0.02,
        max_batch=32,
        scale=scale,
        seed=seed,
        workload=_prefix_agent_workload,
    )


def _rag_replay_workload(spec: ScenarioSpec) -> list:
    """Concurrent replays of shared RAG prompts.

    ``n_groups`` retrieval corpora, each replayed by a burst of
    near-simultaneous requests that share a long ``prefix_len`` prompt
    head (the corpus + system prompt) and differ only in a short user
    question.  Because group members overlap in time, later members
    attach to the first member's *live* published chain — the
    copy-on-write fork path — rather than to a retired cache.
    """
    n_groups = max(2, int(6 * spec.scale))
    members = 8
    rate = 10.0
    rng = RngStreams(spec.seed).stream("rag-replay")
    requests: list = []
    req_id = 0
    for group in range(n_groups):
        group_start = group * 4.0
        prefix_len = int(rng.integers(256, 640))
        for _ in range(members):
            question = int(rng.integers(16, 96))
            requests.append(
                Request(
                    req_id=req_id,
                    arrival_time=group_start + float(rng.uniform(0.0, 1.5)),
                    prompt_len=prefix_len + question,
                    output_len=int(rng.integers(32, 96)),
                    rate=rate,
                    prefix_group=group,
                    prefix_len=prefix_len,
                )
            )
            req_id += 1
    requests.sort(key=lambda r: (r.arrival_time, r.req_id))
    return requests


@register_scenario(
    "rag-replay",
    "concurrent shared-prompt (RAG) replays on the prefix-sharing "
    "block table — live sharing and copy-on-write forks",
)
def _rag_replay(scale: float = 1.0, seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="rag-replay",
        description="bursts of requests replaying shared RAG prompts",
        doc=(
            "Groups of 8 near-simultaneous requests share a 256–640 "
            "token corpus prompt (prefix_group/prefix_len) and differ "
            "only in a short question: later members attach to the "
            "first member's live published chain, so this family "
            "exercises concurrent sharing and CoW forks, not just "
            "retired-cache reuse.  Axes: scale, seed."
        ),
        system="tokenflow",
        hardware="h200",
        model="llama3-8b",
        mem_frac=0.02,
        max_batch=32,
        scale=scale,
        seed=seed,
        workload=_rag_replay_workload,
    )
