"""The equivalence oracle: one deep state, one run memo, one knob table.

Every exactness-preserving execution knob is one row of :data:`KNOBS`:
a reference setting, its variants, and the fields left out of the
comparison or bounded instead of equal, with the cause.
:func:`outcome` executes each distinct (cell, setting) once per
session and checks the run's end state and frozen data; :func:`check`
compares a row's runs.  The tests that pin a behaviour sweep its row.
"""

from __future__ import annotations

import collections
import dataclasses
import fnmatch
import hashlib
import json
import math
import numbers
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional
from unittest import mock

from repro.scenarios import build_run, get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.serving import shard
from repro.serving.cluster import ClusterReport
from repro.serving.metrics import StreamingRunStats, report_fingerprint
from repro.serving.routers import make_router
from repro.serving.stages import DecodeStream, DecodeWindow
from repro.sim.trace import TraceRecorder
from repro.workload.request import Request

HERE = Path(__file__).resolve().parent
FROZEN = json.loads((HERE / "classic_cluster_digests.json").read_text())
SCALAR_REFERENCE = json.loads(
    (HERE / "scalar_decode_reference.json").read_text())["cells"]


# --- knob implementations ----------------------------------------------------

def _never_fuse(self, *args):
    return DecodeWindow("reference")


def per_iteration():
    """A context manager under which decode runs one engine event per
    iteration: ``_plan_fused`` plans ``k == 1`` windows, so no boundary
    is replayed and every tick is applied by ``on_tick`` itself.  It
    patches this process only; a cluster must run its shards inline."""
    return mock.patch.object(DecodeStream, "_plan_fused", _never_fuse)


def _strip(request):
    request.session_id = None
    request.prefix_group = None
    request.prefix_len = 0
    return request


def identity_stripped(spec):
    """``spec`` with every request's sharing identity cleared, so every
    KV block is a fresh per-request allocation: the baseline a prefix
    sharing run's savings are measured against."""
    changes = {}
    if spec.workload is not None:
        workload = spec.workload
        changes["workload"] = lambda s: [_strip(r) for r in workload(s)]
    if spec.workload_stream is not None:
        stream = spec.workload_stream
        changes["workload_stream"] = lambda s: map(_strip, stream(s))
    return spec.with_overrides(**changes)


@contextmanager
def _instances(run, traced):
    """Yields the serving instances ``run`` builds in this process, in
    ``report.per_instance`` order, each with a recorder if ``traced``:
    every category on one node, the executor's on a cluster's many."""
    if not run.is_cluster:
        run.target.tracer = TraceRecorder() if traced else None
        yield [run.target]
        return
    instances = []
    init = shard.ShardHost.__init__

    def recording(host, *args, **kwargs):
        init(host, *args, **kwargs)
        for system in host.instances:
            system.tracer = (TraceRecorder(categories=["executor"])
                             if traced else None)
            instances.append(system)

    with mock.patch.object(shard.ShardHost, "__init__", recording):
        yield instances


@contextmanager
def _retirement_checks():
    """Checks each request as streaming telemetry retires it: it
    delivered its whole output.  Yields counts per stats object."""
    checked = collections.Counter()
    observe = StreamingRunStats.observe

    def checking(stats, request, buffer):
        assert request.generated == request.output_len == buffer.delivered, (
            request.req_id)
        checked[id(stats)] += 1
        observe(stats, request, buffer)

    with mock.patch.object(StreamingRunStats, "observe", checking):
        yield checked


def check_end_of_run(system, retired) -> int:
    """A finished node holds no KV records, an empty host pool and only
    cached (refs-0) prefix blocks on the GPU; its PCIe links were busy
    exactly as long as the bytes the KV manager counts take at link
    bandwidth; and every request delivered all it generated.  Returns
    how many requests that saw, in the tracker or in ``retired``."""
    kv = system.kv
    assert not kv._records
    assert kv.cpu_pool.used == 0
    assert kv.gpu_pool.used == len(kv.prefix.index) == len(kv.prefix.cached)
    kv.check_invariants()
    stats, link = kv.stats, kv.link
    written = stats["write_through_bytes"] + stats["eviction_tail_bytes"]
    for direction, moved in ((link.d2h, written), (link.h2d, stats["load_bytes"])):
        assert math.isclose(direction.busy_time * direction.bandwidth, moved,
                            rel_tol=1e-9, abs_tol=1e-12)
    if system.stream_stats is not None:
        assert len(system.tracker) == 0
        assert retired[id(system.stream_stats)] == system.stream_stats.n_requests
        return system.stream_stats.n_requests
    entries = list(system.tracker.entries())
    for entry in entries:
        request = entry.request
        assert request.generated == request.output_len == entry.buffer.delivered, (
            request.req_id)
    return len(entries)


# --- the deep state ----------------------------------------------------------

METRICS = (
    "n_requests", "n_finished", "makespan", "total_tokens", "throughput",
    "effective_tokens", "effective_throughput", "qos", "ttft_mean",
    "ttft_p50", "ttft_p99", "stall_total", "stall_mean", "preemptions",
)
COORDINATION = ("coordination_rounds", "messages_sent", "speculation_hits",
                "speculation_misses")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fold(state, prefix, report) -> None:
    for key in METRICS:
        state[f"{prefix}metrics.{key}"] = getattr(report, key)
    state[prefix + "per_request"] = _sha(
        repr([dataclasses.astuple(m) for m in report.per_request]))
    # The form scalar_decode_reference.json hashes.
    state[prefix + "timeline"] = _sha(
        json.dumps([list(map(float, s)) for s in report.timeline]))
    for group, stats in (("executor", report.executor_stats),
                         ("kv", report.kv_stats),
                         ("scheduler", report.scheduler_stats)):
        for key, value in stats.items():
            state[f"{prefix}{group}.{key}"] = value


def _field(key: str) -> str:
    """``key`` without its ``instance[i].`` prefix."""
    return key.split("].", 1)[1] if key.startswith("instance[") else key


def _matches(key, patterns) -> bool:
    return any(fnmatch.fnmatchcase(_field(key), p) or fnmatch.fnmatchcase(key, p)
               for p in patterns)


def values(state, field) -> list:
    """Every instance's (or the one node's) value of ``field``."""
    return [v for k, v in state.items() if _field(k) == field]


def deep_state(run, report, exclude=()) -> dict:
    """Everything observable from one run, as ``field -> value``:
    ``run`` is a ``ScenarioRun``, a built target, or ``None`` for a
    report alone.  Floats stay unrounded; per-request rows, timelines
    and placements enter as SHA-256 of their exact text.  A cluster's
    aggregate folds in at the top level and instance ``i`` under
    ``instance[i].``; ``exclude`` patterns match either way."""
    target = getattr(run, "target", run)
    state: dict = {}
    if isinstance(report, ClusterReport):
        _fold(state, "", report.aggregate)
        for i, node in enumerate(report.per_instance):
            _fold(state, f"instance[{i}].", node)
        for key in COORDINATION:
            state["coordination." + key] = getattr(report, key)
        if target is not None:
            state["placements"] = _sha(repr(sorted(target.placements.items())))
            state["placement_counts"] = tuple(target.placement_counts())
            state["events"] = sum(target.shard_events)
    else:
        _fold(state, "", report)
        if target is not None:
            state["events"] = target.engine.events_processed
    return {k: v for k, v in state.items() if not _matches(k, exclude)}


# --- frozen data -------------------------------------------------------------

def _rounded(value):
    """``value`` with floats at 12 significant digits, containers as lists.

    Frozen digests hash this form, so a last-bit SIMD difference on
    another CPU cannot flake one, and ``repr`` text, so instances that
    routed zero requests (NaN latency fields) still compare equal."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    if isinstance(value, dict):
        return [_rounded(item) for item in sorted(value.items())]
    return value


def deep_fp(target, report) -> str:
    """SHA-256 of everything observable from one cluster run.

    Covers the aggregate fingerprint, each instance's full fingerprint
    plus executor/kv/scheduler stats, timeline and preemptions, and the
    routing record (placements + per-instance counts).
    """
    per = [
        (
            report_fingerprint(r),
            sorted(r.executor_stats.items()),
            sorted(r.kv_stats.items()),
            sorted(r.scheduler_stats.items()),
            list(r.timeline),
            r.preemptions,
        )
        for r in report.per_instance
    ]
    state = (
        report_fingerprint(report.aggregate),
        per,
        sorted(target.placements.items()),
        target.placement_counts(),
    )
    return hashlib.sha256(repr(_rounded(state)).encode()).hexdigest()


def frozen_registry(name, scale, router, seed, streamed) -> str:
    intake = "feed" if streamed else "submit"
    return FROZEN["registry"][f"{name}@{scale}/{router}/seed{seed}/{intake}"]


def assert_matches_scalar_reference(state, label):
    """``state`` reproduces the frozen scalar decode run ``label``
    (``name@scale/seedN``): its metrics to rel 1e-9, which another
    CPU's last-bit float differences stay within, and for single-node
    cells its executor iteration/token counts and timeline exactly."""
    entry = SCALAR_REFERENCE[label]
    for key, expected in entry["metrics"].items():
        assert math.isclose(state["metrics." + key], expected,
                            rel_tol=1e-9, abs_tol=1e-9), (label, key)
    for key, expected in entry.get("executor", {}).items():
        assert state["executor." + key] == expected, (label, key)
    if "timeline_sha256" in entry:
        assert state["timeline"] == entry["timeline_sha256"], label


# --- cells, settings and the run memo ----------------------------------------

DIRECT = "direct"


def direct_requests(n=48):
    """The synthetic cluster workload: deterministic arrivals, already
    ordered for ``feed``, in five sessions."""
    return [Request(req_id=i, arrival_time=0.03 * i,
                    prompt_len=64 + (i * 13) % 96, output_len=32 + (i * 7) % 64,
                    rate=20.0, session_id=i % 5)
            for i in range(n)]


@dataclass(frozen=True)
class Cell:
    """A registry scenario at a scale and seed, with optional router and
    replica overrides; or :data:`DIRECT`, the synthetic 4-replica
    cluster of ``classic_cluster_digests.json``'s ``direct`` entries."""

    name: str
    scale: float = 1.0
    seed: int = 0
    router: Optional[str] = None
    replicas: Optional[int] = None

    def spec(self) -> ScenarioSpec:
        if self.name == DIRECT:
            return ScenarioSpec(name=DIRECT, replicas=4, router=self.router,
                                mem_frac=0.02, max_batch=16)
        overrides = {key: value for key, value in
                     (("router", self.router), ("replicas", self.replicas))
                     if value is not None}
        return get_scenario(self.name, scale=self.scale, seed=self.seed,
                            **overrides)


@dataclass(frozen=True)
class Setting:
    """One point of the knob space; the defaults are a plain run, and
    ``None`` takes the spec's own intake (``streamed``) or telemetry
    mode (``retain``)."""

    per_iteration: bool = False
    streamed: Optional[bool] = None
    shards: int = 1
    transport: str = "inline"
    stripped: bool = False
    traced: bool = False
    retain: Optional[bool] = None
    repeat: int = 0

    def but(self, **changes) -> "Setting":
        return dataclasses.replace(self, **changes)


PLAIN = Setting()
EVERY_REPLICA = 64  # one replica per shard: clusters clamp shards to replicas
# Scales that keep a sweep of every registry scenario small (else 0.1).
SMALL = {"soak-steady": 0.002, "soak-diurnal": 0.002, "cluster-soak-64x": 0.02,
         "bursty-sessions": 0.25, "cluster-burst-4x": 0.25,
         "prefix-heavy-agents": 0.25, "rag-replay": 0.25}


@dataclass
class Outcome:
    """A run's deep state, a cluster's :func:`deep_fp`, the requests
    :func:`check_end_of_run` saw (``None`` on worker processes) and a
    traced run's window cuts."""

    state: dict
    digest: Optional[str] = None
    conserved: Optional[int] = None
    cuts: frozenset = frozenset()


_MEMO: dict = {}


def resolve(cell: Cell, setting: Setting) -> tuple:
    """``(cell, setting)`` with defaults made explicit and the knobs the
    cell ignores reset, so runs that cannot differ share a memo key."""
    spec = cell.spec()
    changes = {}
    if setting.streamed is None:
        changes["streamed"] = spec.is_stream_native
    if setting.retain is None:
        changes["retain"] = spec.retain_per_request
    if spec.replicas == 1:
        cell = dataclasses.replace(cell, router=None)
        changes.update(shards=1, transport="inline")
    else:
        cell = dataclasses.replace(cell, router=spec.router)
        changes["shards"] = min(setting.shards, spec.replicas)
    return cell, setting.but(**changes)


def outcome(cell: Cell, setting: Setting = PLAIN) -> Outcome:
    """The run of ``cell`` under ``setting``, executed at most once per
    session.  A run whose knobs leave its reports unchanged by design
    must also reproduce the frozen data its cell has an entry in."""
    key = cell, setting = resolve(cell, setting)
    if key not in _MEMO:
        run = _execute(cell, setting)
        if not (setting.stripped or setting.retain != cell.spec().retain_per_request):
            _check_frozen(cell, setting, run)
        _MEMO[key] = run
    return _MEMO[key]


def _check_frozen(cell: Cell, setting: Setting, run: Outcome) -> None:
    label = f"{cell.name}@{cell.scale}/seed{cell.seed}"
    if setting.per_iteration:
        # The scalar reference recorded one engine event per iteration.
        if (label in SCALAR_REFERENCE and cell.replicas is None
                and cell.router in (None, get_scenario(cell.name).router)):
            assert_matches_scalar_reference(run.state, label)
        return
    # Digests hash the fusion counters, which per-iteration runs zero.
    intake = "feed" if setting.streamed else "submit"
    want = (FROZEN["direct"][cell.router] if cell.name == DIRECT else
            FROZEN["registry"].get(f"{cell.name}@{cell.scale}/{cell.router}/"
                                   f"seed{cell.seed}/{intake}"))
    assert want is None or run.digest == want, f"{cell} diverged from its frozen digest"


def _window_cuts(systems, report) -> frozenset:
    """The cuts the recorders saw; one ``decode_start`` per executor
    event accounts for every decode iteration and fused window."""
    nodes = report.per_instance if isinstance(report, ClusterReport) else [report]
    cuts = set()
    for system, node in zip(systems, nodes):
        decodes = system.tracer.by_event("decode_start")
        windows = [r.fields["iterations"] for r in decodes
                   if r.fields["iterations"] > 1]
        stats = node.executor_stats
        assert (sum(r.fields["iterations"] for r in decodes), len(windows),
                sum(windows)) == (stats["decode_iterations"],
                                  stats["fused_windows"], stats["fused_iterations"])
        assert all(r.fields["duration"] > 0 for r in decodes)
        cuts.update(r.fields["cut"] for r in decodes)
    return frozenset(cuts)


def _execute(cell: Cell, setting: Setting) -> Outcome:
    spec = cell.spec().with_overrides(retain_per_request=setting.retain)
    requests = direct_requests() if cell.name == DIRECT else None
    if setting.stripped:
        spec = identity_stripped(spec)
        requests = requests and [_strip(r) for r in requests]
    if spec.replicas > 1:
        spec = spec.with_overrides(shards=setting.shards)
    run = build_run(spec, requests=requests)
    if run.is_cluster:
        run.target.transport = setting.transport
    with ExitStack() as stack:
        if setting.per_iteration:
            stack.enter_context(per_iteration())
        systems = stack.enter_context(_instances(run, setting.traced))
        retired = stack.enter_context(_retirement_checks())
        report = run.execute(streamed=setting.streamed)
    conserved = None
    if systems:
        conserved = sum(check_end_of_run(s, retired) for s in systems)
        assert conserved == report.n_requests, (conserved, report.n_requests)
    return Outcome(
        deep_state(run, report),
        digest=deep_fp(run.target, report) if run.is_cluster else None,
        conserved=conserved,
        cuts=_window_cuts(systems, report) if setting.traced else frozenset(),
    )


# --- the knob table ----------------------------------------------------------

LE = "<="  # a bound: the variant's value is at most the reference's


@dataclass(frozen=True)
class Knob:
    """``reference`` and each of ``variants`` are ``Setting`` changes to
    a case's base; their deep states are equal but for ``exclude`` and
    ``bounds`` (``LE`` or a relative tolerance), for the reason ``why``,
    and each variant passes ``invariant``.  A row without variants
    compares runs its caller makes, through :func:`compare`."""

    reference: dict
    variants: tuple
    why: str
    exclude: tuple = ()
    bounds: dict = dataclasses.field(default_factory=dict)
    invariant: Optional[Callable] = None


def _fused(state) -> int:
    return sum(values(state, "executor.fused_windows"))


def _fusion_invariant(reference, variant, cell):
    # The patch turned fusion off, and the default run fused.
    assert _fused(reference.state) == 0 < _fused(variant.state), cell


def _identity_invariant(reference, variant, cell):
    # With no identity in the workload the KV counters match too.
    if not any(values(reference.state, "kv.prefix_lookups")):
        kv = [k for k in reference.state if _matches(k, ["kv.*"])]
        assert all(reference.state[k] == variant.state[k] for k in kv), cell


def _trace_invariant(reference, variant, cell):
    # The recorders saw fused windows, and a dispatch cutting one where
    # the router lets windows run through other replicas' dispatches.
    spec = cell.spec()
    assert _fused(variant.state) > 0, cell
    if spec.replicas > 1 and make_router(spec.router).windows_span_dispatches:
        assert "dispatch" in variant.cuts, cell


KNOBS = {
    "per_iteration": Knob(
        {"per_iteration": True}, ({},), "a k-iteration fused window is one event",
        exclude=("executor.fused_windows", "executor.fused_iterations"),
        bounds={"events": LE}, invariant=_fusion_invariant),
    "streamed": Knob({"streamed": False}, ({"streamed": True},),
                     "exact: each arrival pops its successor in its own event"),
    "shards": Knob({"shards": 1}, ({"shards": 2}, {"shards": 4}),
                   "coordination rounds and messages count the execution",
                   exclude=("coordination.*",)),
    "one_per_shard": Knob({"shards": 1}, ({"shards": EVERY_REPLICA},),
                          "as shards, at one replica per shard",
                          exclude=("coordination.*",)),
    "transport": Knob({"transport": "inline"}, ({"transport": "process"},),
                      "exact: the same messages cross a pipe instead of a call"),
    "identities": Knob(
        {}, ({"stripped": True},), "sharing saves blocks and nothing else",
        exclude=("kv.prefix_*", "kv.cow_forks", "kv.cache_promotes",
                 "kv.gpu_blocks_allocated", "kv.gpu_peak_blocks"),
        invariant=_identity_invariant),
    "tracer": Knob({}, ({"traced": True},), "exact: a recorder only observes",
                   invariant=_trace_invariant),
    "matrix": Knob(
        {}, (), "a matrix cell returns the flattened report; events, "
        "instances and routing stay in the worker",
        exclude=("events", "instance[*", "placements", "placement_counts",
                 "coordination.*")),
    "repeat": Knob({}, ({"repeat": 1},), "exact: nothing leaks between runs"),
    "retain_per_request": Knob(
        {"retain": True}, ({"retain": False},),
        "streaming telemetry keeps no per-request rows, takes percentiles "
        "from a 1% log-bucket sketch and sums in retirement order, a few "
        "ulp off (ROADMAP item 13)",
        exclude=("per_request",),
        bounds={"metrics.ttft_p50": 0.15, "metrics.ttft_p99": 0.15,
                "metrics.effective_tokens": 1e-12, "metrics.qos": 1e-12,
                "metrics.effective_throughput": 1e-12,
                "metrics.ttft_mean": 1e-12}),
}


def compare(row: str, reference: dict, variant: dict, label="") -> None:
    """Two deep states agree as row ``row`` of :data:`KNOBS` demands."""
    knob = KNOBS[row]
    ref = {k: v for k, v in reference.items() if not _matches(k, knob.exclude)}
    var = {k: v for k, v in variant.items() if not _matches(k, knob.exclude)}
    problems = [f"{key}: in one run only" for key in sorted(ref.keys() ^ var.keys())]
    for key in sorted(ref.keys() & var.keys()):
        a, b = ref[key], var[key]
        bound = next((v for p, v in knob.bounds.items() if _matches(key, [p])), None)
        if bound is None:
            same = repr(a) == repr(b)
        elif bound == LE:
            same = b <= a
        else:
            same = math.isclose(b, a, rel_tol=bound)
        if not same:
            problems.append(f"{key}: {a!r} -> {b!r}")
    assert not problems, f"{row} {label}: " + "; ".join(problems[:12])


def check(row: str, cell: Cell, base: Setting = PLAIN) -> None:
    """Row ``row`` of :data:`KNOBS` holds on ``cell`` from ``base``."""
    knob = KNOBS[row]
    reference = outcome(cell, base.but(**knob.reference))
    for changes in knob.variants:
        setting = base.but(**changes)
        variant = outcome(cell, setting)
        compare(row, reference.state, variant.state, f"{cell} {setting}")
        if knob.invariant is not None:
            knob.invariant(reference, variant, cell)
