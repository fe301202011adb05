"""The shard-coordinator cluster against its frozen reference answers.

The contract under test: :class:`~repro.serving.shard.ShardedServingCluster`
partitions a replica cluster across shard hosts that each advance to a
conservative horizon (the router's next dispatch time), yet the final
:class:`~repro.serving.cluster.ClusterReport` is **bit-identical** for
every built-in router, any shard count, both workload intake paths
(``submit`` and ``feed``), and both transports (in-process ``inline``
and ``process`` workers).  Under ``round_robin`` and ``least_queued``
(``Router.windows_span_dispatches``) a replica's fused decode windows
run through other replicas' dispatches, and a dispatch that lands on
it cuts its window; those runs are also compared exactly with the
per-iteration run.

The reference is ``classic_cluster_digests.json``: deep-fingerprint
digests recorded from the shared-engine cluster this coordinator
replaced, one per router × workload × seed × intake path, and
re-frozen three times: when the prefix-sharing block table became the
only KV allocator (only ``kv_stats`` moved), when fused decode windows
began running through idle scheduler ticks, and when ``round_robin``
and ``least_queued`` windows began running through other replicas'
dispatches (both times only the executor's ``fused_windows`` /
``fused_iterations`` moved).  Every run here must reproduce its
frozen digest.

Fingerprints round floats to 12 significant digits before hashing, so
a last-bit SIMD difference on another CPU cannot flake a digest, and
compare ``repr`` text, so instances that routed zero requests (NaN
latency fields) still compare equal.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import numbers
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.experiments.systems import SchedulerRecipe
from repro.scenarios.build import build_run
from repro.scenarios.registry import get_scenario
from repro.serving.metrics import report_fingerprint
from repro.serving import shard
from repro.serving.routers import ROUTERS, LeastQueuedRouter, Router, make_router
from repro.serving.shard import ShardedServingCluster
from repro.workload.request import Request
from tests.conftest import homogeneous_cluster

# Registry cluster scenarios with a scale that keeps each run small
# enough for an exhaustive sweep (the soak scenario runs 64 replicas,
# so it gets the tiniest workload slice).
CLUSTER_SCENARIOS = {
    "cluster-burst-4x": 0.25,
    "bursty-sessions": 0.25,
    "cluster-soak-64x": 0.02,
}

ALL_ROUTERS = sorted(ROUTERS)

# Every configuration a frozen digest must hold under: (shards, transport).
LAYOUTS = ((1, "inline"), (2, "inline"), (4, "inline"), (2, "process"))

FROZEN = json.loads(
    (Path(__file__).resolve().parent / "classic_cluster_digests.json").read_text()
)


# --- fingerprint helpers -----------------------------------------------------

def _rounded(value):
    """``value`` with floats at 12 significant digits, containers as lists."""
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


def run_registry(name, *, scale, seed, router, shards=1,
                 transport="inline", streamed=False):
    """Build and execute one registry scenario; return (target, fingerprint)."""
    spec = get_scenario(name, scale=scale, seed=seed, router=router,
                        shards=shards)
    run = build_run(spec)
    run.target.transport = transport
    report = run.execute(streamed=streamed)
    return run.target, deep_fp(run.target, report)


# --- direct-API helpers ------------------------------------------------------

def _requests(n=48):
    """Deterministic synthetic arrivals (already ordered for ``feed``)."""
    return [
        Request(
            req_id=i,
            arrival_time=0.03 * i,
            prompt_len=64 + (i * 13) % 96,
            output_len=32 + (i * 7) % 64,
            rate=20.0,
            session_id=i % 5,
        )
        for i in range(n)
    ]


def _cluster(n=4, router="least_loaded", shards=2, transport="inline"):
    return homogeneous_cluster(
        n, SchedulerRecipe("tokenflow"), router=router,
        shards=shards, transport=transport,
        mem_frac=0.02, max_batch=16,
    )


def _run(router="least_loaded", shards=2, transport="inline", until=None,
         via_feed=False):
    cluster = _cluster(router=router, shards=shards, transport=transport)
    if via_feed:
        cluster.feed(iter(_requests()))
    else:
        cluster.submit(_requests())
    cluster.run(until=until)
    return cluster


def _fp(**kwargs):
    cluster = _run(**kwargs)
    return deep_fp(cluster, cluster.report())


# --- fast lane: direct API ---------------------------------------------------

@pytest.mark.parametrize("router", ALL_ROUTERS)
def test_inline_parity_every_router(router):
    """K ∈ {1, 2, 4} inline shards reproduce the frozen run bit-for-bit."""
    for shards in (1, 2, 4):
        assert _fp(router=router, shards=shards) == FROZEN["direct"][router], (
            f"router={router} shards={shards}"
        )


def test_shard_count_invariance():
    """A registry scenario gives one answer at K ∈ {1, 2, 4}."""
    want = frozen_registry("cluster-burst-4x", 0.25, "least_loaded", 0, False)
    for shards in (1, 2, 4):
        _, fp = run_registry("cluster-burst-4x", scale=0.25, seed=0,
                             router="least_loaded", shards=shards)
        assert fp == want, f"shards={shards}"


def test_process_transport_parity():
    """Real worker processes: state crosses pickling boundaries intact."""
    assert _fp(router="least_loaded", shards=2,
               transport="process") == FROZEN["direct"]["least_loaded"]


def test_process_transport_stateless_router():
    """round_robin exercises the buffered (non-pausing) fast path."""
    assert _fp(router="round_robin", shards=2,
               transport="process") == FROZEN["direct"]["round_robin"]


def test_feed_matches_submit():
    want = FROZEN["direct"]["least_queued"]
    assert _fp(router="least_queued", via_feed=True) == want
    assert _fp(router="least_queued", via_feed=False) == want


def test_horizon_truncation_matches_classic():
    """Requests past the horizon stay pending, matching the frozen run."""
    want = FROZEN["direct_truncated"]["least_loaded"]
    horizon = 0.03 * 24  # strands roughly half the synthetic arrivals
    for shards in (1, 2):
        cluster = _run(router="least_loaded", shards=shards, until=horizon)
        assert cluster.unfinished == want["unfinished"]
        assert deep_fp(cluster, cluster.report()) == want["digest"]


def test_shards_clamped_to_replicas():
    cluster = _cluster(n=4, shards=16)
    assert cluster.shards == 4


def test_non_shardable_router_rejected():
    """A router must implement the metrics/selection split to exist."""
    class OpaqueRouter(Router):
        name = "opaque"

    with pytest.raises(TypeError, match="select_from_metrics"):
        OpaqueRouter()


def test_env_switch_selects_inline_transport(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_INLINE", "1")
    assert _cluster(transport=None).transport == "inline"
    monkeypatch.delenv("REPRO_SHARD_INLINE")
    assert _cluster(transport=None).transport == "process"
    # One shard gains nothing from a worker process.
    assert _cluster(shards=1, transport=None).transport == "inline"


def test_run_twice_raises():
    cluster = _cluster()
    cluster.submit(_requests(8))
    cluster.run()
    with pytest.raises(RuntimeError, match="already ran"):
        cluster.run()
    with pytest.raises(RuntimeError, match="already ran"):
        cluster.submit(_requests(1))


@pytest.mark.parametrize("submit_first", [True, False])
def test_submit_and_feed_do_not_mix(submit_first):
    """Submitted requests and a fed stream cannot share one run: the
    second intake raises instead of one of them being dropped."""
    cluster = _cluster(n=2, router="round_robin", shards=1)
    requests = _requests(5)
    if submit_first:
        cluster.submit(requests[:3])
        with pytest.raises(ValueError, match="submit or feed"):
            cluster.feed(iter(requests[3:]))
    else:
        cluster.feed(iter(requests[3:]))
        with pytest.raises(ValueError, match="submit or feed"):
            cluster.submit(requests[:3])
    # The intake that was accepted still runs in full.
    cluster.run()
    report = cluster.report()
    assert report.aggregate.n_requests == (3 if submit_first else 2)
    assert cluster.unfinished == 0


def test_report_before_run_raises():
    with pytest.raises(RuntimeError, match="before report"):
        _cluster().report()


def test_scheduler_recipe_pickles():
    recipe = pickle.loads(pickle.dumps(SchedulerRecipe("tokenflow")))
    assert recipe().name == "tokenflow"


# --- fast lane: scenario/CLI plumbing ---------------------------------------

def test_build_run_shards_one_uses_inline_coordinator():
    spec = get_scenario("cluster-burst-4x", scale=0.1, shards=1)
    run = build_run(spec)
    assert isinstance(run.target, ShardedServingCluster)
    assert run.target.shards == 1
    assert run.target.transport == "inline"
    spec = get_scenario("cluster-burst-4x", scale=0.1, shards=2)
    run = build_run(spec)
    assert isinstance(run.target, ShardedServingCluster)
    assert run.target.shards == 2


def test_sharded_cells_inside_matrix_workers():
    """Sharded cells run (and exit) cleanly inside pool workers.

    A nested warm pool inside a matrix worker deadlocks worker
    shutdown (multiprocessing joins the worker's children before the
    nested executor's atexit shutdown runs), so the cluster must fall
    back to the inline transport off the main process — with
    identical results.
    """
    from repro.orchestration import MatrixSpec, run_matrix

    spec = MatrixSpec.from_axes(
        scenarios=["cluster-burst-4x"], shards=[1, 2], seeds=[0], scale=0.05
    )
    report = run_matrix(spec, jobs=2, cache=False)
    cells = report.cells
    assert all(cell.ok for cell in cells), [cell.status for cell in cells]
    assert repr(report_fingerprint(cells[0].report)) == repr(
        report_fingerprint(cells[1].report)
    )


def test_registry_parity_process_transport():
    """One registry scenario end-to-end through real worker processes."""
    _, fp = run_registry("cluster-burst-4x", scale=0.25, seed=0,
                         router="least_loaded", shards=2, transport="process")
    assert fp == frozen_registry("cluster-burst-4x", 0.25, "least_loaded", 0,
                                 False)


# --- fault injection ---------------------------------------------------------

class _DyingRouter(LeastQueuedRouter):
    """least_queued whose shard-side measurement kills its worker."""

    name = "dying_test"

    def instance_metrics(self, instance, request):
        if (request.req_id >= 10
                and multiprocessing.current_process().name != "MainProcess"):
            os._exit(1)
        return super().instance_metrics(instance, request)


def test_dead_worker_fails_the_run_fast():
    """A shard worker dying mid-run fails ``run()`` in seconds, not at
    ``GATHER_TIMEOUT_S``, and the reset pool serves the next run."""
    cluster = _cluster(router=_DyingRouter(), shards=2, transport="process")
    cluster.submit(_requests())
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="died"):
        cluster.run()
    assert time.monotonic() - t0 < 10.0
    assert _fp(router="least_loaded", shards=2,
               transport="process") == FROZEN["direct"]["least_loaded"]


# --- slow lane: exhaustive registry sweep ------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("router", ALL_ROUTERS)
@pytest.mark.parametrize("name", sorted(CLUSTER_SCENARIOS))
def test_registry_sweep_bit_identical(name, router, seed):
    """Scenarios × routers × seeds × {submit, feed} × layouts: every run
    reproduces its frozen digest."""
    scale = CLUSTER_SCENARIOS[name]
    for streamed in (False, True):
        want = frozen_registry(name, scale, router, seed, streamed)
        for shards, transport in LAYOUTS:
            _, fp = run_registry(
                name, scale=scale, seed=seed, router=router, shards=shards,
                transport=transport, streamed=streamed,
            )
            assert fp == want, (
                f"{name} router={router} seed={seed} streamed={streamed} "
                f"shards={shards} transport={transport}"
            )


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CLUSTER_SCENARIOS))
def test_registry_shard_count_invariance(name):
    """The extreme partition (one replica per shard) gives the frozen
    answer and processes exactly the events one shard does."""
    scale = CLUSTER_SCENARIOS[name]
    router = get_scenario(name, scale=scale).router
    want = frozen_registry(name, scale, router, 0, False)
    one, fp = run_registry(name, scale=scale, seed=0, router=router)
    assert fp == want
    replicas = get_scenario(name, scale=scale).replicas
    split, fp = run_registry(name, scale=scale, seed=0, router=router,
                             shards=replicas)
    assert fp == want
    assert sum(split.shard_events) == sum(one.shard_events)


@pytest.mark.slow
def test_soak_process_transport_parity():
    """64 replicas over 4 real worker processes, round_robin fast path."""
    _, fp = run_registry("cluster-soak-64x", scale=0.02, seed=0,
                         router="round_robin", shards=4, transport="process",
                         streamed=True)
    assert fp == frozen_registry("cluster-soak-64x", 0.02, "round_robin", 0,
                                 True)


# --- windows through other replicas' dispatches ------------------------------
#
# Under routers whose reads a fused window cannot change, a replica's
# window runs through dispatches to other replicas, and a dispatch that
# lands on it cuts the window at the first boundary after the arrival.
# The per-iteration run is the reference, compared exactly.

def _instance_states(report):
    return [
        (repr(report_fingerprint(r)), r.scheduler_stats, r.kv_stats,
         list(r.timeline))
        for r in report.per_instance
    ]


def _cut_cells(router, shards):
    """Reports of the direct cluster and of a small soak cell."""
    direct = _run(router=router, shards=shards).report()
    spec = get_scenario("cluster-soak-64x", scale=0.02, seed=0,
                        router=router, shards=shards)
    run = build_run(spec)
    run.target.transport = "inline"
    soak = run.execute(streamed=True)
    return direct, soak


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("router", ["round_robin", "least_queued"])
def test_windows_span_dispatches_exactly(router, shards, per_iteration):
    assert make_router(router).windows_span_dispatches
    with per_iteration():
        reference = _cut_cells(router, shards)
    fused = _cut_cells(router, shards)
    for ref, run in zip(reference, fused):
        assert _instance_states(run) == _instance_states(ref)
        assert sum(r.executor_stats["fused_windows"]
                   for r in run.per_instance) > 0
        assert ([r.executor_stats["decode_iterations"] for r in run.per_instance]
                == [r.executor_stats["decode_iterations"] for r in ref.per_instance])


def test_ladder_routers_keep_the_dispatch_horizon():
    """Routers that read what a window defers keep the ladder: their
    instances' windows end before the cluster's next dispatch."""
    spanning = {name for name, cls in ROUTERS.items()
                if cls.windows_span_dispatches}
    assert spanning == {"round_robin", "least_queued"}
    configs = _cluster().configs[:2]
    for name in ROUTERS:
        host = shard.ShardHost(0, configs, SchedulerRecipe("tokenflow"),
                               make_router(name), None)
        assert all((i.engine.external_horizon is None) == (name in spanning)
                   for i in host.instances), name


# --- dispatch accounting -----------------------------------------------------
#
# The trajectory-snapshot mirror (Router.speculative) changes nothing
# observable except the coordination counters: every stateful dispatch
# is resolved either by a coordination round or from the mirror.

@pytest.mark.parametrize("router", ALL_ROUTERS)
def test_dispatch_accounting(router):
    cluster = _run(router=router)
    report = cluster.report()
    n = report.n_requests
    assert report.speculation_misses == 0
    if router == "round_robin":
        assert report.coordination_rounds == report.speculation_hits == 0
    elif router == "session_affinity":
        # Only each session's first turn needs state; later turns stick.
        sessions = len({r.session_id for r in _requests()})
        assert report.coordination_rounds + report.speculation_hits == sessions
    else:
        assert report.coordination_rounds + report.speculation_hits == n
    if not cluster.router.speculative:
        assert report.speculation_hits == 0


def test_speculation_counters_surface_in_cluster_report():
    cluster = _run(router="least_loaded")
    report = cluster.report()
    assert report.coordination_rounds == cluster.coordination_rounds
    assert report.messages_sent == cluster.messages_sent
    assert report.speculation_hits == cluster.speculation_hits > 0
    assert report.speculation_misses == 0
    stateless = _run(router="round_robin", shards=1).report()
    assert stateless.coordination_rounds == 0
    assert stateless.speculation_hits == 0


def test_speculation_cuts_rounds():
    """least_loaded resolves arrivals from the mirror: fewer rounds than
    stateful dispatches."""
    cluster = _run(router="least_loaded")
    n = len(_requests())
    assert 0 < cluster.coordination_rounds < n
    assert cluster.coordination_rounds + cluster.speculation_hits == n


def test_speculation_non_speculative_router_unchanged():
    """buffer_aware ships no snapshots: every stateful dispatch pauses."""
    cluster = _run(router="buffer_aware")
    assert cluster.coordination_rounds == len(_requests())
    assert cluster.speculation_hits == 0
    assert deep_fp(cluster, cluster.report()) == FROZEN["direct"]["buffer_aware"]


def test_speculation_process_transport_parity():
    """Snapshots pickle across the worker boundary intact."""
    cluster = _run(router="least_loaded", shards=2, transport="process")
    assert deep_fp(cluster, cluster.report()) == FROZEN["direct"]["least_loaded"]
    assert cluster.speculation_hits > 0


def test_session_affinity_speculation_folds_sticky_hits():
    """Sticky (stateless) placements must fold into the mirror too —
    matching the frozen run proves the folded trajectory stays exact."""
    cluster = _run(router="session_affinity")
    assert deep_fp(cluster, cluster.report()) == FROZEN["direct"]["session_affinity"]
    assert cluster.coordination_rounds < len(_requests())


def test_speculation_spec_plumbing():
    """Scenario runs use the mirror exactly when the router offers it."""
    for router, speculative in (("least_loaded", True), ("least_queued", False)):
        spec = get_scenario("cluster-burst-4x", scale=0.1, shards=2,
                            router=router)
        run = build_run(spec)
        run.target.transport = "inline"
        report = run.execute()
        assert run.target.router.speculative is speculative
        assert (report.speculation_hits > 0) is speculative
        assert report.coordination_rounds + report.speculation_hits == report.n_requests


# --- the shard protocol ------------------------------------------------------
#
# The coordinator sends three messages (apply, pause, finish); every
# send is one list per shard, one manager-queue put on the process
# transport.

@pytest.mark.parametrize("router", ["least_loaded", "least_queued"])
def test_protocol_sends_match_across_transports(router, monkeypatch):
    """Both transports receive the same send lists; a stateful round's
    list is the shard's buffered ``apply`` (if any), then ``pause``."""
    sends = {}

    def recording(cls):
        original = cls.send

        def send(self, shard_id, msgs):
            sends[cls].append((shard_id, [msg[0] for msg in msgs]))
            original(self, shard_id, msgs)
        return send

    for cls in (shard._InlineTransport, shard._ProcessTransport):
        sends[cls] = []
        monkeypatch.setattr(cls, "send", recording(cls))
    inline = _run(router=router, transport="inline")
    process = _run(router=router, transport="process")
    kinds = sends[shard._InlineTransport]
    assert kinds == sends[shard._ProcessTransport]
    assert inline.messages_sent == process.messages_sent == sum(
        len(msgs) for _, msgs in kinds
    )
    # Fewer arrivals than FLUSH_INTERVAL: placements ride only on the
    # rounds' and the finish's sends.
    for _, msgs in kinds:
        assert msgs in (["pause"], ["apply", "pause"],
                        ["finish"], ["apply", "finish"])
    rounds = [msgs for _, msgs in kinds if msgs[-1] == "pause"]
    assert len(rounds) == inline.coordination_rounds * inline.shards > 0
    assert ["apply", "pause"] in rounds
    finals = [s for s, msgs in kinds if msgs[-1] == "finish"]
    assert finals == list(range(inline.shards))


@pytest.mark.parametrize(
    "msg", [("snap", 0.0, None, []), ("ladder", []), ("stop",)]
)
def test_handle_message_rejects_unsent_kinds(msg):
    cluster = _cluster()
    host = shard.ShardHost(0, cluster.configs[:2], SchedulerRecipe("tokenflow"),
                           make_router("least_loaded"), None)
    with pytest.raises(ValueError, match="unknown shard message"):
        shard._handle_message(host, msg)


@pytest.mark.slow
def test_soak_least_loaded_speculation_process_parity():
    """64 replicas, least_loaded, 4 real worker processes: the frozen
    answer, with the mirror resolving arrivals."""
    target, fp = run_registry(
        "cluster-soak-64x", scale=0.02, seed=0, router="least_loaded",
        shards=4, transport="process", streamed=True,
    )
    assert fp == frozen_registry("cluster-soak-64x", 0.02, "least_loaded", 0,
                                 True)
    assert target.speculation_hits > 0


@pytest.mark.slow
def test_soak_least_loaded_round_budget():
    """The soak acceptance point: least_loaded over K=4 at scale 0.25
    takes exactly 162 rounds and 1174 messages for 1600 arrivals."""
    target, fp = run_registry(
        "cluster-soak-64x", scale=0.25, seed=0, router="least_loaded",
        shards=4, streamed=True,
    )
    assert fp == frozen_registry("cluster-soak-64x", 0.25, "least_loaded", 0,
                                 True)
    report = target.report()
    assert report.n_requests == 1600
    assert report.coordination_rounds == 162
    assert report.messages_sent == 1174
    assert report.coordination_rounds + report.speculation_hits == 1600
    assert report.speculation_misses == 0


# --- per-shard streaming telemetry (O(active) reports) -----------------------

def test_shard_workers_retire_finished_into_sketches():
    """Under feed with retain_per_request=False (the soak setting),
    shard workers retire finished requests into QuantileSketch-backed
    stats locally: the per-instance reports crossing the worker
    boundary carry sketches and no per-request rows."""
    spec = get_scenario("cluster-soak-64x", scale=0.02, seed=0,
                        shards=2)
    assert spec.retain_per_request is False
    run = build_run(spec)
    run.target.transport = "inline"
    report = run.execute()  # stream-native: drives the feed path
    assert report.n_finished > 0
    for node in report.per_instance:
        assert node.stream_stats is not None
        assert node.per_request == []
    # The placement map is the other O(total-requests) structure;
    # streaming soaks drop it and keep only per-instance counters.
    assert run.target.placements == {}
    assert sum(run.target.placement_counts()) == report.n_requests
