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

The oracle's ``shards``, ``transport``, ``streamed`` and
``per_iteration`` rows (``tests/oracle.py``) compare those runs field
by field, and each must reproduce its frozen digest
(``classic_cluster_digests.json``, ``oracle.deep_fp``): the
shared-engine cluster this coordinator replaced, one per router ×
workload × seed × intake, re-frozen only where ``kv_stats`` (the
prefix-sharing block table) or the fusion counters (windows through
idle ticks and dispatches) moved.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.experiments.systems import SchedulerRecipe
from repro.scenarios.build import build_run
from repro.scenarios.registry import get_scenario
from repro.serving.metrics import report_fingerprint
from repro.serving import shard
from repro.serving.routers import ROUTERS, LeastQueuedRouter, Router, make_router
from repro.serving.shard import ShardedServingCluster
from tests.conftest import homogeneous_cluster
from tests.oracle import (DIRECT, FROZEN, PLAIN, SMALL, Cell, check, deep_fp,
                          frozen_registry, outcome)
from tests.oracle import direct_requests as _requests

# Registry cluster scenarios at scales small enough for an exhaustive sweep.
CLUSTER_SCENARIOS = {n: SMALL[n] for n in ("cluster-burst-4x", "bursty-sessions",
                                           "cluster-soak-64x")}

ALL_ROUTERS = sorted(ROUTERS)


# --- direct-API helpers ------------------------------------------------------

def _cluster(n=4, router="least_loaded", shards=2, transport="inline"):
    return homogeneous_cluster(
        n, SchedulerRecipe("tokenflow"), router=router,
        shards=shards, transport=transport,
        mem_frac=0.02, max_batch=16,
    )


def _run(router="least_loaded", shards=2, transport="inline", until=None):
    cluster = _cluster(router=router, shards=shards, transport=transport)
    cluster.submit(_requests())
    cluster.run(until=until)
    return cluster


# --- fast lane: direct API ---------------------------------------------------

@pytest.mark.parametrize("router", ALL_ROUTERS)
def test_inline_parity_every_router(router):
    """K ∈ {1, 2, 4} inline shards reproduce the frozen run bit-for-bit."""
    check("shards", Cell(DIRECT, router=router))


def test_shard_count_invariance():
    """A registry scenario gives one answer at K ∈ {1, 2, 4}."""
    check("shards", Cell("cluster-burst-4x", 0.25, 0, "least_loaded"))


def test_process_transport_parity():
    """Real worker processes: state crosses pickling boundaries intact."""
    check("transport", Cell(DIRECT, router="least_loaded"), PLAIN.but(shards=2))


def test_process_transport_stateless_router():
    """round_robin exercises the buffered (non-pausing) fast path."""
    check("transport", Cell(DIRECT, router="round_robin"), PLAIN.but(shards=2))


def test_feed_matches_submit():
    check("streamed", Cell(DIRECT, router="least_queued"), PLAIN.but(shards=2))


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
    check("transport", Cell("cluster-burst-4x", 0.25, 0, "least_loaded"),
          PLAIN.but(shards=2))


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
    cluster = _run(router="least_loaded", shards=2, transport="process")
    assert deep_fp(cluster, cluster.report()) == FROZEN["direct"]["least_loaded"]


# --- slow lane: exhaustive registry sweep ------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("router", ALL_ROUTERS)
@pytest.mark.parametrize("name", sorted(CLUSTER_SCENARIOS))
def test_registry_sweep_bit_identical(name, router, seed):
    """Scenarios × routers × seeds × {submit, feed} × K ∈ {1, 2, 4}
    inline and K = 2 on worker processes: every run reproduces its
    frozen digest."""
    cell = Cell(name, CLUSTER_SCENARIOS[name], seed, router)
    check("streamed", cell)
    for streamed in (False, True):
        check("shards", cell, PLAIN.but(streamed=streamed))
        check("transport", cell, PLAIN.but(shards=2, streamed=streamed))


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CLUSTER_SCENARIOS))
def test_registry_shard_count_invariance(name):
    """The extreme partition (one replica per shard) gives the frozen
    answer and processes exactly the events one shard does."""
    check("one_per_shard", Cell(name, CLUSTER_SCENARIOS[name]))


@pytest.mark.slow
def test_soak_process_transport_parity():
    """64 replicas over 4 real worker processes, round_robin fast path."""
    check("transport", Cell("cluster-soak-64x", 0.02, 0, "round_robin"),
          PLAIN.but(shards=4, streamed=True))


# --- windows through other replicas' dispatches ------------------------------
#
# Under routers whose reads a fused window cannot change, a replica's
# window runs through dispatches to other replicas, and a dispatch that
# lands on it cuts the window at the first boundary after the arrival.
# The per-iteration run is the reference, compared exactly.

@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("router", ["round_robin", "least_queued"])
def test_windows_span_dispatches_exactly(router, shards):
    assert make_router(router).windows_span_dispatches
    for cell in (Cell(DIRECT, router=router),
                 Cell("cluster-soak-64x", 0.02, 0, router)):
        check("per_iteration", cell, PLAIN.but(shards=shards))


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
    cell = Cell("cluster-soak-64x", 0.02, 0, "least_loaded")
    setting = PLAIN.but(shards=4, streamed=True)
    check("transport", cell, setting)
    assert outcome(cell, setting).state["coordination.speculation_hits"] > 0


@pytest.mark.slow
def test_soak_least_loaded_round_budget():
    """The soak acceptance point: least_loaded over K=4 at scale 0.25
    takes exactly 162 rounds and 1174 messages for 1600 arrivals."""
    run = outcome(Cell("cluster-soak-64x", 0.25, 0, "least_loaded"),
                  PLAIN.but(shards=4))
    assert run.digest == frozen_registry("cluster-soak-64x", 0.25,
                                         "least_loaded", 0, True)
    state = run.state
    assert state["metrics.n_requests"] == 1600
    assert state["coordination.coordination_rounds"] == 162
    assert state["coordination.messages_sent"] == 1174
    assert state["coordination.speculation_hits"] == 1600 - 162
    assert state["coordination.speculation_misses"] == 0


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
