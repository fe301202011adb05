"""Tests for the scenario layer: spec, registry, build_run pipeline,
and router determinism (same spec + seed => identical ClusterReport)."""

import pytest

from repro.scenarios import (
    ScenarioSpec,
    build_run,
    get_scenario,
    list_scenarios,
    scenario_names,
)
from repro.serving.cluster import ClusterReport
from repro.serving.metrics import RunReport
from repro.serving.routers import ROUTERS
from repro.serving.server import ServingSystem
from repro.serving.shard import ShardedServingCluster
from repro.workload.request import Request
from tests.oracle import Cell, check, outcome


def tiny_cluster_spec(router, replicas=2, seed=0):
    """A fast cluster scenario: small crowd, small KV pools."""
    return get_scenario(
        "cluster-burst-4x", scale=0.1, seed=seed,
        replicas=replicas, router=router,
    )


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", replicas=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", scale=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", router="warp_drive")

    def test_with_overrides_revalidates(self):
        spec = ScenarioSpec(name="x")
        assert spec.with_overrides(replicas=3).replicas == 3
        with pytest.raises(ValueError):
            spec.with_overrides(router="warp_drive")

    def test_workloadless_spec_requires_explicit_requests(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x").build_workload()


class TestRegistry:
    def test_families_registered(self):
        names = scenario_names()
        for gpu in ("h200", "rtx4090"):
            for key in "abcd":
                assert f"table1-{gpu}-{key}" in names
        assert "tab02-tokenflow-no-offload" in names
        assert "cluster-burst-4x" in names
        assert "bursty-sessions" in names
        assert "soak-steady" in names
        assert "soak-diurnal" in names

    def test_listing_has_descriptions(self):
        for name, description in list_scenarios():
            assert name and description

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("nope")

    def test_scale_propagates_to_workload_and_memory(self):
        small = get_scenario("table1-h200-a", scale=0.05)
        large = get_scenario("table1-h200-a", scale=0.25)
        assert len(small.build_workload()) < len(large.build_workload())
        assert small.mem_frac < large.mem_frac

    def test_overrides_apply(self):
        spec = get_scenario("table1-h200-a", scale=0.05,
                            replicas=4, router="buffer_aware")
        assert spec.replicas == 4 and spec.router == "buffer_aware"

    def test_bursty_sessions_workload_is_session_striped(self):
        spec = get_scenario("bursty-sessions", scale=0.2)
        requests = spec.build_workload()
        assert all(isinstance(r, Request) for r in requests)
        assert all(r.session_id is not None for r in requests)
        sessions = {r.session_id for r in requests}
        assert len(sessions) > 1
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)


class TestBuildRun:
    def test_single_replica_builds_system(self):
        run = build_run(get_scenario("table1-h200-a", scale=0.05))
        assert isinstance(run.target, ServingSystem)
        assert not run.is_cluster
        report = run.execute()
        assert isinstance(report, RunReport)
        assert report.n_finished == report.n_requests > 0

    def test_multi_replica_builds_cluster(self):
        run = build_run(tiny_cluster_spec("least_loaded"))
        assert isinstance(run.target, ShardedServingCluster)
        assert run.is_cluster
        report = run.execute()
        assert isinstance(report, ClusterReport)
        assert report.n_finished == report.n_requests > 0
        assert len(report.per_instance) == 2

    def test_cluster_reports_label_system(self):
        run = build_run(tiny_cluster_spec("round_robin"))
        report = run.execute()
        assert all(r.system == "tokenflow" for r in report.per_instance)

    def test_explicit_requests_override_workload(self):
        requests = [
            Request(req_id=i, arrival_time=0.0, prompt_len=32,
                    output_len=8, rate=10.0)
            for i in range(3)
        ]
        run = build_run(get_scenario("table1-h200-a", scale=0.05),
                        requests=requests)
        report = run.execute()
        assert report.n_requests == 3

    def test_unfinished_at_horizon_raises(self):
        spec = get_scenario("table1-h200-a", scale=0.05,
                            horizon=0.001)
        with pytest.raises(RuntimeError, match="unfinished"):
            build_run(spec).execute()


class TestRouterDeterminism:
    """Same ScenarioSpec + seed => identical ClusterReport across
    repeated runs, for every registered router: the oracle's ``repeat``
    row (``tests/oracle.py``)."""

    @pytest.mark.parametrize("router", sorted(ROUTERS))
    def test_repeat_runs_identical(self, router):
        check("repeat", Cell("cluster-burst-4x", 0.1, 0, router, 2))

    @pytest.mark.parametrize("router", sorted(ROUTERS))
    def test_session_workload_repeat_runs_identical(self, router):
        check("repeat", Cell("bursty-sessions", 0.2, 0, router))

    def test_seed_changes_workload(self):
        a = outcome(Cell("cluster-burst-4x", 0.1, 0, "least_loaded", 2))
        b = outcome(Cell("cluster-burst-4x", 0.1, 1, "least_loaded", 2))
        assert a.state["per_request"] != b.state["per_request"]

    def test_router_instance_on_spec_does_not_leak_state(self):
        """A Router *instance* in the spec is copied per run, so its
        stripe counter / sticky maps never carry across runs."""
        from repro.serving.routers import RoundRobinRouter

        spec = tiny_cluster_spec(RoundRobinRouter(), replicas=3)
        placements = []
        for _ in range(2):
            run = build_run(spec)
            run.execute()
            placements.append(run.target.placement_counts())
        assert placements[0] == placements[1]


class TestRouterBehaviour:
    def test_session_affinity_pins_conversations(self):
        spec = get_scenario("bursty-sessions", scale=0.3)
        run = build_run(spec)
        run.execute()
        cluster = run.target
        by_session: dict = {}
        for req_id, idx in cluster.placements.items():
            session = req_id // 1000  # TURN_STRIDE partitioning
            by_session.setdefault(session, set()).add(idx)
        # Every conversation stayed on one instance.
        assert all(len(nodes) == 1 for nodes in by_session.values())
        # And the cluster as a whole used more than one instance.
        used = {idx for nodes in by_session.values() for idx in nodes}
        assert len(used) > 1

    def test_buffer_aware_spreads_a_burst(self):
        run = build_run(tiny_cluster_spec("buffer_aware", replicas=3))
        run.execute()
        counts = run.target.placement_counts()
        assert all(count > 0 for count in counts)


class TestExecuteErrorPaths:
    def test_unfinished_requests_raise_at_horizon(self):
        # A horizon shorter than the workload's service time must fail
        # loudly (mis-sized workload), naming the scenario and count.
        spec = get_scenario("table1-h200-a", scale=0.1, horizon=0.5)
        run = build_run(spec)
        with pytest.raises(RuntimeError, match="unfinished at horizon"):
            run.execute()

    def test_unfinished_error_names_the_scenario(self):
        spec = get_scenario("table1-h200-a", scale=0.1, horizon=0.5)
        with pytest.raises(RuntimeError, match="table1-h200-a"):
            build_run(spec).execute()

    def test_streamed_execute_also_raises(self):
        # The feed() path shares the horizon guard: pending stream
        # arrivals past the horizon count as unfinished.
        spec = get_scenario("soak-steady", scale=0.01, horizon=2.0)
        with pytest.raises(RuntimeError, match="unfinished at horizon"):
            build_run(spec).execute()

    def test_workloadless_spec_requires_requests(self):
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(name="adhoc")
        with pytest.raises(ValueError, match="workload factory"):
            build_run(spec)
