"""Property tests: fused and unfused decode runs are equivalent.

Sweeps scenario-registry cells (single-node, ablations, sessions, and
a multi-replica cluster behind a Router) plus hypothesis-randomised
workloads, asserting that the default (fused) run and the
``per_iteration`` fixture's run produce equal RunReport metrics to rel
1e-9 with identical event-count invariants: same executor
iteration/token totals, and the fused engine never processes more
events than the per-iteration one.  Clusters run their shards inline,
so the fixture's patch reaches every replica.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.experiments.systems import build_system
from repro.scenarios import build_run, get_scenario
from repro.workload.request import Request, clone_requests
from tests.conftest import (
    CLUSTER_METRICS,
    SINGLE_NODE_METRICS,
    assert_parity,
    events_processed,
)

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

# Registry cells covering each workload family: a Table 1 burst cell
# under memory pressure, a Poisson cell, every Table 2 memory-ablation
# variant, and the multi-turn session workload (completion callbacks
# schedule follow-up arrivals).
REGISTRY_CELLS = [
    ("table1-h200-a", 0.10),
    ("table1-rtx4090-a", 0.25),
    ("table1-h200-c", 0.25),
    ("tab02-tokenflow", 0.25),
    ("tab02-tokenflow-no-offload", 0.25),
    ("tab02-tokenflow-no-writethrough", 0.25),
    ("tab02-tokenflow-no-overlap", 0.25),
    ("bursty-sessions", 0.25),
]


def _execute(spec):
    run = build_run(spec)
    report = run.execute()
    return run.target, report


@pytest.mark.parametrize("name,scale", REGISTRY_CELLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_registry_cell_parity(name, scale, seed, per_iteration):
    spec = get_scenario(name, scale=scale, seed=seed, shards=1)
    with per_iteration():
        target_off, report_off = _execute(spec)
    target_on, report_on = _execute(spec)
    cluster = spec.replicas > 1
    keys = CLUSTER_METRICS if cluster else SINGLE_NODE_METRICS
    assert_parity(report_off, report_on, keys, name, timeline=not cluster)
    # Event-count invariants: same work, fewer (or equal) events.
    assert events_processed(target_on) <= events_processed(target_off)
    if not cluster:
        s_off, s_on = report_off.executor_stats, report_on.executor_stats
        for key in ("prefill_iterations", "decode_iterations",
                    "prefill_tokens", "decode_tokens"):
            assert s_on[key] == s_off[key], (name, key)
        assert report_off.executor_stats["fused_windows"] == 0


def test_cluster_parity_through_router(per_iteration):
    spec = get_scenario(
        "cluster-burst-4x", scale=0.1, seed=0,
        replicas=2, router="round_robin", shards=1,
    )
    with per_iteration():
        target_off, report_off = _execute(spec)
    target_on, report_on = _execute(spec)
    assert_parity(report_off, report_on, CLUSTER_METRICS, timeline=False)
    # Per-instance reports must line up too (same placements, same
    # per-node runs), and at least one node must actually have fused.
    assert len(report_on.per_instance) == len(report_off.per_instance) == 2
    fused_windows = 0
    for inst_on, inst_off in zip(report_on.per_instance,
                                 report_off.per_instance):
        assert_parity(inst_off, inst_on, timeline=False)
        fused_windows += inst_on.executor_stats["fused_windows"]
    assert fused_windows > 0
    assert events_processed(target_on) < events_processed(target_off)


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    requests = []
    for req_id in range(n):
        requests.append(
            Request(
                req_id=req_id,
                arrival_time=draw(st.floats(0.0, 3.0)),
                prompt_len=draw(st.integers(8, 384)),
                output_len=draw(st.integers(4, 256)),
                rate=draw(st.sampled_from([5.0, 10.0, 20.0])),
            )
        )
    return requests


class TestRandomisedParity:
    @given(
        requests=workloads(),
        system_name=st.sampled_from(
            ("sglang", "andes", "mlfq", "tokenflow")
        ),
        mem_frac=st.sampled_from([0.002, 0.01, 0.1]),
    )
    # The fixture only hands out a context-manager factory; each
    # example enters (and leaves) the patch afresh.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fused_equals_unfused(self, requests, system_name, mem_frac,
                                  per_iteration):
        def run():
            system = build_system(
                system_name, hardware="h200", model="llama3-8b",
                mem_frac=mem_frac, max_batch=6,
            )
            system.submit(clone_requests(requests))
            system.run(until=100_000.0)
            return system.report()

        with per_iteration():
            report_off = run()
        assert_parity(report_off, run())
