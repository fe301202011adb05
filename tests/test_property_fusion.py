"""Property tests: fused and unfused decode runs are equivalent.

Sweeps scenario-registry cells (single-node, ablations, sessions, and
a multi-replica cluster behind a Router) plus hypothesis-randomised
workloads, asserting that ``fuse_decode=True`` and ``fuse_decode=False``
produce equal RunReport metrics to rel 1e-9 with identical
event-count invariants: same executor iteration/token totals, and the
fused engine never processes more events than the per-iteration one.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.experiments.systems import build_system
from repro.scenarios import build_run, get_scenario
from repro.workload.request import Request, clone_requests
from tests.conftest import events_processed

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

SINGLE_NODE_METRICS = (
    "n_requests", "n_finished", "makespan", "total_tokens", "throughput",
    "effective_tokens", "effective_throughput", "qos", "ttft_mean",
    "ttft_p50", "ttft_p99", "stall_total", "stall_mean", "preemptions",
)
CLUSTER_METRICS = (
    "n_requests", "n_finished", "total_tokens", "throughput",
    "effective_throughput", "qos", "ttft_mean", "ttft_p50", "ttft_p99",
    "stall_total", "preemptions",
)

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
def test_registry_cell_parity(name, scale, seed):
    spec_on = get_scenario(name, scale=scale, seed=seed)
    spec_off = spec_on.with_overrides(fuse_decode=False)
    target_off, report_off = _execute(spec_off)
    target_on, report_on = _execute(spec_on)
    keys = (
        CLUSTER_METRICS if spec_on.replicas > 1 else SINGLE_NODE_METRICS
    )
    for key in keys:
        off, on = getattr(report_off, key), getattr(report_on, key)
        assert on == pytest.approx(off, rel=1e-9, abs=1e-9), (name, key)
    # Event-count invariants: same work, fewer (or equal) events.
    assert events_processed(target_on) <= events_processed(target_off)
    if spec_on.replicas == 1:
        s_off, s_on = report_off.executor_stats, report_on.executor_stats
        for key in ("prefill_iterations", "decode_iterations",
                    "prefill_tokens", "decode_tokens"):
            assert s_on[key] == s_off[key], (name, key)
        assert report_off.executor_stats["fused_windows"] == 0


def test_cluster_parity_through_router():
    spec_on = get_scenario(
        "cluster-burst-4x", scale=0.1, seed=0,
        replicas=2, router="round_robin",
    )
    spec_off = spec_on.with_overrides(fuse_decode=False)
    target_off, report_off = _execute(spec_off)
    target_on, report_on = _execute(spec_on)
    for key in CLUSTER_METRICS:
        off, on = getattr(report_off, key), getattr(report_on, key)
        assert on == pytest.approx(off, rel=1e-9, abs=1e-9), key
    # Per-instance reports must line up too (same placements, same
    # per-node runs), and at least one node must actually have fused.
    assert len(report_on.per_instance) == len(report_off.per_instance) == 2
    fused_windows = 0
    for inst_on, inst_off in zip(report_on.per_instance,
                                 report_off.per_instance):
        for key in SINGLE_NODE_METRICS:
            assert getattr(inst_on, key) == pytest.approx(
                getattr(inst_off, key), rel=1e-9, abs=1e-9
            ), key
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
    @settings(max_examples=40, deadline=None)
    def test_fused_equals_unfused(self, requests, system_name, mem_frac):
        reports = []
        for fuse in (False, True):
            system = build_system(
                system_name, hardware="h200", model="llama3-8b",
                mem_frac=mem_frac, max_batch=6, fuse_decode=fuse,
            )
            system.submit(clone_requests(requests))
            system.run(until=100_000.0)
            reports.append(system.report())
        report_off, report_on = reports
        for key in SINGLE_NODE_METRICS:
            off, on = getattr(report_off, key), getattr(report_on, key)
            assert on == pytest.approx(off, rel=1e-9, abs=1e-9), key
        assert report_on.timeline == report_off.timeline
