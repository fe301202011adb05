"""Fused and per-iteration decode runs are equivalent: the oracle's
``per_iteration`` row (``tests/oracle.py``) on the registry cells of
the frozen scalar decode reference, on a two-replica cluster behind a
Router, and on hypothesis-randomised workloads on every system.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.experiments.systems import build_system
from repro.workload.request import Request, clone_requests
from tests.oracle import Cell, check, compare, deep_state, per_iteration

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

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


@pytest.mark.parametrize("name,scale", REGISTRY_CELLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_registry_cell_parity(name, scale, seed):
    check("per_iteration", Cell(name, scale, seed))


def test_cluster_parity_through_router():
    check("per_iteration", Cell("cluster-burst-4x", 0.1, 0, "round_robin", 2))


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    return [Request(req_id=req_id, arrival_time=draw(st.floats(0.0, 3.0)),
                    prompt_len=draw(st.integers(8, 384)),
                    output_len=draw(st.integers(4, 256)),
                    rate=draw(st.sampled_from([5.0, 10.0, 20.0])))
            for req_id in range(n)]


class TestRandomisedParity:
    @given(requests=workloads(),
           system_name=st.sampled_from(("sglang", "andes", "mlfq", "tokenflow")),
           mem_frac=st.sampled_from([0.002, 0.01, 0.1]))
    @settings(max_examples=40, deadline=None)
    def test_fused_equals_unfused(self, requests, system_name, mem_frac):
        def run():
            system = build_system(system_name, hardware="h200", model="llama3-8b",
                                  mem_frac=mem_frac, max_batch=6)
            system.submit(clone_requests(requests))
            system.run(until=100_000.0)
            return deep_state(system, system.report())

        with per_iteration():
            reference = run()
        compare("per_iteration", reference, run(), system_name)
