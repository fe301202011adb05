"""Property-based end-to-end serving invariants.

Small randomized workloads run to completion under every scheduler;
afterwards the system must satisfy conservation laws: every request
finished with exactly its output length, memory fully reclaimed,
token timestamps monotone, and no tokens lost or duplicated.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.experiments.systems import build_system
from repro.workload.request import Request, RequestState

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    requests = []
    for req_id in range(n):
        requests.append(
            Request(
                req_id=req_id,
                arrival_time=draw(st.floats(0.0, 5.0)),
                prompt_len=draw(st.integers(8, 512)),
                output_len=draw(st.integers(4, 192)),
                rate=draw(st.sampled_from([5.0, 10.0, 20.0])),
            )
        )
    return requests


SYSTEMS = ("sglang", "andes", "tokenflow")


class TestServingInvariants:
    @given(
        requests=workloads(),
        system_name=st.sampled_from(SYSTEMS),
        seed_mem=st.sampled_from([0.002, 0.01, 0.05]),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_laws(self, requests, system_name, seed_mem):
        system = build_system(
            system_name, hardware="h200", model="llama3-8b",
            mem_frac=seed_mem, max_batch=4, record_token_traces=True,
        )
        system.submit(requests)
        system.run(until=100_000.0)
        assert system.unfinished == 0

        total_generated = 0
        for entry in system.tracker.entries():
            request = entry.request
            assert request.state is RequestState.FINISHED
            # Exactly output_len tokens, no more, no fewer.
            assert request.generated == request.output_len
            times = entry.buffer.generation_times
            assert len(times) == request.output_len
            # Timestamps monotone and after arrival.
            assert all(a <= b for a, b in zip(times, times[1:]))
            assert times[0] >= request.arrival_time
            # Client buffer saw every token.
            assert entry.buffer.delivered == request.output_len
            assert entry.buffer.stall_time >= 0.0
            total_generated += request.generated

        # All memory reclaimed.
        assert system.kv.gpu_pool.used == 0
        # Executor token accounting matches request accounting.
        assert system.executor.stats.decode_tokens + len(requests) >= total_generated
