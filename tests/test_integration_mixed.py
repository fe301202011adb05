"""Kitchen-sink integration: every feature active in one run.

Multi-turn chat sessions, plain user requests, adaptive-rate agent
clients, event tracing, and a preemption-heavy memory configuration
— all simultaneously under TokenFlow.  The run must terminate with
consistent accounting across every subsystem.
"""

import pytest

from repro.client.adaptive import AdaptiveRateController, AdaptiveRateParams
from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.sim.trace import TraceRecorder
from repro.workload.request import Request, RequestState
from repro.workload.sessions import SessionDriver, SessionSpec


@pytest.fixture(scope="module")
def mixed_run():
    tracer = TraceRecorder()
    controller = AdaptiveRateController(AdaptiveRateParams(
        min_rate=5.0, max_rate=30.0,
    ))
    config = ServingConfig(hardware="h200", model="llama3-8b",
                           mem_frac=0.01, max_batch=8)
    system = ServingSystem(config, TokenFlowScheduler(),
                           rate_controller=controller, tracer=tracer)

    # Two chat sessions (ids 0-1 -> req ids 0..1999).
    driver = SessionDriver(system, [
        SessionSpec(session_id=0, n_turns=2, think_time_s=1.0),
        SessionSpec(session_id=1, n_turns=2, think_time_s=1.0,
                    first_arrival=2.0),
    ])
    driver.start()

    # A burst of plain user requests at t=1; the first is long.
    users = [
        Request(req_id=10_000 + i, arrival_time=1.0, prompt_len=256,
                output_len=4096 if i == 0 else 192, rate=10.0)
        for i in range(8)
    ]
    system.submit(users)

    # Two long agent requests from t=0.
    agents = [
        Request(req_id=20_000 + i, arrival_time=0.0, prompt_len=128,
                output_len=1024, rate=5.0, is_agent=True)
        for i in range(2)
    ]
    system.submit(agents)

    system.run(until=100_000.0)
    return system, driver, tracer, controller


class TestMixedRun:
    def test_terminates_cleanly(self, mixed_run):
        system, driver, _, _ = mixed_run
        assert system.unfinished == 0
        assert driver.all_done

    def test_everything_else_finished(self, mixed_run):
        system, _, _, _ = mixed_run
        for entry in system.tracker.entries():
            assert entry.request.state is RequestState.FINISHED

    def test_memory_fully_reclaimed(self, mixed_run):
        system, _, _, _ = mixed_run
        kv = system.kv
        # Finished session turns donate their chains to the refs-0
        # prefix cache: still resident, but every block is reclaimable.
        assert kv.gpu_pool.used == len(kv.prefix.cached)
        assert kv.gpu_free_blocks() == kv.gpu_pool.capacity
        assert kv.cpu_pool.used == 0

    def test_trace_consistent_with_tracker(self, mixed_run):
        system, _, tracer, _ = mixed_run
        counts = tracer.counts()
        arrivals = counts[("request", "arrive")]
        finishes = counts[("request", "finish")]
        assert arrivals == len(system.tracker)
        assert finishes == arrivals

    def test_agents_were_rate_controlled(self, mixed_run):
        _, _, _, controller = mixed_run
        assert controller.adjustments > 0

    def test_preemption_happened_under_pressure(self, mixed_run):
        system, _, _, _ = mixed_run
        assert system.report().preemptions > 0

    def test_user_burst_got_fast_ttft(self, mixed_run):
        system, _, _, _ = mixed_run
        ttfts = [
            system.tracker.get(10_000 + i).request.ttft for i in range(8)
        ]
        assert all(t is not None and t < 10.0 for t in ttfts)
