"""Tests for request cancellation (client disconnects)."""

import pytest

from repro.baselines import SGLangScheduler
from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.workload.request import Request, RequestState


def burst(n, prompt=64, output=64, rate=10.0):
    return [
        Request(req_id=i, arrival_time=0.0, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def make_system(scheduler=None, mem_frac=0.005, max_batch=4):
    config = ServingConfig(hardware="h200", model="llama3-8b",
                           mem_frac=mem_frac, max_batch=max_batch)
    return ServingSystem(config, scheduler or TokenFlowScheduler())


class TestCancelStates:
    def test_cancel_queued_request(self):
        system = make_system(scheduler=SGLangScheduler(), mem_frac=0.001)
        system.submit(burst(8, prompt=256, output=64))
        system.run(until=0.5)
        queued = [r for r in system.waiting]
        if queued:
            victim = queued[-1]
            assert system.cancel(victim.req_id)
            assert victim.state is RequestState.CANCELLED
            assert victim not in system.waiting
        system.run(until=10_000.0)
        assert system.unfinished == 0

    def test_cancel_running_request_frees_memory(self):
        system = make_system()
        system.submit(burst(2, output=512))
        system.run(until=2.0)
        running = list(system.running)
        assert running
        victim = running[0]
        held_before = system.kv.gpu_pool.used
        assert system.cancel(victim.req_id)
        assert system.kv.gpu_pool.used_by(victim.req_id) == 0
        assert system.kv.gpu_pool.used < held_before
        system.run(until=10_000.0)
        assert system.unfinished == 0

    def test_cancel_mid_decode_iteration_is_safe(self):
        """Cancelling during an in-flight iteration must not corrupt
        the completion handler."""
        system = make_system()
        system.submit(burst(3, output=256))
        system.run(until=1.0)
        if system.running:
            system.cancel(system.running[0].req_id)
        system.run(until=10_000.0)
        assert system.unfinished == 0
        for entry in system.tracker.entries():
            assert entry.request.state in (
                RequestState.FINISHED, RequestState.CANCELLED
            )

    def test_cancel_unknown_or_finished_returns_false(self):
        system = make_system()
        system.submit(burst(1, output=8))
        system.run(until=1_000.0)
        assert not system.cancel(0)   # already finished
        assert not system.cancel(99)  # never existed

    def test_double_cancel_harmless(self):
        system = make_system()
        system.submit(burst(1, output=512))
        system.run(until=1.0)
        assert system.cancel(0)
        assert not system.cancel(0)
        system.run(until=100.0)

    def test_cancel_at_schedules_future_cancel(self):
        system = make_system()
        system.submit(burst(1, output=2000))
        system.engine.call_at(3.0, lambda: system.cancel(0))
        system.run(until=10_000.0)
        request = system.tracker.get(0).request
        assert request.state is RequestState.CANCELLED
        # Tokens streamed before the disconnect stay recorded.
        assert 0 < request.generated < 2000

    def test_report_counts_cancelled_as_unfinished(self):
        system = make_system()
        system.submit(burst(2, output=512))
        system.engine.call_at(2.0, lambda: system.cancel(0))
        system.run(until=10_000.0)
        report = system.report()
        assert report.n_requests == 2
        assert report.n_finished == 1


class TestCancelUnderPreemption:
    def test_cancel_preempted_request(self):
        system = make_system(mem_frac=0.002, max_batch=4)
        system.submit(burst(10, prompt=256, output=256))
        cancelled = []

        def try_cancel():
            if system.preempted and not cancelled:
                victim = system.preempted[0]
                assert system.cancel(victim.req_id)
                cancelled.append(victim)

        for checkpoint in (1.0, 2.0, 3.0, 5.0):
            system.run(until=checkpoint)
            try_cancel()
        system.run(until=50_000.0)
        assert system.unfinished == 0
        if cancelled:
            assert cancelled[0].state is RequestState.CANCELLED
