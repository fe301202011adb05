"""Tests for the scheduler <-> serving-loop contract."""

import pytest

from repro.baselines import SGLangScheduler
from repro.serving.config import ServingConfig
from repro.serving.interface import BaseScheduler, SchedulerDecision
from repro.serving.server import ServingSystem
from repro.workload.request import Request


def burst(n, prompt=64, output=64):
    return [
        Request(req_id=i, arrival_time=0.0, prompt_len=prompt,
                output_len=output, rate=10.0)
        for i in range(n)
    ]


class TestSchedulerDecision:
    def test_empty_by_default(self):
        decision = SchedulerDecision()
        assert decision.is_empty()

    def test_nonempty_detection(self):
        request = burst(1)[0]
        assert not SchedulerDecision(admit=[request]).is_empty()
        assert not SchedulerDecision(preempt=[request]).is_empty()
        assert not SchedulerDecision(resume_load=[request]).is_empty()
        assert not SchedulerDecision(resume_recompute=[request]).is_empty()

    def test_validate_accepts_distinct_requests(self):
        a, b = burst(2)
        SchedulerDecision(admit=[a], preempt=[b]).validate()

    def test_validate_rejects_duplicates_across_groups(self):
        request = burst(1)[0]
        with pytest.raises(ValueError):
            SchedulerDecision(admit=[request], preempt=[request]).validate()

    def test_validate_rejects_duplicates_within_group(self):
        request = burst(1)[0]
        with pytest.raises(ValueError):
            SchedulerDecision(admit=[request, request]).validate()


class TestBaseSchedulerDefaults:
    def test_abstract_boundary_required(self):
        with pytest.raises(TypeError):
            BaseScheduler()  # abstract

    def test_default_tick_is_noop(self):
        class Minimal(BaseScheduler):
            def on_iteration_boundary(self, view):
                return SchedulerDecision()

        scheduler = Minimal()
        assert scheduler.tick_interval is None
        assert scheduler.scheduling_cost_s() == 0.0

    def test_default_feedback_hooks_are_noops(self):
        """The serving loop calls both feedback hooks on every
        scheduler; the defaults accept the measurement and keep
        nothing."""

        class Minimal(BaseScheduler):
            def on_iteration_boundary(self, view):
                return SchedulerDecision()

        scheduler = Minimal()
        assert scheduler.observe_prefill(128, 0.01) is None
        assert scheduler.observe_swap_latency(0.02, 0.03) is None
        assert vars(scheduler) == {}

    def test_default_opt_in_flags_are_off(self):
        """The serving stages read both opt-ins as plain attributes; a
        scheduler that declares neither gets unchunked prefill with the
        full per-iteration budget."""

        class Minimal(BaseScheduler):
            def on_iteration_boundary(self, view):
                return SchedulerDecision()

        scheduler = Minimal()
        assert scheduler.decode_priority_aware is False
        assert scheduler.wants_chunked_prefill is False
        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.01, max_batch=8)
        system = ServingSystem(config, scheduler)
        system.submit(burst(4))
        system.run(until=0.5)
        assert system.composer.chunked is False
        assert system.composer.prefill_token_budget() == config.max_prefill_tokens

    def test_default_oom_victims_newest_first(self):
        """The default reactive policy mirrors vLLM: evict the most
        recently admitted requests first."""
        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.01, max_batch=8)
        system = ServingSystem(config, SGLangScheduler())
        system.submit(burst(4, output=128))
        system.run(until=2.0)
        view = system.view()
        if len(view.running) >= 2:
            victims = system.scheduler.select_oom_victims(view, 1)
            assert victims
            newest = max(view.running, key=lambda r: r.admitted_time or 0.0)
            assert victims[0] is newest

    def test_custom_scheduler_plugs_into_loop(self):
        """A minimal correct policy drives a run to completion."""

        class AdmitEverything(BaseScheduler):
            name = "admit-everything"

            def on_iteration_boundary(self, view):
                decision = SchedulerDecision()
                free = view.kv.gpu_free_blocks()
                for request in view.waiting:
                    needed = view.kv.blocks_for_tokens(request.prompt_len + 64)
                    if needed > free:
                        break
                    decision.admit.append(request)
                    free -= needed
                return decision

        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.02, max_batch=8)
        system = ServingSystem(config, AdmitEverything())
        system.submit(burst(5, output=32))
        system.run(until=10_000.0)
        assert system.unfinished == 0
