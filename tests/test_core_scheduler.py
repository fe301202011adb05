"""Unit tests for the TokenFlow scheduler (two-step algorithm, §4)."""

import math

import pytest

from repro.core.scheduler import TokenFlowParams, TokenFlowScheduler
from repro.core.working_set import WorkingSetParams
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.workload.request import Request, RequestState


def burst(n, prompt=64, output=64, rate=10.0, arrival=0.0):
    return [
        Request(req_id=i, arrival_time=arrival, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def make_system(params=None, mem_frac=0.002, max_batch=4):
    """Tiny H200 slice: a handful of requests saturate it."""
    config = ServingConfig(
        hardware="h200", model="llama3-8b", mem_frac=mem_frac, max_batch=max_batch
    )
    return ServingSystem(config, TokenFlowScheduler(params))


class TestParams:
    def test_defaults_valid(self):
        params = TokenFlowParams()
        assert params.tick_interval == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenFlowParams(tick_interval=0.0)
        with pytest.raises(ValueError):
            TokenFlowParams(critical_buffer_s=-1.0)
        with pytest.raises(ValueError):
            TokenFlowParams(max_loads_per_tick=0)
        with pytest.raises(ValueError):
            TokenFlowParams(admission_watermark_frac=1.0)
        # NaN passes a `< 0` check, and an infinite interval makes a
        # priority 0 * inf = NaN: both are rejected.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                TokenFlowParams(tick_interval=bad)
            with pytest.raises(ValueError):
                TokenFlowParams(critical_buffer_s=bad)
        # scheduling_cost_s is added to every iteration's overhead.
        for bad in (math.nan, math.inf, -math.inf, -1e-4):
            with pytest.raises(ValueError):
                TokenFlowParams(scheduling_cost_s=bad)
        assert TokenFlowParams(scheduling_cost_s=0.0).scheduling_cost_s == 0.0


class TestStressGating:
    def test_idle_system_not_stressed(self):
        system = make_system()
        scheduler = system.scheduler
        view = system.view()
        assert not scheduler._stressed_at(view, view.now)

    def test_waiting_requests_stress(self):
        system = make_system()
        system.submit(burst(2))
        system.run(until=0.01)
        # At least one request still waiting or prefilling right after arrival.
        view = system.view()
        if view.waiting or view.prefill_queue:
            assert system.scheduler._stressed_at(view, view.now)

    def test_oversized_running_set_stresses(self):
        system = make_system(max_batch=2)
        system.submit(burst(4, output=512))
        system.run(until=3.0)
        view = system.view()
        if len(view.running) > view.max_batch:
            assert system.scheduler._stressed_at(view, view.now)

    def test_predicate_decides_every_active_tick(self):
        """on_tick and tick_is_idle share one stress predicate: on a
        preempting burst, a tick counts an active pass exactly when the
        predicate holds at that tick's instant.  The predicate only
        peeks at buffers, so asking it first changes nothing."""
        system = make_system(max_batch=4)
        scheduler = system.scheduler
        on_tick = scheduler.on_tick
        outcomes = []

        def checked_tick(view):
            stressed = scheduler._stressed_at(view, view.now)
            assert scheduler.tick_is_idle(view, view.now) is not stressed
            before = scheduler.active_passes
            decision = on_tick(view)
            outcomes.append((stressed, scheduler.active_passes - before))
            return decision

        scheduler.on_tick = checked_tick
        system.submit(burst(12, output=256))
        system.run(until=10_000.0)
        assert system.report().preemptions > 0
        assert all(active == int(stressed) for stressed, active in outcomes)
        assert {stressed for stressed, _ in outcomes} == {True, False}


class TestSchedulability:
    def test_feasible_demand_schedulable(self):
        system = make_system()
        system.submit(burst(2, rate=1.0))
        system.run(until=1.0)
        assert system.scheduler._is_schedulable(system.view())

    def test_infeasible_demand_triggers_fallback(self):
        system = make_system(max_batch=8)
        # Absurd per-request rates and more requests than memory fits:
        # the system stays stressed and demand far exceeds Γ.
        system.submit(burst(16, rate=100000.0, prompt=512, output=256))
        system.run(until=5.0)
        assert system.scheduler.fallback_ticks > 0

    def test_fallback_decision_never_preempts(self):
        system = make_system(max_batch=8)
        system.submit(burst(8, rate=100000.0, output=256))
        system.run(until=2.0)
        decision = system.scheduler._fcfs_fallback(system.view())
        assert decision.preempt == []


class TestEndToEndScheduling:
    def test_burst_completes_with_preemptions(self):
        system = make_system(max_batch=4)
        system.submit(burst(12, output=256))
        system.run(until=10_000.0)
        assert system.unfinished == 0
        report = system.report()
        assert report.preemptions > 0
        assert report.n_finished == 12

    def test_all_requests_get_first_token(self):
        system = make_system(max_batch=4)
        system.submit(burst(8, output=128))
        system.run(until=10_000.0)
        report = system.report()
        assert all(m.ttft is not None for m in report.per_request)

    def test_working_set_observes_contexts(self):
        system = make_system()
        system.submit(burst(4, output=64))
        system.run(until=10_000.0)
        policy = system.scheduler._working_set
        assert policy is not None
        assert policy.beta() != WorkingSetParams().initial_beta_tokens

    def test_scheduling_passes_counted(self):
        system = make_system()
        system.submit(burst(6, output=256))
        system.run(until=10_000.0)
        assert system.scheduler.scheduling_passes > 0

    def test_swap_latency_observation_updates(self):
        scheduler = TokenFlowScheduler()
        before = scheduler._tau_evict
        scheduler.observe_swap_latency(1.0, 0.0)
        assert scheduler._tau_evict > before

    def test_scheduling_cost_matches_params(self):
        params = TokenFlowParams(scheduling_cost_s=0.001)
        assert TokenFlowScheduler(params).scheduling_cost_s() == 0.001


class TestOOMVictims:
    def test_victims_are_fattest_buffers(self):
        system = make_system(max_batch=4)
        system.submit(burst(6, output=512))
        system.run(until=6.0)
        view = system.view()
        if len(view.running) >= 2:
            victims = system.scheduler.select_oom_victims(view, blocks_needed=1)
            assert victims
            slack = [
                view.tracker.buffer_seconds(r.req_id, view.now) for r in view.running
            ]
            chosen = view.tracker.buffer_seconds(victims[0].req_id, view.now)
            assert chosen == pytest.approx(max(slack))


class TestTimeSlicedGating:
    def test_unstressed_ticks_do_no_work(self):
        """§4.2.1: scheduling effort scales with demand — a light load
        leaves most ticks inactive."""
        system = make_system(mem_frac=0.05, max_batch=8)
        # Two small requests: never stressed after initial admission.
        system.submit(burst(2, output=512, rate=5.0))
        system.run(until=10_000.0)
        scheduler = system.scheduler
        assert scheduler.scheduling_passes > 0
        assert scheduler.active_passes < scheduler.scheduling_passes / 2

    def test_stressed_burst_activates_most_ticks(self):
        system = make_system(max_batch=4)
        system.submit(burst(16, prompt=256, output=256))
        system.run(until=10_000.0)
        scheduler = system.scheduler
        assert scheduler.active_passes > 0
