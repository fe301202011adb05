"""Unit tests for working-set sizing and admission (Eq. 4-5)."""

import math
import random
from types import SimpleNamespace

import pytest

from repro.core.estimator import SlidingWindowMean
from repro.core.scheduler import TokenFlowScheduler
from repro.core.working_set import WorkingSetParams, WorkingSetPolicy
from repro.workload.request import Request


def make_policy(capacity_tokens=64_000, **kwargs) -> WorkingSetPolicy:
    return WorkingSetPolicy(capacity_tokens, WorkingSetParams(**kwargs))


class TestBeta:
    def test_initial_beta(self):
        policy = make_policy(initial_beta_tokens=1000.0)
        assert policy.beta() == 1000.0

    def test_beta_learns_from_observations(self):
        policy = make_policy(beta_window=4)
        for _ in range(4):
            policy.observe_footprints([SimpleNamespace(prompt_len=1500, generated=500)])
        assert policy.beta() == pytest.approx(2000.0)

    def test_invalid_footprint_rejected(self):
        # β observes prompt + generated tokens; a request cannot have a
        # non-positive prompt, so no observed footprint is ever <= 0.
        with pytest.raises(ValueError):
            Request(req_id=0, arrival_time=0.0, prompt_len=0, output_len=1, rate=1.0)


def make_running(rng, batch):
    return [
        SimpleNamespace(prompt_len=rng.randint(1, 60_000),
                        generated=rng.randint(0, 4_000))
        for _ in range(batch)
    ]


def at_boundary(running, j):
    """The running requests as boundary ``j`` of a window observes them."""
    return [SimpleNamespace(prompt_len=r.prompt_len, generated=r.generated + j)
            for r in running]


class TestBetaReplay:
    """A fused window's β replay keeps only the last ``beta_window``
    observations; it must leave the window exactly as the skipped
    per-boundary :meth:`observe_footprints` calls would."""

    @pytest.mark.parametrize("batch, n_iters", [
        (1, 200),    # B = 1
        (100, 3),    # B > beta_window
        (5, 4),      # K·B < beta_window: older observations survive
        (7, 500),    # K·B >> beta_window
        (64, 1),     # K = 1
    ])
    def test_replay_matches_sequential_boundaries(self, batch, n_iters):
        rng = random.Random(batch * 1000 + n_iters)
        warm = make_running(rng, 9)
        running = make_running(rng, batch)
        sequential = make_policy()
        replayed = make_policy()
        for policy in (sequential, replayed):
            policy.observe_footprints(warm)
        for j in range(1, n_iters + 1):
            sequential.observe_footprints(at_boundary(running, j))
        replayed.replay_footprints(running, n_iters)
        assert list(replayed._contexts) == list(sequential._contexts)
        assert replayed.beta() == sequential.beta()

    def test_integer_window_equals_float_running_mean(self):
        # The float running sum the window replaces: every partial sum
        # is an integer far below 2**53, so it is exact and both means
        # are the same correctly rounded quotient.
        rng = random.Random(3)
        running = make_running(rng, 13)
        policy = make_policy()
        policy.replay_footprints(running, 1000)
        floats = SlidingWindowMean(policy.params.beta_window)
        for j in range(1, 1001):
            for r in running:
                floats.observe(float(r.prompt_len + r.generated + j))
        assert policy.beta() == floats.mean()

    def test_fused_boundaries_without_work_are_noops(self):
        rng = random.Random(5)
        running = make_running(rng, 4)
        scheduler = TokenFlowScheduler()
        scheduler.on_fused_boundaries(running, 5)   # no policy yet
        assert scheduler._working_set is None
        policy = scheduler._working_set = make_policy()
        policy.observe_footprints(running)
        before = (list(policy._contexts), policy.beta())
        scheduler.on_fused_boundaries(running, 0)
        scheduler.on_fused_boundaries([], 7)
        assert (list(policy._contexts), policy.beta()) == before


class TestSizing:
    def test_w_static_eq4(self):
        policy = make_policy(initial_beta_tokens=1000.0)
        assert policy.w_static() == 64  # 64000 / 1000

    def test_w_static_at_least_one(self):
        policy = make_policy(capacity_tokens=100, initial_beta_tokens=1000.0)
        assert policy.w_static() == 1

    def test_w_max_overcommits(self):
        policy = make_policy(initial_beta_tokens=1000.0, overcommit_factor=2.0)
        assert policy.w_max() == 128

    def test_w_scheduled_scales_down_when_idle(self):
        policy = make_policy(initial_beta_tokens=1000.0, adjust_rate=0.5)
        idle = policy.w_scheduled(0)
        busy = policy.w_scheduled(60)
        assert idle < busy

    def test_w_scheduled_saturates_at_w_max(self):
        policy = make_policy(initial_beta_tokens=1000.0)
        assert policy.w_scheduled(10_000) == policy.w_max()

    def test_w_scheduled_at_least_n_running(self):
        policy = make_policy(initial_beta_tokens=1000.0)
        for n in (0, 10, 50, 100):
            assert policy.w_scheduled(n) >= min(n, policy.w_max())

    def test_negative_running_rejected(self):
        with pytest.raises(ValueError):
            make_policy().w_scheduled(-1)


class TestAdmission:
    def test_buffer_requirement_formula(self):
        policy = make_policy(safety_factor=2.0, schedule_latency=0.5)
        required = policy.admission_buffer_requirement(
            rate=10.0, tau_evict=0.1, tau_load=0.4
        )
        assert required == pytest.approx(2.0 * 10.0 * (0.1 + 0.4 + 0.5))

    def test_safety_factor_scales_requirement(self):
        relaxed = make_policy(safety_factor=1.0)
        cautious = make_policy(safety_factor=20.0)
        assert cautious.admission_buffer_requirement(10.0, 0.1, 0.1) == pytest.approx(
            20 * relaxed.admission_buffer_requirement(10.0, 0.1, 0.1)
        )

    def test_is_preemption_safe(self):
        policy = make_policy(safety_factor=2.0, schedule_latency=0.5)
        need = policy.admission_buffer_requirement(10.0, 0.1, 0.4)
        assert policy.is_preemption_safe(need, 10.0, 0.1, 0.4)
        assert not policy.is_preemption_safe(need - 1, 10.0, 0.1, 0.4)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            make_policy().admission_buffer_requirement(0.0, 0.1, 0.1)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkingSetParams(overcommit_factor=0.5)
        with pytest.raises(ValueError):
            WorkingSetParams(adjust_rate=1.5)
        with pytest.raises(ValueError):
            WorkingSetParams(safety_factor=0.5)
        with pytest.raises(ValueError):
            WorkingSetParams(schedule_latency=-1.0)
        with pytest.raises(ValueError):
            WorkingSetParams(beta_window=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                WorkingSetParams(overcommit_factor=bad)
            with pytest.raises(ValueError):
                WorkingSetParams(adjust_rate=bad)
            with pytest.raises(ValueError):
                WorkingSetParams(safety_factor=bad)
            with pytest.raises(ValueError):
                WorkingSetParams(schedule_latency=bad)
        for bad in (math.nan, math.inf, -math.inf, -5.0, 0.0):
            with pytest.raises(ValueError):
                WorkingSetParams(initial_beta_tokens=bad)
        with pytest.raises(ValueError):
            WorkingSetPolicy(0.0)
