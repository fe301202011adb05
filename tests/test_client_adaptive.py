"""Unit tests for adaptive reference-rate control (§8)."""

import pytest

from repro.client.adaptive import AdaptiveRateController, AdaptiveRateParams
from repro.client.buffer import ClientBuffer
from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.workload.request import Request


class TestParams:
    def test_defaults_valid(self):
        params = AdaptiveRateParams()
        assert params.min_rate <= params.max_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveRateParams(min_rate=10.0, max_rate=5.0)
        with pytest.raises(ValueError):
            AdaptiveRateParams(increase_step=0.0)
        with pytest.raises(ValueError):
            AdaptiveRateParams(decrease_factor=1.0)
        with pytest.raises(ValueError):
            AdaptiveRateParams(load_threshold=-1)


class TestAIMD:
    def test_additive_increase_when_idle(self):
        controller = AdaptiveRateController(AdaptiveRateParams(increase_step=3.0))
        assert controller.target_rate(10.0, loaded=False) == 13.0

    def test_capped_at_max(self):
        controller = AdaptiveRateController(AdaptiveRateParams(max_rate=12.0))
        assert controller.target_rate(11.0, loaded=False) == 12.0

    def test_multiplicative_backoff_when_loaded(self):
        controller = AdaptiveRateController(
            AdaptiveRateParams(decrease_factor=0.5)
        )
        assert controller.target_rate(20.0, loaded=True) == 10.0

    def test_floored_at_min(self):
        controller = AdaptiveRateController(AdaptiveRateParams(min_rate=8.0))
        assert controller.target_rate(9.0, loaded=True) == 8.0

    def test_load_signal(self):
        controller = AdaptiveRateController(AdaptiveRateParams(load_threshold=2))
        assert not controller.system_loaded(1, 1)
        assert controller.system_loaded(2, 1)


class TestBufferRateChange:
    def test_set_rate_affects_future_pacing(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.deliver(0.0)           # consumed at 0.0
        buffer.deliver(0.01)          # consumed at 0.1 (old interval)
        buffer.set_rate(2.0)          # 0.5 s interval from now on
        buffer.deliver(0.02)          # consumed at 0.1 + 0.5
        assert buffer.consumption_times == pytest.approx([0.0, 0.1, 0.6])
        assert buffer.interval == 0.5

    def test_same_rate_is_noop(self):
        buffer = ClientBuffer(rate=10.0)
        buffer.set_rate(10.0)
        assert (buffer.rate, buffer.interval) == (10.0, 0.1)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ClientBuffer(rate=10.0).set_rate(0.0)


class TestEndToEnd:
    def _mixed_workload(self):
        agents = [
            Request(req_id=i, arrival_time=0.0, prompt_len=64,
                    output_len=1024, rate=5.0, is_agent=True)
            for i in range(3)
        ]
        users = [
            Request(req_id=100 + i, arrival_time=3.0, prompt_len=128,
                    output_len=128, rate=10.0)
            for i in range(8)
        ]
        return agents + users

    def _run(self, controller):
        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.01, max_batch=6)
        system = ServingSystem(config, TokenFlowScheduler(),
                               rate_controller=controller)
        system.submit(self._mixed_workload())
        system.run(until=10_000.0)
        assert system.unfinished == 0
        return system

    def test_controller_adjusts_agent_rates(self):
        controller = AdaptiveRateController()
        system = self._run(controller)
        assert controller.adjustments > 0
        # Only agents were touched: user rates are untouched.
        for entry in system.tracker.entries():
            if not entry.request.is_agent:
                assert entry.request.rate == 10.0

    def test_agent_rates_rise_when_idle(self):
        params = AdaptiveRateParams(min_rate=5.0, max_rate=30.0)
        controller = AdaptiveRateController(params)
        config = ServingConfig(hardware="h200", model="llama3-8b",
                               mem_frac=0.05, max_batch=8)
        system = ServingSystem(config, TokenFlowScheduler(),
                               rate_controller=controller)
        agents = [
            Request(req_id=i, arrival_time=0.0, prompt_len=64,
                    output_len=2048, rate=5.0, is_agent=True)
            for i in range(2)
        ]
        system.submit(agents)
        system.run(until=5.0)  # several ticks, no user load
        live = [e.request for e in system.tracker.entries()
                if not e.request.is_finished]
        if live:
            assert all(r.rate > 5.0 for r in live)

    def test_agent_stalls_excluded_from_qos(self):
        controller = AdaptiveRateController()
        system = self._run(controller)
        report = system.report()
        # QoS terms for agents never include a rebuffer penalty even if
        # their reference-rate "playback" fell behind.
        agents = [m for m in report.per_request if m.req_id < 100]
        assert agents  # sanity
