"""Unit tests for the Request Offload Manager."""

import pytest

from repro.core.offload import RequestOffloadManager
from repro.core.tracker import RequestTracker
from repro.memory.kv_manager import HierarchicalKVManager, KVManagerConfig
from repro.serving.interface import SchedulerDecision
from repro.sim.engine import SimEngine
from repro.workload.request import RequestState
from tests.conftest import make_request


@pytest.fixture
def setup():
    engine = SimEngine()
    tracker = RequestTracker()
    kv = HierarchicalKVManager(
        engine=engine,
        gpu_capacity_blocks=64,
        kv_bytes_per_token=1000.0,
        pcie_bandwidth_bytes_per_s=1e6,
        config=KVManagerConfig(block_size=16),
    )
    queues = {name: [] for name in
              ("waiting", "prefill_queue", "running", "preempted", "loading")}
    manager = RequestOffloadManager(
        engine=engine, tracker=tracker, kv=kv, **queues
    )
    return engine, tracker, kv, queues, manager


def register(tracker, kv, queues, state="waiting", tokens=32, req_id=0):
    request = make_request(req_id=req_id, prompt=tokens, output=16)
    tracker.register(request)
    kv.register(request.req_id)
    if state == "waiting":
        queues["waiting"].append(request)
    elif state == "running":
        request.transition(RequestState.PREFILLING)
        request.transition(RequestState.RUNNING)
        kv.allocate_for_prefill(request.req_id, tokens)
        kv.on_prefill_complete(request.req_id, tokens)
        queues["running"].append(request)
    return request


class TestAdmit:
    def test_admit_moves_to_prefill_queue(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = register(tracker, kv, queues)
        manager.admit(request)
        assert request.state is RequestState.PREFILLING
        assert queues["waiting"] == []
        assert queues["prefill_queue"] == [request]
        assert manager.stats["admissions"] == 1

    def test_admit_wrong_state_rejected(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = register(tracker, kv, queues, state="running")
        with pytest.raises(RuntimeError):
            manager.admit(request)


class TestPreempt:
    def test_preempt_offloads(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = register(tracker, kv, queues, state="running")
        manager.preempt(request)
        assert request.state is RequestState.PREEMPTED
        assert request.preemption_count == 1
        assert queues["preempted"] == [request]
        assert manager.stats["preemptions"] == 1

    def test_preempt_non_running_rejected(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = register(tracker, kv, queues)
        with pytest.raises(RuntimeError):
            manager.preempt(request)


class TestResume:
    def _preempted(self, setup, synced=True):
        engine, tracker, kv, queues, manager = setup
        request = register(tracker, kv, queues, state="running")
        if synced:
            kv.drain_writes(0.0, 10.0, priority=lambda rid: 0.0)
        manager.preempt(request)
        return request

    def test_resume_load_schedules_completion(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = self._preempted(setup)
        manager.resume_load(request)
        assert request.state is RequestState.LOADING
        assert queues["loading"] == [request]
        engine.run()
        assert request.state is RequestState.RUNNING
        assert queues["running"] == [request]
        assert manager.stats["loads"] == 1

    def test_resume_load_falls_back_to_recompute(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = self._preempted(setup)
        kv.cpu_pool.release_all(request.req_id)
        kv.record(request.req_id).cpu_tokens = 0  # host copy gone
        manager.resume_load(request)
        assert request.state is RequestState.PREFILLING
        assert manager.stats["recomputes"] == 1

    def test_resume_recompute_clears_host_copy(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = self._preempted(setup)
        manager.resume_recompute(request)
        assert request.state is RequestState.PREFILLING
        assert request.prefill_progress == 0
        assert kv.record(request.req_id).cpu_tokens == 0
        assert queues["prefill_queue"] == [request]

    def test_events_recorded(self, setup):
        """Each lifecycle transition is counted in ``stats``."""
        engine, tracker, kv, queues, manager = setup
        request = self._preempted(setup)
        manager.resume_load(request)
        assert manager.stats == {"admissions": 0, "preemptions": 1,
                                 "loads": 1, "recomputes": 0}


class TestExecute:
    def test_decision_order_preempts_first(self, setup):
        engine, tracker, kv, queues, manager = setup
        running = register(tracker, kv, queues, state="running", req_id=0)
        waiting = register(tracker, kv, queues, state="waiting", req_id=1)
        kv.drain_writes(0.0, 10.0, priority=lambda rid: 0.0)
        decision = SchedulerDecision(admit=[waiting], preempt=[running])
        manager.execute(decision)
        assert running.state is RequestState.PREEMPTED
        assert waiting.state is RequestState.PREFILLING

    def test_duplicate_requests_rejected(self, setup):
        engine, tracker, kv, queues, manager = setup
        request = register(tracker, kv, queues, state="running")
        decision = SchedulerDecision(preempt=[request], resume_load=[request])
        with pytest.raises(ValueError):
            manager.execute(decision)

    def test_state_change_callback_fires(self, setup):
        engine, tracker, kv, queues, manager = setup
        fired = []
        manager._on_state_change = lambda: fired.append(True)
        request = register(tracker, kv, queues)
        manager.execute(SchedulerDecision(admit=[request]))
        assert fired

    def test_empty_decision_no_callback(self, setup):
        engine, tracker, kv, queues, manager = setup
        fired = []
        manager._on_state_change = lambda: fired.append(True)
        manager.execute(SchedulerDecision())
        assert not fired
