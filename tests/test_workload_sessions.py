"""Tests for closed-loop multi-turn sessions."""

import numpy as np
import pytest

from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.workload.sessions import TURN_STRIDE, SessionDriver, SessionSpec


def make_system(mem_frac=0.02, max_batch=8):
    config = ServingConfig(hardware="h200", model="llama3-8b",
                           mem_frac=mem_frac, max_batch=max_batch)
    return ServingSystem(config, TokenFlowScheduler())


class TestSpec:
    def test_prompt_grows_with_history(self):
        spec = SessionSpec(session_id=0, question_tokens=50, answer_tokens=100)
        assert spec.prompt_len_at(0) == 50
        assert spec.prompt_len_at(1) == 200   # 50+100 history + 50
        assert spec.prompt_len_at(2) == 350

    def test_request_ids_partitioned(self):
        spec = SessionSpec(session_id=3)
        assert spec.request_id(2) == 3 * TURN_STRIDE + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionSpec(session_id=0, n_turns=0)
        with pytest.raises(ValueError):
            SessionSpec(session_id=0, think_time_s=-1.0)
        with pytest.raises(ValueError):
            SessionSpec(session_id=0, question_tokens=0)


class TestDriver:
    def test_single_session_completes_all_turns(self):
        system = make_system()
        spec = SessionSpec(session_id=0, n_turns=3, think_time_s=2.0)
        driver = SessionDriver(system, [spec])
        driver.start()
        system.run(until=50_000.0)
        assert driver.all_done
        # All three turns tracked and finished.
        for turn in range(3):
            entry = system.tracker.get(spec.request_id(turn))
            assert entry.request.is_finished

    def test_follow_up_waits_for_reading_and_thinking(self):
        system = make_system()
        spec = SessionSpec(session_id=0, n_turns=2, answer_tokens=100,
                           rate=10.0, think_time_s=3.0)
        driver = SessionDriver(system, [spec])
        driver.start()
        system.run(until=50_000.0)
        first = system.tracker.get(spec.request_id(0))
        second = system.tracker.get(spec.request_id(1))
        read_done = first.buffer.final_consumption_time()
        # Turn 1 arrives only after reading (10s for 100 tokens) + think.
        assert second.request.arrival_time >= read_done + 3.0 - 1e-9

    def test_turns_completed_mid_and_end_of_session(self):
        system = make_system()
        spec = SessionSpec(session_id=0, n_turns=3, think_time_s=2.0)
        driver = SessionDriver(system, [spec])
        driver.start()
        assert driver.turns_completed(0) == 0
        # Stop between the first answer and the second turn's arrival.
        system.run(until=12.0)
        assert system.tracker.get(spec.request_id(0)).request.is_finished
        with pytest.raises(KeyError):
            system.tracker.get(spec.request_id(1))  # not yet arrived
        assert driver.turns_completed(0) == 1
        assert not driver.all_done
        system.run(until=50_000.0)
        assert driver.all_done
        assert driver.turns_completed(0) == 3

    def test_multiple_concurrent_sessions(self):
        system = make_system()
        sessions = [
            SessionSpec(session_id=i, n_turns=2, think_time_s=1.0,
                        first_arrival=0.2 * i)
            for i in range(6)
        ]
        driver = SessionDriver(system, sessions)
        driver.start()
        system.run(until=50_000.0)
        assert driver.all_done
        assert len(driver.completed_sessions) == 6

    def test_session_latency_reported(self):
        system = make_system()
        spec = SessionSpec(session_id=0, n_turns=2, think_time_s=1.0)
        driver = SessionDriver(system, [spec])
        driver.start()
        assert driver.session_latency(0) is None  # not finished yet
        system.run(until=50_000.0)
        latency = driver.session_latency(0)
        # Two answers read at 10 tok/s (19.2 s each) plus thinking.
        assert latency > 2 * spec.answer_tokens / spec.rate

    def test_randomised_think_time(self):
        system = make_system()
        spec = SessionSpec(session_id=0, n_turns=3, think_time_s=2.0)
        driver = SessionDriver(system, [spec], rng=np.random.default_rng(0))
        driver.start()
        system.run(until=100_000.0)
        assert driver.all_done

    def test_duplicate_session_ids_rejected(self):
        system = make_system()
        with pytest.raises(ValueError):
            SessionDriver(system, [SessionSpec(session_id=0),
                                   SessionSpec(session_id=0)])

    def test_second_hook_rejected(self):
        system = make_system()
        SessionDriver(system, [SessionSpec(session_id=0)])
        with pytest.raises(RuntimeError):
            SessionDriver(system, [SessionSpec(session_id=1)])

    def test_mixed_with_plain_requests(self):
        from repro.workload.request import Request
        system = make_system()
        driver = SessionDriver(
            system, [SessionSpec(session_id=0, n_turns=2, think_time_s=0.5)]
        )
        driver.start()
        # A plain request with an id outside the session partition.
        system.submit([Request(req_id=999_999, arrival_time=1.0,
                               prompt_len=64, output_len=32, rate=10.0)])
        system.run(until=50_000.0)
        assert driver.all_done
        assert system.unfinished == 0
