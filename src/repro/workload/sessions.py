"""Multi-turn conversation sessions (chatbot workloads).

The paper motivates TokenFlow with chatbots (§2.2), whose traffic is
*closed-loop*: a user sends turn k+1 only after reading the answer to
turn k and thinking for a while.  That dependency cannot be expressed
as a static arrival list — the follow-up time depends on when the
simulated answer finished streaming — so this module drives sessions
live against a :class:`~repro.serving.server.ServingSystem` using its
``on_request_finished`` hook.

Each turn's prompt carries the conversation history: prompt length
grows by the previous prompt + answer (plus the new question), the
standard multi-turn KV pattern (CachedAttention-style reuse is out of
scope; every turn prefills its full context, as SGLang does without
prefix caching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.workload.request import Request

# Session req_ids are partitioned as session_id * TURN_STRIDE + turn.
TURN_STRIDE = 1000


@dataclass(frozen=True)
class SessionSpec:
    """One simulated conversation.

    Attributes:
        session_id: unique id; request ids derive from it.
        n_turns: conversation length.
        first_arrival: when turn 0 arrives.
        question_tokens: prompt tokens each new question adds.
        answer_tokens: output tokens per answer.
        think_time_s: gap between finishing reading and asking again.
        rate: the user's consumption rate (tokens/s).
    """

    session_id: int
    n_turns: int = 4
    first_arrival: float = 0.0
    question_tokens: int = 64
    answer_tokens: int = 192
    think_time_s: float = 5.0
    rate: float = 10.0

    def __post_init__(self) -> None:
        if self.n_turns <= 0:
            raise ValueError("n_turns must be positive")
        if self.question_tokens <= 0 or self.answer_tokens <= 0:
            raise ValueError("token counts must be positive")
        if self.think_time_s < 0:
            raise ValueError("think_time_s must be non-negative")
        if self.n_turns > TURN_STRIDE:
            raise ValueError(f"n_turns cannot exceed {TURN_STRIDE}")

    def request_id(self, turn: int) -> int:
        return self.session_id * TURN_STRIDE + turn

    def prompt_len_at(self, turn: int) -> int:
        """History (questions + answers so far) plus the new question."""
        history = turn * (self.question_tokens + self.answer_tokens)
        return history + self.question_tokens


class SessionDriver:
    """Runs closed-loop conversations against a serving system."""

    def __init__(self, system, sessions: list,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not sessions:
            raise ValueError("need at least one session")
        ids = [s.session_id for s in sessions]
        if len(set(ids)) != len(ids):
            raise ValueError("session ids must be unique")
        self.system = system
        self.sessions = {spec.session_id: spec for spec in sessions}
        self._turn: dict = {spec.session_id: 0 for spec in sessions}
        self._rng = rng
        self.completed_sessions: list = []
        if system.on_request_finished is not None:
            raise RuntimeError("serving system already has a finish hook")
        system.on_request_finished = self._on_finished

    # --- driving ----------------------------------------------------------
    def start(self) -> None:
        """Submit every session's first turn."""
        for spec in self.sessions.values():
            self._submit_turn(spec, turn=0, arrival=spec.first_arrival)

    def _submit_turn(self, spec: SessionSpec, turn: int, arrival: float) -> None:
        request = Request(
            req_id=spec.request_id(turn),
            arrival_time=arrival,
            prompt_len=spec.prompt_len_at(turn),
            output_len=spec.answer_tokens,
            rate=spec.rate,
            session_id=spec.session_id,
        )
        self.system.submit([request])

    def _on_finished(self, request) -> None:
        session_id, turn = divmod(request.req_id, TURN_STRIDE)
        spec = self.sessions.get(session_id)
        if spec is None:
            return  # not one of ours (mixed workloads are fine)
        if turn != self._turn[session_id]:
            return
        self._turn[session_id] = turn + 1
        if turn + 1 >= spec.n_turns:
            self.completed_sessions.append(session_id)
            return
        # The user reads to the end of the answer, thinks, then asks.
        buffer = self.system.tracker.get(request.req_id).buffer
        read_done = buffer.final_consumption_time()
        now = self.system.engine.now()
        base = read_done if read_done is not None else now
        think = spec.think_time_s
        if self._rng is not None and think > 0:
            think = float(self._rng.exponential(think))
        next_arrival = max(now, base) + think
        self._submit_turn(spec, turn + 1, next_arrival)

    # --- queries ----------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return len(self.completed_sessions) == len(self.sessions)

    def session_latency(self, session_id: int) -> Optional[float]:
        """Wall time from the first turn's arrival to the last answer
        being fully read (None until the session completes)."""
        spec = self.sessions[session_id]
        if session_id not in self.completed_sessions:
            return None
        last = self.system.tracker.get(spec.request_id(spec.n_turns - 1))
        end = last.buffer.final_consumption_time()
        assert end is not None
        return end - spec.first_arrival
