"""Request object and lifecycle state machine.

A request carries its workload parameters (prompt length, output
length, required consumption rate) plus the runtime state the serving
system mutates as the request moves through

    QUEUED -> PREFILLING -> RUNNING -> FINISHED
                 ^              |
                 |              v
              (recompute)   PREEMPTED -> LOADING -> RUNNING

Transitions are validated so scheduler bugs surface as exceptions
instead of silent metric corruption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class RequestState(enum.Enum):
    """Lifecycle states of a request inside the serving system."""

    QUEUED = "queued"          # arrived, waiting for admission
    PREFILLING = "prefilling"  # admitted, waiting for / running prefill
    RUNNING = "running"        # in the decode batch
    PREEMPTED = "preempted"    # KV offloaded (or dropped), not decoding
    LOADING = "loading"        # KV transfer from CPU in flight
    FINISHED = "finished"      # all output tokens generated
    CANCELLED = "cancelled"    # client disconnected / aborted


# Legal state transitions; see the module docstring diagram.  A live
# request can be cancelled from any non-terminal state (client
# disconnects happen whenever).
_ALLOWED_TRANSITIONS: dict[RequestState, frozenset[RequestState]] = {
    RequestState.QUEUED: frozenset({RequestState.PREFILLING, RequestState.CANCELLED}),
    RequestState.PREFILLING: frozenset(
        {RequestState.RUNNING, RequestState.QUEUED, RequestState.CANCELLED}
    ),
    RequestState.RUNNING: frozenset(
        {RequestState.PREEMPTED, RequestState.FINISHED, RequestState.CANCELLED}
    ),
    RequestState.PREEMPTED: frozenset(
        {RequestState.LOADING, RequestState.PREFILLING, RequestState.CANCELLED}
    ),
    RequestState.LOADING: frozenset(
        {RequestState.RUNNING, RequestState.PREEMPTED, RequestState.CANCELLED}
    ),
    RequestState.FINISHED: frozenset(),
    RequestState.CANCELLED: frozenset(),
}


class InvalidTransition(RuntimeError):
    """Raised on a request state transition the lifecycle forbids."""


@dataclass(eq=False)
class Request:
    """One streaming request.

    Workload attributes are immutable after construction; runtime
    attributes are mutated by the serving system.

    Identity semantics (``eq=False``): req_ids are unique within a run
    and queue membership always means "this very object", so list
    ``remove``/``in`` on the serving queues compare by identity instead
    of field-by-field dataclass equality.

    A request keeps no per-token state: it counts its tokens and
    remembers its first-token latency (``ttft``).  Token bookkeeping
    happens in ``RequestTracker.deliver_tokens`` and the batch plane's
    ``deliver_batch`` only.  Per-token timestamps live in the client
    buffer's opt-in traces (``ServingConfig.record_token_traces``,
    read through ``ClientBuffer.generation_times``), and the buffer's
    last generation time is what orders deliveries.

    Attributes:
        req_id: unique id within a run.
        arrival_time: simulation time of arrival (seconds).
        prompt_len: prompt tokens to prefill.
        output_len: output tokens to generate.
        rate: required consumption rate, tokens/second.  For non-user
            consumers this is a *reference rate* used purely as a
            scheduling priority signal (paper §8).
        is_agent: True for non-user consumers (reference-rate clients).
        session_id: conversation this request is a turn of (None for
            standalone requests).  Session-aware routing keys on it,
            and the prefix-sharing allocator treats the session as a
            block namespace (each turn re-feeds the previous context
            verbatim, so prefixes align by construction).
        prefix_group: id of a shared-prompt group (e.g. requests
            replaying one RAG corpus / system prompt); ``prefix_len``
            leading tokens are common to the group.  None for requests
            with no cross-request prompt sharing.
        prefix_len: length of the shared prompt prefix when
            ``prefix_group`` is set (0 otherwise).
    """

    req_id: int
    arrival_time: float
    prompt_len: int
    output_len: int
    rate: float
    is_agent: bool = False
    session_id: Optional[int] = None
    prefix_group: Optional[int] = None
    prefix_len: int = 0

    # --- runtime state -------------------------------------------------
    state: RequestState = field(default=RequestState.QUEUED)
    generated: int = 0                      # output tokens produced so far
    ttft: Optional[float] = None            # first-token latency (seconds)
    finish_time: Optional[float] = None
    preemption_count: int = 0
    admitted_time: Optional[float] = None
    prefill_progress: int = 0               # tokens prefilled this pass

    def __post_init__(self) -> None:
        if self.prompt_len <= 0:
            raise ValueError(f"prompt_len must be positive, got {self.prompt_len}")
        if self.output_len <= 0:
            raise ValueError(f"output_len must be positive, got {self.output_len}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be non-negative, got {self.arrival_time}")
        if self.prefix_len < 0:
            raise ValueError(f"prefix_len must be non-negative, got {self.prefix_len}")
        if self.prefix_group is not None and self.prefix_len <= 0:
            raise ValueError("prefix_group requires a positive prefix_len")
        if self.prefix_group is not None and self.prefix_len > self.prompt_len:
            raise ValueError(
                f"prefix_len {self.prefix_len} exceeds prompt_len {self.prompt_len}"
            )

    # --- derived quantities --------------------------------------------
    @property
    def context_len(self) -> int:
        """Prompt plus generated tokens — the KV-cache footprint."""
        return self.prompt_len + self.generated

    @property
    def is_finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def affinity_key(self) -> Optional[int]:
        """Routing key for session-sticky policies (None = stateless).

        The typed accessor session-affinity routing and prefix lookups
        share: wherever a component asks "which conversation does this
        request belong to", it goes through here.
        """
        return self.session_id

    def sharing_identity(self) -> Optional[tuple]:
        """Prefix-sharing namespace, or None if nothing is shareable.

        Returns ``((kind, id), limit)`` where ``limit`` bounds the
        shareable token span (None = the whole context, for session
        turns that re-feed prior history verbatim; ``prefix_len`` for
        shared-prompt groups).  The simulator has no token content, so
        block "content hashes" are modelled as ``(namespace, index)``
        positions within this namespace — see
        :mod:`repro.memory.blocktable`.
        """
        if self.session_id is not None:
            return (("sess", self.session_id), None)
        if self.prefix_group is not None:
            return (("grp", self.prefix_group), self.prefix_len)
        return None

    # --- lifecycle ------------------------------------------------------
    def transition(self, new_state: RequestState) -> None:
        """Move to ``new_state``, validating against the lifecycle."""
        if new_state not in _ALLOWED_TRANSITIONS[self.state]:
            raise InvalidTransition(
                f"request {self.req_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def __repr__(self) -> str:
        return (
            f"Request(id={self.req_id}, state={self.state.value}, "
            f"prompt={self.prompt_len}, out={self.generated}/{self.output_len}, "
            f"rate={self.rate})"
        )


def clone_requests(requests) -> list:
    """Fresh copies of the workload attributes of ``requests``.

    Every comparison runs each system on the *same* workload; cloning
    gives each run pristine request objects (runtime state is
    per-system).
    """
    return [
        Request(
            req_id=r.req_id,
            arrival_time=r.arrival_time,
            prompt_len=r.prompt_len,
            output_len=r.output_len,
            rate=r.rate,
            is_agent=r.is_agent,
            session_id=r.session_id,
            prefix_group=r.prefix_group,
            prefix_len=r.prefix_len,
        )
        for r in requests
    ]
