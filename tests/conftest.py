"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.sim.engine import SimEngine
from repro.sim.rng import RngStreams
from repro.workload.request import Request


@pytest.fixture
def engine() -> SimEngine:
    return SimEngine()


@pytest.fixture
def rng_streams() -> RngStreams:
    return RngStreams(root_seed=1234)


@pytest.fixture
def small_config() -> ServingConfig:
    """A small H200 slice: tight memory so preemption paths trigger."""
    return ServingConfig(
        hardware="h200", model="llama3-8b", mem_frac=0.05, max_batch=8
    )


@pytest.fixture
def tokenflow_system(small_config) -> ServingSystem:
    return ServingSystem(small_config, TokenFlowScheduler())


def make_request(
    req_id: int = 0,
    arrival: float = 0.0,
    prompt: int = 64,
    output: int = 32,
    rate: float = 10.0,
) -> Request:
    """Concise request constructor for tests."""
    return Request(
        req_id=req_id,
        arrival_time=arrival,
        prompt_len=prompt,
        output_len=output,
        rate=rate,
    )


@pytest.fixture
def request_factory():
    return make_request


def events_processed(target) -> int:
    """Engine events a built run processed (a cluster sums its shards)."""
    if isinstance(target, ServingSystem):
        return target.engine.events_processed
    return sum(target.shard_events)
