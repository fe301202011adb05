"""Shared fixtures for the test suite."""

from __future__ import annotations

import bisect

import pytest

from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.serving.shard import ShardedServingCluster
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


def homogeneous_cluster(n_instances, scheduler_factory, router="least_loaded",
                        shards=1, transport=None, **config_kwargs):
    """A cluster of ``n_instances`` identical nodes."""
    configs = [ServingConfig(**config_kwargs) for _ in range(n_instances)]
    return ShardedServingCluster(configs, scheduler_factory, router=router,
                                 shards=shards, transport=transport)


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


def occupancy_at_generation(buffer) -> list:
    """B_{i,j} of a trace-on buffer, token by token: the tokens
    delivered and not yet consumed at each token's generation instant
    (consumption times are non-decreasing, so a bisection counts the
    consumed ones)."""
    consumed = buffer.consumption_times
    return [j + 1 - bisect.bisect_right(consumed, g, 0, j + 1)
            for j, g in enumerate(buffer.generation_times)]

