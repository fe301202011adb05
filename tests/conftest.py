"""Shared fixtures for the test suite."""

from __future__ import annotations

import bisect
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.core.scheduler import TokenFlowScheduler
from repro.serving.config import ServingConfig
from repro.serving.server import ServingSystem
from repro.serving.shard import ShardedServingCluster
from repro.serving.stages import DecodeStream, DecodeWindow
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


def events_processed(target) -> int:
    """Engine events a built run processed (a cluster sums its shards)."""
    if isinstance(target, ServingSystem):
        return target.engine.events_processed
    return sum(target.shard_events)


def occupancy_at_generation(buffer) -> list:
    """B_{i,j} of a trace-on buffer, token by token: the tokens
    delivered and not yet consumed at each token's generation instant
    (consumption times are non-decreasing, so a bisection counts the
    consumed ones)."""
    consumed = buffer.consumption_times
    return [j + 1 - bisect.bisect_right(consumed, g, 0, j + 1)
            for j, g in enumerate(buffer.generation_times)]


def identity_stripped(spec):
    """``spec`` with every request's sharing identity cleared.

    ``session_id``, ``prefix_group`` and ``prefix_len`` are reset on the
    same workload, so nothing reaches the KV block table's prefix index
    and every block is a fresh per-request allocation — the baseline a
    prefix-sharing run's savings are measured against.
    """

    def strip(request):
        request.session_id = None
        request.prefix_group = None
        request.prefix_len = 0
        return request

    changes = {}
    if spec.workload is not None:
        workload = spec.workload
        changes["workload"] = lambda s: [strip(r) for r in workload(s)]
    if spec.workload_stream is not None:
        stream = spec.workload_stream
        changes["workload_stream"] = lambda s: map(strip, stream(s))
    return spec.with_overrides(**changes)


SINGLE_NODE_METRICS = (
    "n_requests", "n_finished", "makespan", "total_tokens", "throughput",
    "effective_tokens", "effective_throughput", "qos", "ttft_mean",
    "ttft_p50", "ttft_p99", "stall_total", "stall_mean", "preemptions",
)
CLUSTER_METRICS = (
    "n_requests", "n_finished", "total_tokens", "throughput",
    "effective_throughput", "qos", "ttft_mean", "ttft_p50", "ttft_p99",
    "stall_total", "preemptions",
)


def _never_fuse(self, *args):
    return DecodeWindow("reference")


@pytest.fixture
def per_iteration():
    """Factory of a context manager that runs decode one event per
    iteration: ``DecodeStream._plan_fused`` returns a ``k == 1``
    window, so ``complete_decode`` never replays skipped boundaries
    (``complete_fused``), every token reaches ``deliver_batch`` one
    iteration at a time, and every scheduler tick is applied by
    ``on_tick`` itself.

    This is the fusion plane's reference path::

        with per_iteration():
            reference = run(...)

    The patch lives in this process only: a cluster must run its
    shards inline (``shards=1``) to see it.
    """
    return lambda: mock.patch.object(DecodeStream, "_plan_fused", _never_fuse)


def assert_parity(reference, report, keys=SINGLE_NODE_METRICS, label="",
                  timeline=True):
    """``report`` matches ``reference`` on every metric in ``keys`` to
    rel 1e-9 (float summation order in a few reporting aggregates is
    the only permitted difference), on ``scheduler_stats`` exactly
    (scheduling passes, fallback ticks and the offload counters — a
    mis-replayed tick shows here), and on the utilisation timeline
    exactly when ``timeline`` is set (single-node reports only)."""
    for key in keys:
        expected, actual = getattr(reference, key), getattr(report, key)
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9), (label, key)
    stats = getattr(reference, "scheduler_stats", None)
    if stats is not None:
        assert report.scheduler_stats == stats, label
    if timeline:
        assert report.timeline == reference.timeline, label


SCALAR_DECODE_REFERENCE = Path(__file__).with_name("scalar_decode_reference.json")


def assert_matches_scalar_reference(report, name, scale, seed):
    """``report`` reproduces the frozen scalar decode run of registry
    cell ``name`` at ``scale``/``seed`` (see scalar_decode_reference.json):
    metrics to rel 1e-9; for single-node cells also the executor
    iteration/token counts and the timeline, exactly."""
    cells = json.loads(SCALAR_DECODE_REFERENCE.read_text())["cells"]
    label = f"{name}@{scale}/seed{seed}"
    entry = cells[label]
    for key, expected in entry["metrics"].items():
        actual = getattr(report, key)
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9), (label, key)
    if "executor" in entry:
        for key, expected in entry["executor"].items():
            assert report.executor_stats[key] == expected, (label, key)
        # The reference stores the SHA-256 of the JSON list of
        # (t, queued, running) samples.
        blob = json.dumps([list(map(float, s)) for s in report.timeline])
        assert hashlib.sha256(blob.encode()).hexdigest() == entry["timeline_sha256"], label
