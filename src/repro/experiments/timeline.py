"""Token-generation timelines (paper Figure 18).

Runs a small burst under SGLang and TokenFlow and extracts per-request
token trajectories.  SGLang shows head-of-line blocking — later
requests wait for earlier ones — while TokenFlow starts every stream
early and paces each near its required speed, with visible plateaus
where a request was preempted on its buffer.

The trajectories come from the client buffers' per-token traces, so
every run here sets ``record_token_traces``; requests themselves keep
no per-token timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.scenarios.build import build_run
from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec
from repro.workload.lengths import NormalLengthSampler


@dataclass(frozen=True)
class TimelineResult:
    """Per-system token trajectories."""

    system: str
    ttfts: dict              # req_id -> ttft
    token_times: dict        # req_id -> array of generation timestamps
    required_rates: dict     # req_id -> tokens/s


def run_timelines(
    systems: Sequence = ("sglang", "tokenflow"),
    n_requests: int = 12,
    rate: float = 10.0,
    hardware: str = "rtx4090",
    model: str = "llama3-8b",
    max_batch: int = 4,
    seed: int = 0,
) -> dict:
    """Run the burst under each system -> {name: TimelineResult}."""
    spec = WorkloadSpec(
        arrival="burst",
        n_requests=n_requests,
        burst_spread=0.1,
        lengths=NormalLengthSampler(
            prompt_mean=384, prompt_std=64, output_mean=512, output_std=96
        ),
        rates=RateMixture.fixed(rate),
    )
    requests = WorkloadBuilder(spec, RngStreams(seed)).build()
    results: dict = {}
    for name in systems:
        run = build_run(
            ScenarioSpec(name=name, system=name, hardware=hardware,
                         model=model, max_batch=max_batch,
                         record_token_traces=True),
            requests=requests,
        )
        run.execute()
        system = run.target
        token_times = {}
        ttfts = {}
        rates = {}
        for entry in system.tracker.entries():
            request = entry.request
            token_times[request.req_id] = np.asarray(entry.buffer.generation_times)
            ttfts[request.req_id] = request.ttft
            rates[request.req_id] = request.rate
        results[name] = TimelineResult(
            system=name, ttfts=ttfts, token_times=token_times, required_rates=rates
        )
    return results


def tokens_at(times: np.ndarray, grid: Sequence) -> np.ndarray:
    """Cumulative token count at each grid point."""
    return np.searchsorted(times, np.asarray(list(grid), dtype=float), side="right")


def render_timelines(results: dict, grid_step: float = 2.0, max_requests: int = 6) -> str:
    """Fig. 18-style table: cumulative tokens per request over time."""
    blocks = []
    for name, result in results.items():
        horizon = max(
            (float(t[-1]) for t in result.token_times.values() if len(t)), default=0.0
        )
        grid = np.arange(0.0, horizon + grid_step, grid_step)
        req_ids = sorted(result.token_times)[:max_requests]
        rows = []
        for t in grid:
            rows.append(
                [round(float(t), 1)]
                + [int(tokens_at(result.token_times[rid], [t])[0]) for rid in req_ids]
            )
        blocks.append(
            render_table(
                ["t(s)"] + [f"req{rid}" for rid in req_ids],
                rows,
                title=f"Fig. 18 token timeline — {name} "
                f"(mean TTFT {np.mean([v for v in result.ttfts.values() if v is not None]):.2f}s)",
            )
        )
    return "\n\n".join(blocks)
