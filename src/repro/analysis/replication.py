"""Multi-seed replication: run an experiment across seeds, aggregate.

Single-seed comparisons can flatter either side; the paper reports
averages over repeated runs.  :func:`replicate` drives any
seed-parameterised experiment function across seeds and aggregates
each numeric metric into mean / std / min / max, with a paired
win-rate helper for A/B claims ("TokenFlow beats SGLang on TTFT in
k of n seeds").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class MetricAggregate:
    """Across-seed summary of one scalar metric."""

    name: str
    mean: float
    std: float
    minimum: float
    maximum: float
    n: int


def replicate(
    experiment: Callable[[int], dict],
    seeds: Sequence,
) -> dict:
    """Run ``experiment(seed) -> {metric: value}`` across seeds.

    Returns {metric: MetricAggregate}.  Metrics missing from some
    seeds, or non-numeric, are skipped.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    samples: dict = {}
    for seed in seeds:
        result = experiment(int(seed))
        for name, value in result.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            samples.setdefault(name, []).append(float(value))
    aggregates: dict = {}
    for name, values in samples.items():
        data = np.asarray(values)
        aggregates[name] = MetricAggregate(
            name=name,
            mean=float(data.mean()),
            std=float(data.std()),
            minimum=float(data.min()),
            maximum=float(data.max()),
            n=int(data.size),
        )
    return aggregates


def paired_win_rate(
    experiment: Callable[[int], tuple],
    seeds: Sequence,
    lower_is_better: bool = False,
) -> float:
    """Fraction of seeds where candidate beats baseline.

    ``experiment(seed)`` returns ``(candidate_value, baseline_value)``.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    wins = 0
    for seed in seeds:
        candidate, baseline = experiment(int(seed))
        if lower_is_better:
            wins += candidate < baseline
        else:
            wins += candidate > baseline
    return wins / len(seeds)


def report_metrics(report) -> dict:
    """Extract the scalar metrics of a RunReport for replication."""
    return {
        "throughput": report.throughput,
        "effective_throughput": report.effective_throughput,
        "ttft_mean": report.ttft_mean,
        "ttft_p50": report.ttft_p50,
        "ttft_p99": report.ttft_p99,
        "stall_total": report.stall_total,
        "qos": report.qos,
        "preemptions": report.preemptions,
    }
