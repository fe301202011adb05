"""Comparison utilities over run reports.

Benches and the CLI repeatedly compute "TokenFlow vs baseline" deltas;
this module centralises that arithmetic: pairwise improvement
summaries, a full improvement matrix across systems, and a rendered
comparison table with the deltas the paper's prose quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import render_table

# Metric name -> (attribute, lower_is_better)
HEADLINE_METRICS = {
    "effective_throughput": ("effective_throughput", False),
    "throughput": ("throughput", False),
    "ttft_mean": ("ttft_mean", True),
    "ttft_p99": ("ttft_p99", True),
    "stall_total": ("stall_total", True),
    "qos": ("qos", False),
}


@dataclass(frozen=True)
class Delta:
    """One metric's candidate-vs-baseline relation."""

    metric: str
    candidate: float
    baseline: float
    lower_is_better: bool

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.candidate > 0 else 1.0
        return self.candidate / self.baseline

    @property
    def improvement(self) -> float:
        """Positive = candidate better, as a fraction.

        For lower-is-better metrics this is the reduction
        (1 − candidate/baseline); otherwise the gain
        (candidate/baseline − 1).
        """
        if self.lower_is_better:
            return 1.0 - self.ratio
        return self.ratio - 1.0


def compare_reports(candidate, baseline) -> dict:
    """{metric: Delta} for the headline metrics of two RunReports."""
    deltas: dict = {}
    for name, (attribute, lower) in HEADLINE_METRICS.items():
        deltas[name] = Delta(
            metric=name,
            candidate=float(getattr(candidate, attribute)),
            baseline=float(getattr(baseline, attribute)),
            lower_is_better=lower,
        )
    return deltas


def improvement_matrix(reports: dict, baseline: str) -> dict:
    """{system: {metric: improvement}} against one baseline."""
    if baseline not in reports:
        raise KeyError(f"baseline {baseline!r} not among reports")
    base = reports[baseline]
    matrix: dict = {}
    for name, report in reports.items():
        if name == baseline:
            continue
        matrix[name] = {
            metric: delta.improvement
            for metric, delta in compare_reports(report, base).items()
        }
    return matrix


def render_comparison(
    reports: dict,
    baseline: str,
    metrics: Sequence = ("effective_throughput", "ttft_mean", "ttft_p99",
                         "throughput"),
    title: str = "",
) -> str:
    """Comparison table with percentage deltas against the baseline."""
    matrix = improvement_matrix(reports, baseline)
    rows = []
    for system, deltas in matrix.items():
        rows.append(
            [system] + [f"{deltas[m] * 100:+.1f}%" for m in metrics]
        )
    return render_table(
        ["system vs " + baseline] + list(metrics),
        rows,
        title=title or f"Improvements over {baseline}",
    )
