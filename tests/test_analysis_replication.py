"""Unit + integration tests for multi-seed replication."""

import pytest

from repro.analysis.replication import (
    paired_win_rate,
    replicate,
    report_metrics,
)
from repro.experiments.runner import run_comparison
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec


class TestReplicate:
    def test_aggregates_scalars(self):
        aggregates = replicate(lambda seed: {"x": seed, "y": 2.0}, seeds=[1, 2, 3])
        assert aggregates["x"].mean == pytest.approx(2.0)
        assert aggregates["x"].minimum == 1.0
        assert aggregates["x"].maximum == 3.0
        assert aggregates["y"].std == 0.0
        assert aggregates["x"].n == 3

    def test_non_numeric_skipped(self):
        aggregates = replicate(
            lambda seed: {"x": 1.0, "name": "abc", "flag": True}, seeds=[0]
        )
        assert "name" not in aggregates
        assert "flag" not in aggregates

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda seed: {}, seeds=[])


class TestWinRate:
    def test_higher_better(self):
        rate = paired_win_rate(lambda s: (2.0, 1.0), seeds=[0, 1])
        assert rate == 1.0

    def test_lower_better(self):
        rate = paired_win_rate(lambda s: (2.0, 1.0), seeds=[0, 1],
                               lower_is_better=True)
        assert rate == 0.0

    def test_mixed(self):
        rate = paired_win_rate(lambda s: (s, 1), seeds=[0, 2])
        assert rate == 0.5


class TestAcrossSeedsClaim:
    def test_tokenflow_wins_ttft_across_seeds(self):
        """The headline TTFT claim holds for every tested seed."""

        def experiment(seed: int):
            spec = WorkloadSpec(
                arrival="burst", n_requests=40, burst_spread=0.25,
                rates=RateMixture.fixed(10.0),
            )
            requests = WorkloadBuilder(spec, RngStreams(seed)).build()
            reports = run_comparison(
                ("sglang", "tokenflow"), requests,
                hardware="h200", model="llama3-8b",
                mem_frac=0.02, max_batch=16,
            )
            return (
                reports["tokenflow"].ttft_p99,
                reports["sglang"].ttft_p99,
            )

        rate = paired_win_rate(experiment, seeds=[0, 1, 2], lower_is_better=True)
        assert rate == 1.0

    def test_report_metrics_extraction(self):
        spec = WorkloadSpec(arrival="burst", n_requests=6,
                            rates=RateMixture.fixed(10.0))
        requests = WorkloadBuilder(spec, RngStreams(0)).build()
        reports = run_comparison(("sglang",), requests,
                                 mem_frac=0.02, max_batch=8)
        metrics = report_metrics(reports["sglang"])
        assert set(metrics) >= {"throughput", "ttft_p99", "qos"}
