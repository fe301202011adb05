"""Unit tests for report comparison utilities."""

import pytest

from repro.analysis.compare import (
    Delta,
    compare_reports,
    improvement_matrix,
    render_comparison,
)
from repro.experiments.runner import run_comparison
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec


class TestDelta:
    def test_higher_better_gain(self):
        delta = Delta("x", candidate=120.0, baseline=100.0, lower_is_better=False)
        assert delta.improvement == pytest.approx(0.2)
        assert delta.improvement > 0

    def test_lower_better_reduction(self):
        delta = Delta("x", candidate=2.0, baseline=10.0, lower_is_better=True)
        assert delta.improvement == pytest.approx(0.8)
        assert delta.improvement > 0

    def test_regression_detected(self):
        delta = Delta("x", candidate=15.0, baseline=10.0, lower_is_better=True)
        assert delta.improvement == pytest.approx(-0.5)
        assert delta.improvement <= 0

    def test_zero_baseline(self):
        delta = Delta("x", candidate=5.0, baseline=0.0, lower_is_better=False)
        assert delta.ratio == float("inf")
        zero = Delta("x", candidate=0.0, baseline=0.0, lower_is_better=True)
        assert zero.ratio == 1.0


@pytest.fixture(scope="module")
def reports():
    spec = WorkloadSpec(arrival="burst", n_requests=24, burst_spread=0.25,
                        rates=RateMixture.fixed(10.0))
    requests = WorkloadBuilder(spec, RngStreams(0)).build()
    return run_comparison(("sglang", "tokenflow"), requests,
                          hardware="h200", model="llama3-8b",
                          mem_frac=0.01, max_batch=8)


class TestCompareReports:
    def test_headline_metrics_present(self, reports):
        deltas = compare_reports(reports["tokenflow"], reports["sglang"])
        assert set(deltas) == {
            "effective_throughput", "throughput", "ttft_mean",
            "ttft_p99", "stall_total", "qos",
        }

    def test_tokenflow_improves_ttft(self, reports):
        deltas = compare_reports(reports["tokenflow"], reports["sglang"])
        assert deltas["ttft_p99"].improvement > 0

    def test_matrix_excludes_baseline(self, reports):
        matrix = improvement_matrix(reports, "sglang")
        assert "sglang" not in matrix
        assert "tokenflow" in matrix

    def test_matrix_unknown_baseline(self, reports):
        with pytest.raises(KeyError):
            improvement_matrix(reports, "vllm")

    def test_render(self, reports):
        table = render_comparison(reports, "sglang")
        assert "tokenflow" in table
        assert "%" in table
