"""Unit tests for the experiment runner and small experiment modules."""

import pytest

from repro.experiments.runner import clone_requests, run_comparison, run_single
from repro.experiments.systems import build_system
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec
from repro.workload.lengths import NormalLengthSampler
from repro.workload.request import RequestState


def small_workload(n=6):
    spec = WorkloadSpec(
        arrival="burst",
        n_requests=n,
        burst_spread=0.1,
        lengths=NormalLengthSampler(prompt_mean=64, prompt_std=8,
                                    output_mean=64, output_std=8),
        rates=RateMixture.fixed(10.0),
    )
    return WorkloadBuilder(spec, RngStreams(0)).build()


class TestCloneRequests:
    def test_clone_copies_workload_attributes(self):
        original = small_workload(3)
        clones = clone_requests(original)
        for a, b in zip(original, clones):
            assert a is not b
            assert (a.req_id, a.arrival_time, a.prompt_len, a.output_len, a.rate) == (
                b.req_id, b.arrival_time, b.prompt_len, b.output_len, b.rate
            )

    def test_clone_resets_runtime_state(self):
        original = small_workload(1)
        original[0].transition(RequestState.PREFILLING)
        original[0].generated = 1
        original[0].ttft = 1.0
        clone = clone_requests(original)[0]
        assert clone.state is RequestState.QUEUED
        assert clone.generated == 0


class TestRunSingle:
    def test_completes_and_reports(self):
        system = build_system("sglang", mem_frac=0.05, max_batch=8)
        report = run_single(system, small_workload())
        assert report.n_finished == 6

    def test_horizon_violation_raises(self):
        system = build_system("sglang", mem_frac=0.05, max_batch=8)
        with pytest.raises(RuntimeError):
            run_single(system, small_workload(), horizon=0.001)

    def test_original_requests_untouched(self):
        requests = small_workload()
        system = build_system("sglang", mem_frac=0.05, max_batch=8)
        run_single(system, requests)
        assert all(r.state is RequestState.QUEUED for r in requests)


class TestRunComparison:
    def test_all_systems_reported(self):
        reports = run_comparison(
            ("sglang", "tokenflow"), small_workload(),
            mem_frac=0.05, max_batch=8,
        )
        assert list(reports) == ["sglang", "tokenflow"]
        assert all(r.n_finished == 6 for r in reports.values())

    def test_identical_workload_token_totals(self):
        reports = run_comparison(
            ("sglang", "andes"), small_workload(),
            mem_frac=0.05, max_batch=8,
        )
        totals = {r.total_tokens for r in reports.values()}
        assert len(totals) == 1  # same workload, same token count
