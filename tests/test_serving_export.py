"""Unit tests for run-report serialization."""

import json

import pytest

from repro.baselines import SGLangScheduler
from repro.serving.config import ServingConfig
from repro.serving.metrics import report_to_dict
from repro.serving.server import ServingSystem
from repro.workload.request import Request


@pytest.fixture(scope="module")
def finished_system():
    config = ServingConfig(hardware="h200", model="llama3-8b",
                           mem_frac=0.02, max_batch=4)
    system = ServingSystem(config, SGLangScheduler())
    system.submit([
        Request(req_id=i, arrival_time=0.0, prompt_len=64,
                output_len=16, rate=10.0)
        for i in range(3)
    ])
    system.run(until=1_000.0)
    return system


class TestReportDict:
    def test_roundtrips_through_json(self, finished_system):
        payload = report_to_dict(finished_system.report())
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["n_finished"] == 3
        assert decoded["system"] == "sglang"
        assert decoded["total_tokens"] == 48
        assert len(decoded["per_request"]) == 3

    def test_requests_optional(self, finished_system):
        payload = report_to_dict(finished_system.report(), include_requests=False)
        assert "per_request" not in payload

    def test_nested_stats_jsonable(self, finished_system):
        payload = report_to_dict(finished_system.report())
        assert isinstance(payload["kv_stats"]["pcie_utilisation"], dict)
