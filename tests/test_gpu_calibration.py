"""Calibration tests: the roofline lands in published regimes."""

import pytest

from repro.gpu.hardware import HARDWARE_SPECS, get_hardware
from repro.gpu.models import get_model
from tests.calibration import calibrate, sanity_check


class TestPairings:
    @pytest.mark.parametrize("hardware,model", [
        ("h200", "llama3-8b"),
        ("a6000", "qwen2.5-7b"),
        ("rtx4090", "llama3-8b"),
        ("ascend910b", "llama3-8b"),
        ("h200", "qwen2.5-32b"),
    ])
    def test_paper_pairings_healthy(self, hardware, model):
        report = calibrate(get_hardware(hardware), get_model(model))
        assert sanity_check(report) == []

    def test_h200_llama8b_single_stream_ballpark(self):
        """Published H200 8B fp16 decode runs well above 100 tok/s."""
        report = calibrate(get_hardware("h200"), get_model("llama3-8b"))
        assert 100.0 < report.single_stream_tok_s < 1000.0

    def test_rtx4090_llama8b_single_stream_ballpark(self):
        """Consumer 4090 with 8B fp16 sits in the tens of tok/s."""
        report = calibrate(get_hardware("rtx4090"), get_model("llama3-8b"))
        assert 20.0 < report.single_stream_tok_s < 100.0

    def test_32b_slower_than_8b(self):
        h200 = get_hardware("h200")
        big = calibrate(h200, get_model("qwen2.5-32b"))
        small = calibrate(h200, get_model("llama3-8b"))
        assert big.single_stream_tok_s < small.single_stream_tok_s

    def test_batch_scaling_strong_on_h200(self):
        report = calibrate(get_hardware("h200"), get_model("llama3-8b"))
        assert report.batch_scaling > 10.0

    def test_load_beats_recompute_early(self):
        """§4.2.3 crossover: with an idle link, loading wins from small
        contexts on every paper pairing."""
        for hardware in ("h200", "a6000", "rtx4090"):
            report = calibrate(get_hardware(hardware), get_model("llama3-8b"))
            assert report.load_vs_recompute_crossover < 4096

    def test_weights_fit_flag(self):
        report = calibrate(get_hardware("rtx4090"), get_model("qwen2.5-32b"))
        assert not report.weights_fit
        assert "exceed device memory" in sanity_check(report)[0]

    def test_rows_renderable(self):
        report = calibrate(get_hardware("h200"), get_model("llama3-8b"))
        rows = report.rows()
        assert len(rows) == 7

    def test_all_specs_calibrate_without_error(self):
        for spec in HARDWARE_SPECS.values():
            calibrate(spec, get_model("llama3-8b"))
