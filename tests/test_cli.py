"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "tab02" in out

    def test_experiment_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestExperimentCommand:
    def test_fig01_renders(self, capsys):
        assert main(["experiment", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "english" in out

    def test_fig06_renders(self, capsys):
        assert main(["experiment", "fig06"]) == 0
        out = capsys.readouterr().out
        assert "R3_buffer" in out

    def test_all_ids_have_descriptions(self):
        for name, (description, _) in EXPERIMENTS.items():
            assert description


class TestScenarioCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "table1-h200-a" in out
        assert "cluster-burst-4x" in out
        assert "bursty-sessions" in out

    def test_run_single_instance(self, capsys):
        assert main(["run", "table1-h200-a", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "single instance" in out
        assert "tokenflow" in out

    def test_run_cluster_with_router(self, capsys):
        code = main([
            "run", "table1-h200-a", "--scale", "0.05",
            "--replicas", "4", "--router", "buffer_aware",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 replicas" in out and "buffer_aware" in out
        assert "node3" in out

    def test_run_is_deterministic(self, capsys):
        args = ["run", "table1-h200-a", "--scale", "0.05",
                "--replicas", "2", "--router", "buffer_aware"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_unknown_system_fails_cleanly(self, capsys):
        code = main(["run", "table1-h200-a", "--scale", "0.05",
                     "--system", "warp"])
        assert code == 2
        assert "unknown system" in capsys.readouterr().err

    def test_run_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1-h200-a",
                                       "--router", "warp_drive"])

    def test_run_out_writes_json_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        code = main(["run", "table1-h200-a", "--scale", "0.05",
                     "--out", str(path)])
        assert code == 0
        assert f"wrote {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["scenario"]["name"] == "table1-h200-a"
        assert payload["report"]["n_requests"] > 0
        # The artifact mirrors `repro profile --json`: executor/kv/
        # scheduler stats included, per-request rows elided.
        assert payload["report"]["executor_stats"]["decode_iterations"] > 0
        assert "pcie_utilisation" in payload["report"]["kv_stats"]
        assert payload["report"]["scheduler_stats"]["name"] == "tokenflow"
        assert "per_request" not in payload["report"]

    def test_run_out_json_is_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "table1-h200-a", "--scale", "0.05",
                     "--out", str(first)]) == 0
        assert main(["run", "table1-h200-a", "--scale", "0.05",
                     "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()

    def test_run_out_cluster_payload(self, capsys, tmp_path):
        import json

        path = tmp_path / "cluster.json"
        code = main(["run", "cluster-burst-4x", "--scale", "0.1",
                     "--out", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["scenario"]["replicas"] == 4
        assert len(payload["per_instance"]) == 4
        assert sum(payload["placement_counts"]) == payload["cluster"]["n_requests"]

    def test_run_stream_flag_matches_submit(self, capsys):
        args = ["run", "table1-h200-a", "--scale", "0.05"]
        assert main(args) == 0
        submitted = capsys.readouterr().out
        assert main(args + ["--stream"]) == 0
        streamed = capsys.readouterr().out
        assert submitted == streamed

    def test_run_soak_scenario_streams_natively(self, capsys):
        # Stream-native scenario with streaming telemetry end-to-end.
        assert main(["run", "soak-steady", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "soak-steady" in out

    def test_selftest_registered(self):
        args = build_parser().parse_args(["selftest"])
        assert args.func.__name__ == "cmd_selftest"
        assert args.fast is False

    def test_selftest_fast_flag(self):
        args = build_parser().parse_args(["selftest", "--fast"])
        assert args.fast is True


class TestMatrixCommand:
    def test_list_expands_cells_without_running(self, capsys):
        code = main(["matrix", "table1-h200-a", "cluster-burst-4x",
                     "--seeds", "0", "1", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out
        assert "table1-h200-a/seed=1" in out
        assert "cluster-burst-4x/seed=0" in out

    def test_small_matrix_runs(self, capsys, tmp_path):
        code = main([
            "matrix", "cluster-burst-4x", "--scale", "0.05",
            "--seeds", "0", "1", "--jobs", "1", "--no-cache",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cells" in out and "0 failed" in out
        assert (tmp_path / "matrix_report.md").exists()
        assert (tmp_path / "matrix_report.json").exists()

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["matrix", "not-a-scenario", "--list"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_invalid_jobs_fails_cleanly(self, capsys):
        code = main(["matrix", "cluster-burst-4x", "--scale", "0.05",
                     "--jobs", "0", "--no-cache"])
        assert code == 2
        assert "jobs must be" in capsys.readouterr().err

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--routers", "warp_drive"])


class TestCompareCommand:
    def test_small_burst_comparison(self, capsys):
        code = main([
            "compare", "--systems", "sglang", "tokenflow",
            "--n-requests", "8", "--mem-frac", "0.01", "--max-batch", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sglang" in out and "tokenflow" in out

    def test_poisson_comparison(self, capsys):
        code = main([
            "compare", "--systems", "sglang", "--arrival", "poisson",
            "--poisson-rate", "0.5", "--duration", "10",
            "--mem-frac", "0.05", "--max-batch", "8",
        ])
        assert code == 0
        assert "poisson" in capsys.readouterr().out


class TestProfileCommand:
    def test_by_subsystem_renders(self, capsys):
        assert main(["profile", "--scale", "0.02", "--by-subsystem"]) == 0
        out = capsys.readouterr().out
        assert "-- by subsystem (exclusive time) --" in out
        for name in ("serving", "kv", "buffer"):
            assert name in out

    def test_json_artifact_includes_subsystems(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert main(["profile", "--scale", "0.02",
                     "--json", str(path)]) == 0
        import json

        payload = json.loads(path.read_text())
        rows = payload["subsystems"]
        assert rows and {"subsystem", "tottime", "ncalls"} <= set(rows[0])
        assert {"buffer", "kv"} <= {row["subsystem"] for row in rows}
