"""Tests for the scenario-matrix orchestrator.

Covers the determinism contract (matrix cell ≡ solo run, expansion
ordering regardless of completion order), cache hit/miss behaviour,
retry/timeout bookkeeping, and the spec-fingerprint sensitivity that
backs the cache key.
"""

import pytest

from repro.orchestration import (
    InlineCell,
    MatrixCache,
    MatrixCell,
    MatrixSpec,
    run_matrix,
    spec_fingerprint,
)
from repro.orchestration import executor as executor_mod
from repro.orchestration.report import (
    STATUS_CACHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
)
from repro.scenarios import build_run, get_scenario, run_matrix as scenarios_run_matrix
from repro.scenarios.spec import ScenarioSpec
from repro.serving.metrics import aggregate_reports, report_fingerprint
from repro.workload.request import Request

_fingerprint = report_fingerprint


def _sleep_forever(_cell):
    """Stand-in worker body for hung-cell tests (module-level so it
    pickles into the worker by reference)."""
    import time as time_mod

    time_mod.sleep(300)
    raise AssertionError("unreachable")


def _kill_self(_cell):
    """Stand-in worker body simulating an OOM-killed worker."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


_REAL_EXECUTE_CELL = executor_mod._execute_cell


def _scripted_cell(marker_dir, cell):
    """Worker body keyed on the cell's seed: seed 0 hangs, seed 1 runs
    after a ~0.5 s sleep, seed 2 hangs on its first run only (marked
    by a file under ``marker_dir``), and any other seed just runs."""
    import time as time_mod
    from pathlib import Path

    if cell.seed == 0:
        _sleep_forever(cell)
    elif cell.seed == 1:
        time_mod.sleep(0.5)
    elif cell.seed == 2:
        marker = Path(marker_dir) / "neighbour-started"
        if not marker.exists():
            marker.touch()
            time_mod.sleep(300)
    return _REAL_EXECUTE_CELL(cell)


def _solo_report(cell: MatrixCell):
    """The exact `repro run` code path for one cell, flattened like the
    orchestrator flattens cluster reports."""
    run = build_run(cell.resolve())
    report = run.execute()
    if run.is_cluster:
        report = aggregate_reports(report.per_instance,
                                   system=cell.resolve().system)
    return report


class TestMatrixSpec:
    def test_expansion_is_deterministic_product(self):
        spec = MatrixSpec(
            scenarios=("table1-h200-a", "cluster-burst-4x"),
            routers=("round_robin", "least_loaded"),
            seeds=(0, 1),
            scale=0.05,
        )
        cells = spec.expand()
        assert len(cells) == spec.n_cells == 8
        assert cells == spec.expand()  # stable
        # scenario-major, then router, then seed
        assert cells[0] == MatrixCell(scenario="table1-h200-a", seed=0,
                                      scale=0.05, router="round_robin")
        assert cells[1].seed == 1 and cells[2].router == "least_loaded"
        assert cells[4].scenario == "cluster-burst-4x"

    def test_axis_validation(self):
        with pytest.raises(KeyError):
            MatrixSpec(scenarios=("no-such-scenario",))
        with pytest.raises(ValueError):
            MatrixSpec(scenarios=())
        with pytest.raises(ValueError):
            MatrixSpec(scenarios=("table1-h200-a",), seeds=())
        with pytest.raises(ValueError):
            MatrixSpec(scenarios=("table1-h200-a",), scale=0.0)

    def test_axis_values_preflighted(self):
        # Typos and bad counts are usage errors at expansion time, not
        # N worker failures at run time.
        with pytest.raises(KeyError, match="unknown system"):
            MatrixSpec(scenarios=("table1-h200-a",), systems=("tokenflo",))
        with pytest.raises(ValueError, match="unknown router"):
            MatrixSpec(scenarios=("table1-h200-a",), routers=("warp_drive",))
        with pytest.raises(ValueError, match="replicas"):
            MatrixSpec(scenarios=("table1-h200-a",), replicas=(0,))
        with pytest.raises(ValueError, match="seeds"):
            MatrixSpec(scenarios=("table1-h200-a",), seeds=(-1,))
        # The registered system/ablation names all pass.
        spec = MatrixSpec(scenarios=("table1-h200-a",),
                          systems=("sglang", "tokenflow-no-offload"))
        assert spec.n_cells == 2

    def test_from_axes_defaults_to_all_scenarios(self):
        spec = MatrixSpec.from_axes(scale=0.1)
        assert "table1-h200-a" in spec.scenarios
        assert spec.n_cells == len(spec.scenarios)

    def test_cell_id_reflects_overrides(self):
        cell = MatrixCell(scenario="table1-h200-a", seed=3, scale=0.1,
                          router="buffer_aware", replicas=2)
        assert "router=buffer_aware" in cell.cell_id
        assert "replicas=2" in cell.cell_id
        assert "seed=3" in cell.cell_id

    def test_inline_cell_rejects_workload_callables(self):
        spec = get_scenario("table1-h200-a", scale=0.05)
        with pytest.raises(ValueError, match="workloadless"):
            InlineCell(spec=spec, requests=(), label="x")


class TestMatrixExecution:
    def test_cells_bit_identical_to_solo_runs_across_processes(self):
        # One single-node cell and one cluster cell, two seeds, run on
        # a 2-worker process pool: every per-cell RunReport must equal
        # the solo `repro run` result bit-for-bit.
        matrix = MatrixSpec(
            scenarios=("table1-h200-a", "cluster-burst-4x"),
            seeds=(0, 1),
            scale=0.05,
        )
        cells = matrix.expand()
        report = run_matrix(matrix, jobs=2)
        assert report.succeeded and report.jobs == 2
        for cell, result in zip(cells, report.cells):
            assert result.status == STATUS_OK
            assert _fingerprint(result.report) == _fingerprint(_solo_report(cell))

    def test_report_order_is_expansion_order_not_completion_order(self):
        # The first cell takes several times longer than the later
        # ones, so with 2 workers the later cells finish first; the
        # report must still list cells in expansion order.
        cells = [
            MatrixCell(scenario="table1-h200-a", seed=0, scale=0.05),
            MatrixCell(scenario="cluster-burst-4x", seed=0, scale=0.02),
            MatrixCell(scenario="cluster-burst-4x", seed=1, scale=0.02),
            MatrixCell(scenario="cluster-burst-4x", seed=2, scale=0.02),
        ]
        report = run_matrix(cells, jobs=2)
        assert report.succeeded
        assert [c.cell_id for c in report.cells] == [c.cell_id for c in cells]

    def test_serial_and_parallel_reports_identical(self):
        matrix = MatrixSpec(scenarios=("cluster-burst-4x",), seeds=(0, 1, 2),
                            scale=0.05)
        serial = run_matrix(matrix, jobs=1)
        parallel = run_matrix(matrix, jobs=3)
        assert [(c.cell_id, _fingerprint(c.report)) for c in serial.cells] \
            == [(c.cell_id, _fingerprint(c.report)) for c in parallel.cells]

    def test_scenarios_layer_entrypoint(self):
        report = scenarios_run_matrix(
            MatrixSpec(scenarios=("cluster-burst-4x",), scale=0.05), jobs=1
        )
        assert report.succeeded and len(report.cells) == 1

    def test_aggregate_uses_shared_fold(self):
        matrix = MatrixSpec(scenarios=("cluster-burst-4x",), seeds=(0, 1),
                            scale=0.05)
        report = run_matrix(matrix, jobs=1)
        direct = aggregate_reports([c.report for c in report.cells],
                                   system="matrix")
        assert _fingerprint(report.aggregate()) == _fingerprint(direct)

    def test_markdown_and_json_writers(self, tmp_path):
        report = run_matrix(
            MatrixSpec(scenarios=("cluster-burst-4x",), scale=0.05), jobs=1
        )
        md = report.render_markdown()
        assert "cluster-burst-4x" in md and "| cell |" in md
        paths = report.write(tmp_path)
        assert all(p.exists() for p in paths)
        payload = __import__("json").loads(
            (tmp_path / "matrix_report.json").read_text()
        )
        assert payload["n_cells"] == 1 and payload["n_failed"] == 0
        assert payload["cells"][0]["report"]["n_requests"] > 0
        assert "aggregate" in payload


class TestRetryAndTimeout:
    def test_serial_retry_bookkeeping(self, monkeypatch):
        cell = MatrixCell(scenario="cluster-burst-4x", scale=0.02)
        real = executor_mod._execute_cell
        calls = {"n": 0}

        def flaky(c):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(c)

        monkeypatch.setattr(executor_mod, "_execute_cell", flaky)
        report = run_matrix([cell], jobs=1, retries=1)
        assert report.cells[0].status == STATUS_OK
        assert report.cells[0].attempts == 2

    def test_serial_error_after_retries_exhausted(self, monkeypatch):
        cell = MatrixCell(scenario="cluster-burst-4x", scale=0.02)

        def boom(_cell):
            raise RuntimeError("deterministic failure")

        monkeypatch.setattr(executor_mod, "_execute_cell", boom)
        report = run_matrix([cell], jobs=1, retries=2)
        result = report.cells[0]
        assert result.status == STATUS_ERROR
        assert result.attempts == 3
        assert "deterministic failure" in result.error
        assert not report.succeeded

    def test_parallel_timeout_bookkeeping(self):
        # A 10 ms deadline that every real cell exceeds: each cell ends
        # in `timeout` (running jobs cannot be interrupted; they are
        # recorded and their late results discarded), and ordering is
        # still the expansion order.  table1-h200-a at this scale runs
        # for several poll intervals, so no cell can slip through by
        # finishing before the first deadline check.
        cells = [MatrixCell(scenario="table1-h200-a", seed=s, scale=0.05)
                 for s in range(3)]
        report = run_matrix(cells, jobs=2, timeout_s=0.01)
        assert [c.cell_id for c in report.cells] == [c.cell_id for c in cells]
        assert all(c.status in (STATUS_TIMEOUT, STATUS_OK)
                   for c in report.cells)
        assert any(c.status == STATUS_TIMEOUT for c in report.cells)
        timed_out = [c for c in report.cells if c.status == STATUS_TIMEOUT]
        assert all("deadline" in c.error for c in timed_out)

    def test_hung_cell_cannot_hang_the_matrix(self, monkeypatch):
        # A cell that sleeps far longer than the deadline must leave
        # run_matrix promptly with a timeout verdict — abandoned
        # workers are terminated, not awaited.  (Worker patching
        # relies on fork-style process start.)
        import multiprocessing
        import time as time_mod

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker patching requires fork start method")
        monkeypatch.setattr(executor_mod, "_execute_cell", _sleep_forever)
        cells = [MatrixCell(scenario="cluster-burst-4x", seed=s, scale=0.02)
                 for s in range(2)]
        t0 = time_mod.perf_counter()
        report = run_matrix(cells, jobs=2, timeout_s=0.3)
        elapsed = time_mod.perf_counter() - t0
        assert [c.status for c in report.cells] == [STATUS_TIMEOUT] * 2
        assert elapsed < 15.0, "run_matrix waited on hung workers"

    def test_queue_wait_does_not_count_against_deadline(self):
        # Three ~0.7s cells behind one worker with a 1.5s run-time
        # deadline: the later cells spend multiples of the deadline
        # waiting in the queue (and sit in the executor's call queue
        # with Future.running() already true) but must all pass —
        # only actual run time counts.
        cells = [MatrixCell(scenario="table1-h200-a", seed=s, scale=0.05)
                 for s in range(3)]
        report = run_matrix(cells, jobs=1, timeout_s=1.5)
        assert [c.status for c in report.cells] == [STATUS_OK] * 3

    def test_hung_workers_with_deep_queue_do_not_livelock(self, monkeypatch):
        # More cells than worker slots, every running cell hung: once
        # all slots are held by over-deadline jobs, the queued cells
        # are abandoned with a timeout verdict instead of being
        # resubmitted with fresh deadlines forever.
        import multiprocessing
        import time as time_mod

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker patching requires fork start method")
        monkeypatch.setattr(executor_mod, "_execute_cell", _sleep_forever)
        cells = [MatrixCell(scenario="cluster-burst-4x", seed=s, scale=0.02)
                 for s in range(4)]
        t0 = time_mod.perf_counter()
        report = run_matrix(cells, jobs=1, timeout_s=0.3)
        elapsed = time_mod.perf_counter() - t0
        assert [c.status for c in report.cells] == [STATUS_TIMEOUT] * 4
        assert elapsed < 15.0, "queued cells kept the matrix spinning"

    def test_dead_worker_surfaces_as_error_not_exception(self, monkeypatch):
        # A worker killed mid-job (OOM-style) breaks the pool; with
        # retries requested, run_matrix must still return a report with
        # error verdicts rather than leaking BrokenProcessPool.
        import multiprocessing
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker patching requires fork start method")
        from repro.orchestration.pool import reset_pool

        # Deadline-free parallel runs reuse the warm pool, whose
        # workers may have forked before this monkeypatch existed;
        # force a re-fork so they execute the patched body.
        reset_pool()
        monkeypatch.setattr(executor_mod, "_execute_cell", _kill_self)
        cells = [MatrixCell(scenario="cluster-burst-4x", seed=s, scale=0.02)
                 for s in range(2)]
        report = run_matrix(cells, jobs=2, retries=2)
        assert [c.status for c in report.cells] == [STATUS_ERROR] * 2
        assert not report.succeeded
        # Leave a clean slate for whoever uses the warm pool next.
        reset_pool()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_single_miss_with_timeout_still_enforced(self, monkeypatch, jobs):
        # Deadlines must hold even when the batch would otherwise take
        # the in-process serial shortcut (jobs=1, or a single miss).
        import multiprocessing
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker patching requires fork start method")
        monkeypatch.setattr(executor_mod, "_execute_cell", _sleep_forever)
        report = run_matrix(
            [MatrixCell(scenario="cluster-burst-4x", scale=0.02)],
            jobs=jobs, timeout_s=0.3,
        )
        assert report.cells[0].status == STATUS_TIMEOUT

    def test_timeout_reset_costs_neighbours_no_attempt(self, monkeypatch,
                                                       tmp_path):
        # The hung cell's deadline resets the pool, which kills the
        # neighbour mid-run; the neighbour is resubmitted at the same
        # attempt and passes (no retries allowed), and the re-forked
        # warm pool then serves a deadline-free run.
        import functools
        import multiprocessing

        from repro.orchestration.pool import get_pool, reset_pool

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker patching requires fork start method")
        monkeypatch.setattr(executor_mod, "_execute_cell",
                            functools.partial(_scripted_cell, str(tmp_path)))
        cells = [MatrixCell(scenario="cluster-burst-4x", seed=s, scale=0.02)
                 for s in range(3)]
        report = run_matrix(cells, jobs=2, timeout_s=4.0)
        hung, quick, neighbour = report.cells
        assert hung.status == STATUS_TIMEOUT
        assert quick.status == STATUS_OK
        assert (tmp_path / "neighbour-started").exists()
        assert neighbour.status == STATUS_OK
        assert neighbour.attempts == 1

        warm = get_pool(min_workers=2)
        later = [MatrixCell(scenario="cluster-burst-4x", seed=s, scale=0.02)
                 for s in (3, 4)]
        report = run_matrix(later, jobs=2)
        assert [c.status for c in report.cells] == [STATUS_OK] * 2
        assert get_pool(min_workers=2) is warm
        # The workers were forked with the scripted body patched in.
        reset_pool()


class TestWarmPool:
    def test_reset_pool_kills_hung_workers(self):
        import os
        import time as time_mod

        from repro.orchestration.pool import get_pool, reset_pool

        reset_pool()
        pool = get_pool(min_workers=2)
        pool.submit(_sleep_forever, None)
        time_mod.sleep(0.5)  # let a worker pick the task up
        pids = list(pool._processes)
        assert len(pids) >= 2
        reset_pool()
        alive = set(pids)
        deadline = time_mod.monotonic() + 5.0
        while alive and time_mod.monotonic() < deadline:
            for pid in list(alive):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    alive.discard(pid)
            time_mod.sleep(0.05)
        assert not alive, f"workers {sorted(alive)} outlived reset_pool()"


class TestCache:
    def test_cache_hit_and_miss(self, tmp_path):
        matrix = MatrixSpec(scenarios=("cluster-burst-4x",), seeds=(0, 1),
                            scale=0.05)
        first = run_matrix(matrix, jobs=1, cache=True, cache_dir=tmp_path)
        assert [c.status for c in first.cells] == [STATUS_OK, STATUS_OK]
        second = run_matrix(matrix, jobs=1, cache=True, cache_dir=tmp_path)
        assert [c.status for c in second.cells] == [STATUS_CACHED, STATUS_CACHED]
        assert [_fingerprint(c.report) for c in first.cells] \
            == [_fingerprint(c.report) for c in second.cells]
        # cached cells record the key and zero attempts
        assert all(c.cache_key and c.attempts == 0 for c in second.cells)

    def test_cache_disabled_reruns(self, tmp_path):
        matrix = MatrixSpec(scenarios=("cluster-burst-4x",), scale=0.05)
        run_matrix(matrix, jobs=1, cache=True, cache_dir=tmp_path)
        again = run_matrix(matrix, jobs=1, cache=False, cache_dir=tmp_path)
        assert again.cells[0].status == STATUS_OK

    def test_key_depends_on_code_version_and_fingerprint(self):
        cache = MatrixCache()
        cell = MatrixCell(scenario="cluster-burst-4x", scale=0.05)
        fp = spec_fingerprint(cell)
        assert cache.key(fp, "v1") != cache.key(fp, "v2")
        assert cache.key(fp, "v1") == cache.key(fp, "v1")

    def test_fingerprint_sensitive_to_cell_coordinates(self):
        base = MatrixCell(scenario="cluster-burst-4x", scale=0.05)
        assert spec_fingerprint(base) != spec_fingerprint(
            MatrixCell(scenario="cluster-burst-4x", scale=0.05, seed=1))
        assert spec_fingerprint(base) != spec_fingerprint(
            MatrixCell(scenario="cluster-burst-4x", scale=0.05,
                       router="round_robin"))
        assert spec_fingerprint(base) != spec_fingerprint(
            MatrixCell(scenario="cluster-burst-4x", scale=0.1))

    def test_inline_fingerprint_sensitive_to_requests(self):
        spec = ScenarioSpec(name="adhoc", system="tokenflow")
        reqs_a = (Request(req_id=0, arrival_time=0.0, prompt_len=16,
                          output_len=8, rate=10.0),)
        reqs_b = (Request(req_id=0, arrival_time=0.0, prompt_len=32,
                          output_len=8, rate=10.0),)
        assert spec_fingerprint(InlineCell(spec=spec, requests=reqs_a)) \
            != spec_fingerprint(InlineCell(spec=spec, requests=reqs_b))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = MatrixCache(tmp_path)
        key = cache.key("fp", "v")
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.load(key) is None
