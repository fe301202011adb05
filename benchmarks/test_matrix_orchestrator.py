"""Matrix orchestrator bench: solo-vs-matrix parity and parallel wall.

Runs 8 registered scenarios (plus one cluster cell) twice — solo
(the exact ``repro run`` code path, timed as the serial reference) and
as one ``--jobs 4`` process-parallel matrix — asserts every cell's
:class:`RunReport` is bit-identical between the two, and records the
measured wall-clock cut in the fresh ``BENCH_simcore.json``'s notes.

On a single-core container the parallel matrix cannot beat the serial
loop (the recorded note keeps the CPU count next to the ratio for
exactly that reason); with N idle cores the cut approaches N× because
the cells are embarrassingly parallel.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit, latest_artifact, write_fresh_artifact
from benchmarks.test_perf_simcore import BENCH_NAME
from repro.orchestration import MatrixCell, run_matrix
from repro.orchestration.executor import _execute_cell
from repro.serving.metrics import report_fingerprint as _fingerprint

# Every registered scenario that completes at this reduced scale (the
# rtx4090-b-derived setups — tab02 included — need scale >= ~0.25 to
# drain and are covered by their own benches).
SCENARIOS = (
    "table1-h200-a",
    "table1-h200-b",
    "table1-h200-c",
    "table1-h200-d",
    "table1-rtx4090-a",
    "table1-rtx4090-c",
    "table1-rtx4090-d",
    "bursty-sessions",
    "cluster-burst-4x",
)
SCALE = 0.05
JOBS = 4


def test_matrix_orchestrator_parity_and_wall(benchmark):
    cells = [MatrixCell(scenario=name, seed=0, scale=SCALE)
             for name in SCENARIOS]

    # Solo reference: each cell through the exact single-run code path,
    # back to back (this is what a serial sweep costs).
    t0 = time.perf_counter()
    solo = [_execute_cell(cell)[0] for cell in cells]
    serial_s = time.perf_counter() - t0

    # The same cells as one process-parallel matrix.
    t0 = time.perf_counter()
    matrix = benchmark.pedantic(
        lambda: run_matrix(cells, jobs=JOBS), rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - t0

    assert matrix.succeeded, matrix.render_markdown()
    assert [c.cell_id for c in matrix.cells] == [c.cell_id for c in cells]
    for solo_report, cell in zip(solo, matrix.cells):
        assert _fingerprint(solo_report) == _fingerprint(cell.report), (
            f"matrix cell {cell.cell_id} diverged from its solo run"
        )

    speedup = serial_s / parallel_s if parallel_s > 0 else float("nan")
    cpus = os.cpu_count() or 1
    payload = latest_artifact(BENCH_NAME)
    notes = payload.setdefault("notes", {})
    notes["matrix"] = {
        "cells": len(cells),
        "jobs": JOBS,
        "cpus": cpus,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "comment": (
            "per-cell RunReports bit-identical solo vs matrix; wall cut "
            "scales with idle cores (a 1-CPU container pins speedup ~1x, "
            "bounded by fork/pickle overhead)"
        ),
    }
    fresh = write_fresh_artifact(BENCH_NAME, payload)

    emit(
        f"matrix orchestrator · {len(cells)} cells · jobs={JOBS} on "
        f"{cpus} CPU(s)\n"
        f"  serial   {serial_s:.2f} s\n"
        f"  parallel {parallel_s:.2f} s  ({speedup:.2f}x)\n"
        f"  parity   all cells bit-identical to solo runs\n"
        f"  artifact -> {fresh} (notes.matrix)"
    )
