"""Deterministic multi-process execution of a scenario matrix.

``run_matrix`` expands a :class:`~repro.orchestration.matrix.MatrixSpec`
(or takes an explicit cell list), skips cells whose ``(spec-hash,
code-version)`` key is already in the result cache, and executes the
rest — serially for ``jobs == 1``, else on the shared warm pool from
:mod:`repro.orchestration.pool` (no per-call pool spin-up; the same
pool serves sharded-cluster runs).

Determinism contract (tested in ``tests/test_orchestration.py``):

* every cell runs the exact solo code path (``build_run(spec)`` on a
  spec resolved from the cell coordinates), with RNG streams derived
  only from the cell's own ``(scenario, scale, seed)`` — so a cell's
  :class:`~repro.serving.metrics.RunReport` is bit-identical whether it
  runs alone, serially, or in any parallel schedule;
* the :class:`~repro.orchestration.report.MatrixReport` lists cells in
  expansion order regardless of completion order.

Timeout/retry bookkeeping: a job that raises is resubmitted up to
``retries`` times (attempts are recorded per cell).  ``timeout_s`` is
a *run-time* deadline: at most ``jobs`` cells are in flight on a pool
of at least ``jobs`` workers, so a cell starts when it is submitted
and queue wait behind other cells never counts.  An over-deadline job
is marked ``timeout`` and the pool is reset, which kills its worker
(a worker cannot be interrupted mid-job, so a genuinely hung cell
cannot hang the matrix); the other cells in flight die with the pool
and are resubmitted without losing an attempt.  Timeouts need process
execution — the in-process serial shortcut cannot interrupt a cell —
so any requested ``timeout_s`` routes through the pool, even when
``jobs == 1``.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from typing import Optional, Sequence, Union

from repro.orchestration.cache import MatrixCache, code_version
from repro.orchestration.matrix import Cell, MatrixSpec, spec_fingerprint
from repro.orchestration.pool import get_pool, reset_pool
from repro.orchestration.report import (
    STATUS_CACHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellResult,
    MatrixReport,
)
from repro.serving.metrics import RunReport, aggregate_reports

# How often the parallel loop wakes to check per-job deadlines.
_POLL_S = 0.25


def _execute_cell(cell: Cell) -> "tuple[RunReport, float]":
    """Worker body: build, run, and report one cell.

    Cluster cells are flattened to a single :class:`RunReport` through
    the same :func:`aggregate_reports` fold the cluster's own
    ``report()`` uses, so every cell yields one comparable report.
    """
    t0 = time.perf_counter()
    run = cell.build()
    report = run.execute()
    if run.is_cluster:
        report = aggregate_reports(
            report.per_instance, system=cell.resolve().system
        )
    return report, time.perf_counter() - t0


def run_matrix(
    matrix: Union[MatrixSpec, Sequence[Cell]],
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    cache: bool = False,
    cache_dir=None,
) -> MatrixReport:
    """Execute every cell of ``matrix`` and return a :class:`MatrixReport`.

    Args:
        matrix: a :class:`MatrixSpec` or an explicit cell sequence.
        jobs: worker processes (default ``os.cpu_count()``, capped at
            the cell count); ``1`` runs serially in-process.
        timeout_s: per-job run-time deadline (a cell is submitted only
            when a worker is free for it; forces pool execution).
        retries: resubmissions allowed per failing job.
        cache: reuse/store per-cell results keyed on
            ``(spec-hash, code-version)``.
        cache_dir: cache location override (default
            ``.repro-cache/matrix``, or ``REPRO_CACHE_DIR``).
    """
    cells = list(matrix.expand() if isinstance(matrix, MatrixSpec) else matrix)
    if jobs is None:
        jobs = max(1, min(os.cpu_count() or 1, len(cells)))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    store = MatrixCache(cache_dir) if cache else None
    version = code_version()
    t_start = time.perf_counter()

    results: dict = {}  # cell index -> CellResult
    keys: dict = {}     # cell index -> cache key
    misses: list = []   # indices still to execute
    for idx, cell in enumerate(cells):
        if store is None:
            misses.append(idx)
            continue
        key = store.key(spec_fingerprint(cell), version)
        keys[idx] = key
        cached = store.load(key)
        if cached is not None:
            results[idx] = CellResult(
                cell_id=cell.cell_id, status=STATUS_CACHED, report=cached,
                attempts=0, duration_s=0.0, cache_key=key,
            )
        else:
            misses.append(idx)

    # Enforcing timeout_s needs a worker process to kill, so any
    # requested deadline routes through the pool — even for jobs == 1
    # or a single miss.  Only deadline-free small batches take the
    # in-process serial shortcut.
    if timeout_s is None and (jobs == 1 or len(misses) <= 1):
        for idx in misses:
            results[idx] = _run_serial(cells[idx], retries)
    elif misses:
        _run_parallel(cells, misses, results, jobs, timeout_s, retries)

    if store is not None:
        for idx in misses:
            result = results[idx]
            if result.status == STATUS_OK and result.report is not None:
                result.cache_key = keys[idx]
                store.store(keys[idx], result.report)

    return MatrixReport(
        cells=[results[idx] for idx in range(len(cells))],
        jobs=jobs,
        wall_s=time.perf_counter() - t_start,
        code_version=version,
    )


def _run_serial(cell: Cell, retries: int) -> CellResult:
    attempts = 0
    while True:
        attempts += 1
        t0 = time.perf_counter()
        try:
            report, duration = _execute_cell(cell)
        except Exception:
            if attempts <= retries:
                continue
            return CellResult(
                cell_id=cell.cell_id, status=STATUS_ERROR,
                error=traceback.format_exc(limit=3).strip(),
                attempts=attempts, duration_s=time.perf_counter() - t0,
            )
        return CellResult(
            cell_id=cell.cell_id, status=STATUS_OK, report=report,
            attempts=attempts, duration_s=duration,
        )


def _run_parallel(
    cells: list,
    misses: list,
    results: dict,
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
) -> None:
    """Fill ``results`` for ``misses`` on the shared warm pool.

    At most ``jobs`` cells are in flight, and the pool has at least
    ``jobs`` workers, so a submitted cell starts at once and its
    deadline clock starts at submission.  A cell past ``timeout_s`` is
    recorded as ``timeout`` and the pool is reset, which kills its
    worker; a broken pool (a worker died mid-cell) is reset too.  The
    reset takes every other in-flight cell down with it, so those are
    resubmitted at their current attempt.
    """
    queue = deque((idx, 1) for idx in misses)  # (cell index, attempt)
    inflight: dict = {}  # future -> (cell index, attempt, submit time)

    def fail(idx: int, attempt: int, started: float, message: str) -> None:
        if attempt <= retries:
            queue.appendleft((idx, attempt + 1))
        else:
            results[idx] = CellResult(
                cell_id=cells[idx].cell_id, status=STATUS_ERROR,
                error=message, attempts=attempt,
                duration_s=time.monotonic() - started,
            )

    while queue or inflight:
        reset = False
        pool = get_pool(min_workers=jobs)
        while queue and len(inflight) < jobs:
            idx, attempt = queue.popleft()
            now = time.monotonic()
            try:
                inflight[pool.submit(_execute_cell, cells[idx])] = (
                    idx, attempt, now
                )
            except (BrokenExecutor, RuntimeError) as exc:
                fail(idx, attempt, now,
                     f"could not submit to worker pool: {exc}")
                reset = True
                break
        if inflight and not reset:
            done, _ = wait(
                set(inflight),
                timeout=_POLL_S if timeout_s is not None else None,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                idx, attempt, started = inflight.pop(future)
                try:
                    report, duration = future.result()
                except Exception as exc:
                    if isinstance(exc, BrokenExecutor):
                        reset = True
                    fail(idx, attempt, started,
                         f"{type(exc).__name__}: {exc}")
                else:
                    results[idx] = CellResult(
                        cell_id=cells[idx].cell_id, status=STATUS_OK,
                        report=report, attempts=attempt, duration_s=duration,
                    )
        if timeout_s is not None:
            now = time.monotonic()
            for future, (idx, attempt, started) in list(inflight.items()):
                if now - started > timeout_s:
                    # A worker cannot be interrupted mid-cell: record
                    # the verdict and kill the pool under it.
                    del inflight[future]
                    reset = True
                    results[idx] = CellResult(
                        cell_id=cells[idx].cell_id, status=STATUS_TIMEOUT,
                        error=f"exceeded {timeout_s:.1f}s deadline",
                        attempts=attempt, duration_s=now - started,
                    )
        if reset:
            reset_pool()
            queue.extendleft(
                (idx, attempt) for idx, attempt, _ in reversed(inflight.values())
            )
            inflight.clear()
