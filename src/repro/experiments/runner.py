"""Shared experiment driving: request cloning and A/B comparisons.

Every comparison in the paper runs each system on the *same* workload;
:func:`clone_requests` gives each system a fresh copy of the request
objects (runtime state is per-system), and :func:`run_comparison`
drives all systems to completion with a safety horizon.

Both helpers route through the scenario pipeline
(:func:`repro.scenarios.build.build_run`): a comparison is one ad-hoc
:class:`~repro.scenarios.spec.ScenarioSpec` per system, executed on an
identical workload copy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.scenarios.build import ScenarioRun, build_run
from repro.scenarios.spec import ScenarioSpec
from repro.serving.metrics import RunReport
from repro.serving.server import ServingSystem
from repro.workload.request import clone_requests

__all__ = ["clone_requests", "run_single", "run_comparison",
           "run_comparison_cells", "run_spec_cells"]


def run_single(
    system: ServingSystem,
    requests: Sequence,
    horizon: float = 50_000.0,
) -> RunReport:
    """Run one already-built system on one workload and return its report."""
    run = ScenarioRun(
        spec=ScenarioSpec(name=system.scheduler.name, horizon=horizon),
        target=system,
        requests=list(requests),
    )
    return run.execute()


def run_comparison(
    system_names: Sequence,
    requests: Sequence,
    hardware: str = "h200",
    model: str = "llama3-8b",
    mem_frac: Optional[float] = None,
    max_batch: int = 64,
    horizon: float = 50_000.0,
    tokenflow_params=None,
    jobs: int = 1,
) -> dict:
    """Run each named system on identical workload copies.

    Returns ``{system_name: RunReport}`` in input order.  ``jobs > 1``
    executes the systems as one inline matrix on worker processes (the
    per-system reports are bit-identical to the serial path — each
    system is an independent deterministic run on its own workload
    copy).
    """
    specs = [
        ScenarioSpec(
            name=name,
            system=name,
            hardware=hardware,
            model=model,
            mem_frac=mem_frac,
            max_batch=max_batch,
            horizon=horizon,
            tokenflow_params=tokenflow_params,
        )
        for name in system_names
    ]
    if jobs > 1 and len(specs) > 1:
        return dict(zip(
            [spec.name for spec in specs],
            run_comparison_cells(specs, requests, jobs=jobs),
        ))
    return {
        spec.name: build_run(spec, requests=list(requests)).execute()
        for spec in specs
    }


def run_spec_cells(pairs: Sequence, jobs: int = 1) -> list:
    """Run ``(spec, requests)`` pairs via the orchestrator.

    The parallel batch path behind :func:`run_comparison` and the
    figure sweeps: each workloadless spec becomes one
    :class:`~repro.orchestration.matrix.InlineCell` carrying its
    request list, executed across ``jobs`` worker processes.  Returns
    the per-spec :class:`RunReport` list in input order (the matrix
    report preserves expansion order regardless of completion order).

    Raises ``RuntimeError`` if any cell failed — callers expect every
    batch leg to finish, exactly like their serial loops.
    """
    # Lazy: the orchestrator imports the scenarios layer, which reaches
    # back into the experiment modules through the registry.
    from repro.orchestration import InlineCell, run_matrix

    cells = [
        InlineCell(spec=spec, requests=tuple(cell_requests),
                   label=spec.name or spec.system)
        for spec, cell_requests in pairs
    ]
    matrix = run_matrix(cells, jobs=jobs)
    failed = [cell for cell in matrix.cells if not cell.ok]
    if failed:
        details = "; ".join(f"{c.cell_id}: {c.error}" for c in failed)
        raise RuntimeError(f"{len(failed)} batch cell(s) failed: {details}")
    return [cell.report for cell in matrix.cells]


def run_comparison_cells(
    specs: Sequence,
    requests: Sequence,
    jobs: int = 1,
) -> list:
    """:func:`run_spec_cells` with one shared workload for every spec."""
    shared = tuple(requests)
    return run_spec_cells([(spec, shared) for spec in specs], jobs=jobs)
