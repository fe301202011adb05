"""Matrix results: per-cell bookkeeping and the aggregate report.

A :class:`MatrixReport` holds one :class:`CellResult` per expanded
cell, **in expansion order** (never completion order — parallel runs
must render identically to serial ones), plus an aggregate
:class:`~repro.serving.metrics.RunReport` folded through
:func:`repro.serving.metrics.aggregate_reports`, i.e. the same
formulas the cluster layer uses for per-node roll-ups.

Writers: ``render_markdown`` for humans / CI job summaries and
``to_json_dict`` / ``write`` for machine-readable artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.serving.metrics import RunReport, aggregate_reports, report_to_dict

# Cell terminal states.
STATUS_OK = "ok"           # executed in this run
STATUS_CACHED = "cached"   # reused a stored result (same spec + code)
STATUS_ERROR = "error"     # raised after all retry attempts
STATUS_TIMEOUT = "timeout" # exceeded the per-job deadline


@dataclass
class CellResult:
    """Outcome of one matrix cell."""

    cell_id: str
    status: str
    report: Optional[RunReport] = None
    error: str = ""
    attempts: int = 1
    duration_s: float = 0.0
    cache_key: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)


@dataclass
class MatrixReport:
    """All cell results of one matrix run, in expansion order."""

    cells: list = field(default_factory=list)  # [CellResult]
    jobs: int = 1
    wall_s: float = 0.0
    code_version: str = ""

    @property
    def n_ok(self) -> int:
        return sum(1 for c in self.cells if c.status == STATUS_OK)

    @property
    def n_cached(self) -> int:
        return sum(1 for c in self.cells if c.status == STATUS_CACHED)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)

    @property
    def succeeded(self) -> bool:
        return self.n_failed == 0

    def aggregate(self) -> RunReport:
        """All successful cells folded into one report (single-node
        aggregation formulas, see :func:`aggregate_reports`)."""
        return aggregate_reports(
            [c.report for c in self.cells if c.ok and c.report is not None],
            system="matrix",
        )

    # --- rendering ----------------------------------------------------------
    def render_markdown(self) -> str:
        lines = [
            "# Scenario matrix",
            "",
            f"{len(self.cells)} cells · jobs={self.jobs} · "
            f"wall {self.wall_s:.1f}s · {self.n_ok} ran · "
            f"{self.n_cached} cached · {self.n_failed} failed",
            "",
            "| cell | status | eff_thpt(tok/s) | thpt(tok/s) | mean_ttft(s) "
            "| p99_ttft(s) | stall(s) | preempts | attempts | time(s) |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for cell in self.cells:
            if cell.report is not None:
                r = cell.report
                metrics = [
                    f"{r.effective_throughput:.1f}", f"{r.throughput:.1f}",
                    f"{r.ttft_mean:.3f}", f"{r.ttft_p99:.3f}",
                    f"{r.stall_total:.1f}", str(r.preemptions),
                ]
            else:
                metrics = ["—"] * 6
            lines.append(
                "| " + " | ".join(
                    [cell.cell_id, cell.status] + metrics
                    + [str(cell.attempts), f"{cell.duration_s:.2f}"]
                ) + " |"
            )
        failed = [c for c in self.cells if not c.ok]
        if failed:
            lines.append("")
            lines.append("## Failures")
            for cell in failed:
                lines.append(f"- `{cell.cell_id}` ({cell.status}): {cell.error}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        cells = []
        for cell in self.cells:
            entry = {
                "cell": cell.cell_id,
                "status": cell.status,
                "attempts": cell.attempts,
                "duration_s": cell.duration_s,
                "cache_key": cell.cache_key,
            }
            if cell.report is not None:
                entry["report"] = report_to_dict(
                    cell.report, include_requests=False
                )
            if cell.error:
                entry["error"] = cell.error
            cells.append(entry)
        payload = {
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "code_version": self.code_version,
            "n_cells": len(self.cells),
            "n_ok": self.n_ok,
            "n_cached": self.n_cached,
            "n_failed": self.n_failed,
            "cells": cells,
        }
        if any(c.ok and c.report is not None for c in self.cells):
            payload["aggregate"] = report_to_dict(
                self.aggregate(), include_requests=False
            )
        return payload

    def write(self, directory) -> list:
        """Write ``matrix_report.md`` + ``matrix_report.json``; returns paths."""
        import json

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        md = directory / "matrix_report.md"
        md.write_text(self.render_markdown())
        js = directory / "matrix_report.json"
        js.write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")
        return [md, js]
