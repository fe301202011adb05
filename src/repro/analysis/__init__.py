"""Reporting helpers: summary statistics and ASCII tables."""

from repro.analysis.stats import Summary, percentile, summarize
from repro.analysis.tables import format_number, render_table

__all__ = [
    "percentile",
    "summarize",
    "Summary",
    "render_table",
    "format_number",
]
