"""ASCII rendering for bench output (tables).

The benchmark harness prints the same rows the paper's tables
and figures report; these helpers keep that output aligned and
readable in test logs.
"""

from __future__ import annotations

from typing import Sequence


def format_number(value, digits: int = 3) -> str:
    """Compact numeric formatting for table cells."""
    if isinstance(value, str):
        return value
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    magnitude = abs(value)
    if magnitude != 0 and (magnitude >= 1e5 or magnitude < 1e-3):
        return f"{value:.{digits}e}"
    return f"{value:.{digits}f}"


def render_table(headers: Sequence, rows: Sequence, title: str = "") -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows = [[format_number(cell) for cell in row] for row in rows]
    str_headers = [str(h) for h in headers]
    widths = [len(h) for h in str_headers]
    for row in str_rows:
        if len(row) != len(str_headers):
            raise ValueError("row width does not match header width")
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(str_headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
