"""Human-readable evaluation reports.

The paper presents its results as fixed-width tables (Tables 3–13); this
module holds the plain-text table formatter the benchmark suite and the
CLI share.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width text table in the benchmark suite's format."""
    str_rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines = []
    if title:
        lines.append(f"=== {title} ===")
    lines.append(header_line)
    lines.append("-" * len(header_line))
    lines.extend(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in str_rows
    )
    return "\n".join(lines)
