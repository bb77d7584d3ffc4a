"""Plain-text table formatting for the benchmark harness.

The benchmarks print the paper's rows next to the modelled/measured rows;
these helpers keep the formatting consistent and compute the ratio columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_comparison", "ratio", "format_breakdown"]


def ratio(paper_value: Optional[float], measured_value: Optional[float]) -> Optional[float]:
    """``measured / paper`` or ``None`` when either side is missing."""
    if not paper_value or measured_value is None:
        return None
    return measured_value / paper_value


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return "%.3g" % value
        return "%.2f" % value
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render rows as a fixed-width text table."""
    rows = [list(map(_format_cell, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_comparison(paper: Dict[str, float], measured: Dict[str, float],
                      *, title: Optional[str] = None, unit: str = "") -> str:
    """Two-column paper-vs-measured table with a ratio column."""
    headers = ["item", "paper%s" % (" (%s)" % unit if unit else ""),
               "model%s" % (" (%s)" % unit if unit else ""), "model/paper"]
    rows = []
    for key in paper:
        measured_value = measured.get(key)
        rows.append([key, paper.get(key), measured_value,
                     ratio(paper.get(key), measured_value)])
    return format_table(headers, rows, title=title)


def format_breakdown(breakdown: Dict[str, float], title: Optional[str] = None) -> str:
    """Render a fraction breakdown (e.g. kernel shares) as percentages."""
    rows = [[name, 100.0 * share] for name, share in
            sorted(breakdown.items(), key=lambda item: -item[1])]
    return format_table(["component", "percent"], rows, title=title)
