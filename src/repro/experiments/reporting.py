"""Plain-text rendering of experiment results.

Benchmarks print the same rows/series the paper plots; these helpers
keep the formatting consistent and grep-friendly (EXPERIMENTS.md quotes
their output verbatim).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A fixed-width text table."""
    columns = len(headers)
    widths = [len(h) for h in headers]
    text_rows = []
    for row in rows:
        cells = [_fmt(cell) for cell in row]
        if len(cells) != columns:
            raise ValueError(f"row has {len(cells)} cells, expected {columns}")
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        text_rows.append(cells)
    lines = [title]
    lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  " + "  ".join("-" * w for w in widths))
    for cells in text_rows:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
) -> str:
    """A multi-series table: one x column plus one column per series.

    ``series`` maps label -> list of y values aligned with ``x_values``.
    """
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[label][i] for label in series])
    return format_table(title, headers, rows)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
