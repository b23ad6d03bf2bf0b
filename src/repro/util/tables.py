"""Plain-text rendering of experiment results.

The harness reports every figure as rows/series on stdout (the
reproduction's equivalent of the paper's plots).  These helpers keep the
formatting in one place so benches and examples print identically.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    title: str | None = None,
) -> str:
    """Render several y-series against a shared x axis as a table."""
    headers = [x_label, *series.keys()]
    columns = list(series.values())
    for name, col in series.items():
        if len(col) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(col)} points, "
                f"x axis has {len(x_values)}"
            )
    rows = [
        [x, *(col[i] for col in columns)] for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title)


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    height: int = 12,
    width: int = 64,
    title: str | None = None,
) -> str:
    """A multi-series ASCII line chart (each series gets a glyph).

    Good enough to eyeball figure shapes in a terminal or a markdown
    code block; the harness report uses it next to the numeric tables.
    """
    if not series:
        raise ValueError("no series to plot")
    glyphs = "*o+x#@%&"
    if len(series) > len(glyphs):
        raise ValueError(f"at most {len(glyphs)} series supported")
    all_values = [v for vs in series.values() for v in vs]
    if not all_values:
        raise ValueError("series are empty")
    lo, hi = min(all_values), max(all_values)
    span = (hi - lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for glyph, (name, values) in zip(glyphs, series.items()):
        n = len(values)
        if n == 0:
            continue
        for col in range(width):
            idx = min(int(col / width * n), n - 1)
            row = int((values[idx] - lo) / span * (height - 1))
            grid[height - 1 - row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{hi:>10.3g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{lo:>10.3g} +" + "-" * width + "+")
    legend = "  ".join(
        f"{glyph}={name}" for glyph, name in zip(glyphs, series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)
