"""ASCII figure renderers: bar charts and heatmaps for the terminal.

Complements `tables.py`: Figure 2 as a horizontal bar chart and
Figure 3 as a shaded heatmap, so `repro study` output visually echoes
the paper's figures.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

_SHADES = " .:-=+*#%@"


def render_bars(
    rows: Sequence[Tuple[str, float]],
    width: int = 50,
    max_value: Optional[float] = None,
    unit: str = "%",
    title: str = "",
) -> str:
    """A horizontal bar chart: one labeled bar per row."""
    rows = list(rows)
    if not rows:
        return title
    peak = max_value if max_value is not None else max(value for _, value in rows) or 1.0
    label_width = max(len(label) for label, _ in rows)
    lines = [title] if title else []
    for label, value in rows:
        filled = int(round(width * min(value, peak) / peak))
        bar = "█" * filled + "·" * (width - filled)
        lines.append(f"{label.ljust(label_width)} |{bar}| {value:5.1f}{unit}")
    return "\n".join(lines)


def render_heatmap(
    x_labels: Sequence[str],
    y_labels: Sequence[str],
    matrix: Sequence[Sequence[float]],
    title: str = "",
) -> str:
    """A character-shaded heatmap (log-scaled, like Figure 3's)."""
    import math

    peak = max((value for row in matrix for value in row), default=0.0)
    lines = [title] if title else []
    y_width = max((len(label) for label in y_labels), default=0)

    def shade(value: float) -> str:
        if value <= 0 or peak <= 0:
            return _SHADES[0]
        # log scale: 1 maps just above blank, peak maps to the top shade.
        position = math.log1p(value) / math.log1p(peak)
        return _SHADES[min(int(position * (len(_SHADES) - 1)) + 1, len(_SHADES) - 1)]

    for y_index, y_label in enumerate(y_labels):
        cells = "".join(shade(matrix[y_index][x_index]) * 2 for x_index in range(len(x_labels)))
        lines.append(f"{y_label.rjust(y_width)} {cells}")
    # Column legend underneath, numbered to keep rows narrow.
    lines.append(" " * y_width + " " + "".join(f"{index % 10}{index % 10}" for index in range(len(x_labels))))
    for index, label in enumerate(x_labels):
        lines.append(f"{' ' * y_width} {index}: {label}")
    return "\n".join(lines)


def render_figure2_bars(census, top: int = 18) -> str:
    """Figure 2 as bars (passive percentages)."""
    rows = [
        (row["protocol"], row["passive_pct"])
        for row in census.rows()[:top]
        if row["passive_pct"] > 0
    ]
    return render_bars(rows, max_value=100.0, title="Figure 2 — % devices (passive)")


def render_figure3_heatmap(crossval, max_labels: int = 12) -> str:
    """Figure 3 as a heatmap of the top confusion cells."""
    tshark_axis, ndpi_axis, matrix = crossval.heatmap()
    # Keep the busiest axes readable.
    def row_weight(index):
        return sum(matrix[index])

    def column_weight(index):
        return sum(row[index] for row in matrix)

    keep_rows = sorted(range(len(ndpi_axis)), key=row_weight, reverse=True)[:max_labels]
    keep_columns = sorted(range(len(tshark_axis)), key=column_weight, reverse=True)[:max_labels]
    trimmed = [[matrix[r][c] for c in keep_columns] for r in keep_rows]
    return render_heatmap(
        [tshark_axis[c] for c in keep_columns],
        [ndpi_axis[r] for r in keep_rows],
        trimmed,
        title="Figure 3 — tshark (x) vs nDPI (y) flow labels",
    )
