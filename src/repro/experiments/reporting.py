"""Result rendering and export: ASCII charts and CSV files.

Terminal-friendly presentation for the CLI and the examples — a
reproduction you can *look at* without matplotlib — plus CSV export so
results can be re-plotted elsewhere.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence, Tuple

_SPARK_MARKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: float = 0.0, hi: Optional[float] = None) -> str:
    """Render a series as a one-line unicode sparkline."""
    if not values:
        return ""
    top = hi if hi is not None else max(values)
    if top <= lo:
        return _SPARK_MARKS[0] * len(values)
    cells = []
    for value in values:
        level = int((value - lo) / (top - lo) * (len(_SPARK_MARKS) - 1))
        cells.append(_SPARK_MARKS[min(max(level, 0), len(_SPARK_MARKS) - 1)])
    return "".join(cells)


def bar_chart(
    rows: Sequence[Tuple[str, float]],
    width: int = 40,
    unit: str = "",
) -> List[str]:
    """Horizontal ASCII bar chart; one output line per (label, value)."""
    if not rows:
        return []
    peak = max(value for __, value in rows)
    label_width = max(len(label) for label, __ in rows)
    lines = []
    for label, value in rows:
        filled = 0 if peak <= 0 else int(round(value / peak * width))
        bar = "█" * filled
        lines.append(f"{label:>{label_width}} │{bar:<{width}} {value:.3f}{unit}")
    return lines


def series_plot(series: Dict[str, Sequence[Tuple[float, float]]]) -> List[str]:
    """Plot (t, value) series as ASCII scatter lines, one glyph per series,
    on a 10-row by 72-column grid."""
    height, width = 10, 72
    glyphs = "ox+*#@"
    points = [
        (t, value) for values in series.values() for t, value in values
    ]
    if not points:
        return []
    t_low = min(t for t, __ in points)
    t_high = max(t for t, __ in points)
    v_high = max(value for __, value in points) or 1.0
    t_span = (t_high - t_low) or 1.0
    grid = [[" "] * width for __ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        for t, value in values:
            column = int((t - t_low) / t_span * (width - 1))
            row = height - 1 - int(min(value / v_high, 1.0) * (height - 1))
            grid[row][column] = glyph
    lines = [f"{v_high:8.3f} ┤" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 8 + " │" + "".join(row))
    lines.append(f"{0.0:8.3f} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + f"t={t_low:.0f}s" + " " * (width - 16) + f"t={t_high:.0f}s")
    legend = "   ".join(
        f"{glyphs[index % len(glyphs)]}={name}" for index, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return lines


def rows_to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Serialise a list of uniform dict rows to CSV text."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def series_to_csv(series: Dict[str, Sequence[Tuple[float, float]]]) -> str:
    """Serialise named (t, value) series to long-format CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["series", "time_s", "value"])
    for name, values in series.items():
        for t, value in values:
            writer.writerow([name, t, value])
    return buffer.getvalue()


def write_csv(path: str, text: str) -> None:
    """Write CSV text to ``path`` (tiny helper to keep call sites terse)."""
    with open(path, "w", newline="") as handle:
        handle.write(text)
