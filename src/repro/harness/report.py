"""Plain-text rendering of experiment results.

The paper's figures are speedup curves and stacked-bar breakdowns; these
helpers render both as ASCII, each followed by its values as a table, so
every experiment's output is readable in a terminal and diffable in
version control.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Characters used for the per-series markers in ASCII charts.
MARKERS = "o*x+#@%&"


def render_speedup_chart(curves: Dict[str, Dict[int, float]],
                         title: str = "", height: int = 16,
                         width: int = 60) -> str:
    """Render speedup-vs-threads curves as an ASCII chart, followed by
    the speedups as a table.

    The x axis is thread count (linear in rank, labelled with the actual
    counts); the y axis is speedup, scaled to the maximum observed.
    """
    threads = sorted(next(iter(curves.values()), {}))
    if not threads:
        return title
    max_speedup = max(max(series.values()) for series in curves.values())
    max_speedup = max(max_speedup, 1.0)

    grid = [[" "] * width for _ in range(height)]
    xs = _spread(len(threads), width)

    for index, (name, series) in enumerate(curves.items()):
        marker = MARKERS[index % len(MARKERS)]
        for rank, t in enumerate(threads):
            y = series[t] / max_speedup
            row = height - 1 - int(round(y * (height - 1)))
            row = min(max(row, 0), height - 1)
            grid[row][xs[rank]] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        level = max_speedup * (height - 1 - i) / (height - 1)
        lines.append(f"{level:7.1f} |" + "".join(row))
    axis = [" "] * width
    labels = [" "] * width
    for rank, t in enumerate(threads):
        axis[xs[rank]] = "+"
        text = str(t)
        start = min(xs[rank], width - len(text))
        for j, ch in enumerate(text):
            labels[start + j] = ch
    lines.append(" " * 8 + "+" + "".join(axis))
    lines.append(" " * 9 + "".join(labels) + "  (threads)")
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {name}"
        for i, name in enumerate(curves)
    )
    lines.append("legend: " + legend)
    lines.append(render_table(
        ["threads", *threads],
        [[name, *(f"{series[t]:.2f}" for t in threads)]
         for name, series in curves.items()]))
    return "\n".join(lines)


def render_stacked_bars(rows: Dict[str, Dict[str, float]],
                        columns: Sequence[str], title: str = "",
                        width: int = 50) -> str:
    """Render per-config stacked bars (Fig. 17/18/19 style), followed by
    the column values normalized to the total of the first row that has
    one (in a breakdown, the ladder's first baseline row with any cycles
    or requests).

    Each row is one configuration; segment lengths are proportional to the
    column values, all scaled to the largest row total.
    """
    if not rows:
        return title
    totals = {name: sum(values.get(c, 0) for c in columns)
              for name, values in rows.items()}
    biggest = max(totals.values()) or 1.0
    seg_chars = "#=-.~^"

    lines: List[str] = []
    if title:
        lines.append(title)
    name_w = max(len(n) for n in rows)
    for name, values in rows.items():
        bar = ""
        for i, column in enumerate(columns):
            frac = values.get(column, 0) / biggest
            bar += seg_chars[i % len(seg_chars)] * int(round(frac * width))
        lines.append(f"{name:<{name_w}} |{bar:<{width}}| "
                     f"{totals[name]:.3f}")
    legend = "   ".join(
        f"{seg_chars[i % len(seg_chars)]} {c}" for i, c in enumerate(columns)
    )
    lines.append("legend: " + legend)
    base = next((name for name, total in totals.items() if total), None)
    if base is not None:
        lines.append(render_table(
            ["config", *columns],
            [[name, *(f"{values.get(c, 0) / totals[base]:.3f}"
                      for c in columns)]
             for name, values in rows.items()], f"normalized to {base}:"))
    return "\n".join(lines)


def render_table(header: Sequence[object], rows: Sequence[Sequence[object]],
                 title: str = "", align: str = "") -> str:
    """Render rows of cells (each printed with ``str``) as columns two
    spaces apart, under ``title`` when one is given.

    ``align`` holds an ``l`` (left) or ``r`` (right) per column; by
    default the first column is left-aligned and the others right-aligned.
    """
    align = align or "l" + "r" * (len(header) - 1)
    table = [[str(cell) for cell in row] for row in (header, *rows)]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [title] if title else []
    lines += ["  ".join(cell.ljust(w) if a == "l" else cell.rjust(w)
                        for cell, w, a in zip(row, widths, align)).rstrip()
              for row in table]
    return "\n".join(lines)


def _spread(n: int, width: int) -> List[int]:
    """n column positions spread across [0, width)."""
    if n == 1:
        return [width // 2]
    return [int(round(i * (width - 1) / (n - 1))) for i in range(n)]
