"""Plain-text rendering helpers for experiment output.

Everything prints to stdout as fixed-width text: tables for the paper's
tables, horizontal bars for its bar charts, and coarse step plots for its
CDFs — enough to eyeball the shapes against the paper without a plotting
stack.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned fixed-width table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def hbar_chart(
    items: Sequence[Tuple[str, float]],
    title: Optional[str] = None,
    fmt: str = "{:.2f}",
) -> str:
    """Render labeled horizontal bars, 50 characters at the maximum value."""
    if not items:
        return title or ""
    peak = max(value for _, value in items) or 1.0
    label_w = max(len(label) for label, _ in items)
    lines: List[str] = [title] if title else []
    for label, value in items:
        bar = "#" * max(0, round(50 * value / peak))
        lines.append(f"{label.ljust(label_w)} | {bar} {fmt.format(value)}")
    return "\n".join(lines)


def step_cdf(points: Sequence[Tuple[float, float]], title: Optional[str] = None) -> str:
    """Render a CDF as a coarse 60 x 12 character plot (x: value, y: F(x))."""
    width, height = 60, 12
    lines: List[str] = [title] if title else []
    if not points:
        lines.append("(empty)")
        return "\n".join(lines)
    xs = [p[0] for p in points]
    lo, hi = min(xs), max(xs)
    span = (hi - lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, f in points:
        col = min(width - 1, int((x - lo) / span * (width - 1)))
        row = min(height - 1, int((1.0 - f) * (height - 1)))
        grid[row][col] = "*"
    for i, row in enumerate(grid):
        frac = 1.0 - i / (height - 1)
        lines.append(f"{frac:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {lo:.3g}{' ' * (width - 12)}{hi:.3g}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """Compress a series into one line of at most 72 block characters."""
    if not values:
        return "(empty)"
    if len(values) > 72:
        stride = len(values) / 72
        values = [values[int(i * stride)] for i in range(72)]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    blocks = " .:-=+*#%@"
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
        for v in values
    )
