"""Dependency-free SVG chart rendering for exhibit output.

The experiment harness prints text renderings; this module produces
publication-style SVG files (bar charts for Figs. 2/8/11, step/line
charts for Figs. 3/4/5/10) with no plotting stack.  Charts are plain
strings assembled from a handful of primitives, so they are unit-testable
and diff-able.

Use via the CLI: ``python -m repro.experiments fig11 --svg charts/``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape

PALETTE = ("#4878a8", "#e8923c", "#6aa56e", "#b86a6a", "#8a7ab8", "#5f5f5f")
_FONT = 'font-family="Helvetica,Arial,sans-serif"'


class SvgCanvas:
    """Minimal SVG assembly: fixed viewport, element list, serialization."""

    def __init__(self, width: int = 720, height: int = 400) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be > 0")
        self.width = width
        self.height = height
        self._elements: List[str] = []

    def rect(self, x: float, y: float, w: float, h: float, fill: str) -> None:
        self._elements.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
            f'fill="{fill}" fill-opacity="1"/>'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float,
             stroke: str = "#444", width: float = 1.0, dash: str = "") -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="{width:g}"{dash_attr}/>'
        )

    def polyline(self, points: Sequence[Tuple[float, float]], stroke: str) -> None:
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self._elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5"/>'
        )

    def text(self, x: float, y: float, content: str, size: int = 11,
             anchor: str = "start", rotate: Optional[float] = None) -> None:
        transform = (
            f' transform="rotate({rotate:g} {x:.1f} {y:.1f})"' if rotate else ""
        )
        self._elements.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" {_FONT} '
            f'text-anchor="{anchor}" fill="#222"{transform}>'
            f"{escape(content)}</text>"
        )

    def to_string(self) -> str:
        body = "\n  ".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'  <rect width="{self.width}" height="{self.height}" fill="white"/>\n'
            f"  {body}\n</svg>\n"
        )


def _nice_ticks(peak: float) -> List[float]:
    """About five round-ish axis ticks from 0 to just past ``peak``."""
    if peak <= 0:
        return [0.0, 1.0]
    raw = peak / 5
    magnitude = 10 ** int(f"{raw:e}".split("e")[1])
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step * 5 >= peak:
            break
    count = int(peak / step) + 1
    return [step * i for i in range(count + 1)]


def grouped_bar_chart(
    groups: Sequence[Tuple[str, Sequence[float]]],
    series_labels: Sequence[str],
    title: str,
    y_label: str = "",
    height: int = 420,
    reference_line: Optional[float] = None,
) -> str:
    """Fig. 11-style grouped bars, 840 px wide: one cluster per group, one
    bar per series."""
    width = 840
    if not groups or not series_labels:
        raise ValueError("groups and series_labels must be non-empty")
    for label, values in groups:
        if len(values) != len(series_labels):
            raise ValueError(f"group {label!r} has {len(values)} values, "
                             f"expected {len(series_labels)}")
    canvas = SvgCanvas(width, height)
    left, right, top, bottom = 56, 16, 36, 76
    plot_w = width - left - right
    plot_h = height - top - bottom
    peak = max(max(values) for _, values in groups)
    ticks = _nice_ticks(peak)
    y_max = ticks[-1] or 1.0

    def y_of(value: float) -> float:
        return top + plot_h * (1.0 - value / y_max)

    canvas.text(width / 2, 20, title, size=14, anchor="middle")
    for tick in ticks:
        y = y_of(tick)
        canvas.line(left, y, width - right, y, stroke="#ddd")
        canvas.text(left - 6, y + 4, f"{tick:g}", anchor="end", size=10)
    if y_label:
        canvas.text(14, top + plot_h / 2, y_label, size=11, anchor="middle",
                    rotate=-90)
    if reference_line is not None and reference_line <= y_max:
        y = y_of(reference_line)
        canvas.line(left, y, width - right, y, stroke="#b03030", dash="4,3")

    cluster_w = plot_w / len(groups)
    bar_w = cluster_w * 0.8 / len(series_labels)
    for g_index, (label, values) in enumerate(groups):
        x0 = left + g_index * cluster_w + cluster_w * 0.1
        for s_index, value in enumerate(values):
            x = x0 + s_index * bar_w
            y = y_of(value)
            canvas.rect(x, y, bar_w * 0.92, top + plot_h - y,
                        fill=PALETTE[s_index % len(PALETTE)])
        canvas.text(left + g_index * cluster_w + cluster_w / 2,
                    top + plot_h + 14, label, size=10, anchor="end",
                    rotate=-35)
    canvas.line(left, top + plot_h, width - right, top + plot_h)

    legend_x = left
    legend_y = height - 14
    for s_index, label in enumerate(series_labels):
        canvas.rect(legend_x, legend_y - 9, 10, 10,
                    fill=PALETTE[s_index % len(PALETTE)])
        canvas.text(legend_x + 14, legend_y, label, size=10)
        legend_x += 14 + 7 * len(label) + 18
    return canvas.to_string()


def line_chart(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    title: str,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Fig. 3/4/5/10-style line/step chart, 720 x 400 px, with one polyline
    per series."""
    width, height = 720, 400
    if not series or all(not points for _, points in series):
        raise ValueError("series must contain at least one point")
    canvas = SvgCanvas(width, height)
    left, right, top, bottom = 64, 16, 36, 48
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = [x for _, points in series for x, _ in points]
    ys = [y for _, points in series for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def pt(x: float, y: float) -> Tuple[float, float]:
        return (
            left + plot_w * (x - x_lo) / x_span,
            top + plot_h * (1.0 - (y - y_lo) / y_span),
        )

    canvas.text(width / 2, 20, title, size=14, anchor="middle")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y_val = y_lo + y_span * frac
        _, y = pt(x_lo, y_val)
        canvas.line(left, y, width - right, y, stroke="#ddd")
        canvas.text(left - 6, y + 4, f"{y_val:.3g}", anchor="end", size=10)
        x_val = x_lo + x_span * frac
        x, _ = pt(x_val, y_lo)
        canvas.text(x, top + plot_h + 16, f"{x_val:.3g}", anchor="middle", size=10)
    if x_label:
        canvas.text(left + plot_w / 2, height - 8, x_label, size=11, anchor="middle")
    if y_label:
        canvas.text(14, top + plot_h / 2, y_label, size=11, anchor="middle",
                    rotate=-90)
    canvas.line(left, top + plot_h, width - right, top + plot_h)
    canvas.line(left, top, left, top + plot_h)

    legend_y = top + 4
    for index, (label, points) in enumerate(series):
        if not points:
            continue
        color = PALETTE[index % len(PALETTE)]
        canvas.polyline([pt(x, y) for x, y in points], stroke=color)
        canvas.line(width - right - 120, legend_y + 6, width - right - 100,
                    legend_y + 6, stroke=color, width=2)
        canvas.text(width - right - 94, legend_y + 9, label, size=10)
        legend_y += 16
    return canvas.to_string()


def bar_chart(
    items: Sequence[Tuple[str, float]],
    title: str,
    y_label: str = "",
) -> str:
    """Fig. 8-style single-series bar chart, 840 x 400 px."""
    if not items:
        raise ValueError("items must be non-empty")
    return grouped_bar_chart(
        [(label, [value]) for label, value in items],
        series_labels=[y_label or "value"],
        title=title,
        y_label=y_label,
        height=400,
    )
