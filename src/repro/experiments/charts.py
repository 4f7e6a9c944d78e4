"""Build SVG charts from exhibit result data.

Each supported exhibit gets a renderer that turns the JSON-able dict its
runner returns into one or more SVG files; unsupported exhibits (the
walkthroughs and tables) are skipped silently.  Driven by the CLI's
``--svg DIR`` option.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List

from repro.experiments.svg import bar_chart, grouped_bar_chart, line_chart


def _write(out_dir: Path, name: str, svg: str, written: List[Path]) -> None:
    path = out_dir / f"{name}.svg"
    path.write_text(svg)
    written.append(path)


def _fig2(data: dict, out_dir: Path, written: List[Path]) -> None:
    for family in ("msr", "cloudphysics"):
        groups = [
            (name, [
                row["nols"]["read_seeks"],
                row["nols"]["write_seeks"],
                row["ls"]["read_seeks"],
                row["ls"]["write_seeks"],
            ])
            for name, row in data.items()
            if row["family"] == family
        ]
        _write(
            out_dir,
            f"fig2_{family}",
            grouped_bar_chart(
                groups,
                series_labels=["NoLS read", "NoLS write", "LS read", "LS write"],
                title=f"Fig. 2 ({family}): seek counts, NoLS vs LS",
                y_label="seeks",
            ),
            written,
        )


def _fig3(data: dict, out_dir: Path, written: List[Path]) -> None:
    series = [
        (name, [(float(i), float(v)) for i, v in enumerate(row["series"])])
        for name, row in data.items()
    ]
    _write(
        out_dir,
        "fig3",
        line_chart(
            series,
            title="Fig. 3: extra long seeks per window (LS - NoLS)",
            x_label="window",
            y_label="extra long seeks",
        ),
        written,
    )


def _cdf_chart(data: dict, key_pairs, title, x_label, out_name, out_dir, written):
    series = []
    for name, row in data.items():
        for key, suffix in key_pairs:
            points = [(float(x), float(f)) for x, f in row[key]]
            if points:
                series.append((f"{name}{suffix}", points))
    _write(
        out_dir,
        out_name,
        line_chart(series, title=title, x_label=x_label, y_label="CDF"),
        written,
    )


def _fig4(data: dict, out_dir: Path, written: List[Path]) -> None:
    _cdf_chart(
        data,
        [("nols_cdf", " NoLS"), ("ls_cdf", " LS")],
        "Fig. 4: CDF of access distances",
        "distance (GiB)",
        "fig4",
        out_dir,
        written,
    )


def _fig5(data: dict, out_dir: Path, written: List[Path]) -> None:
    _cdf_chart(
        data,
        [("cdf", "")],
        "Fig. 5: CDF of fragments per fragmented read",
        "fragments",
        "fig5",
        out_dir,
        written,
    )


def _fig8(data: dict, out_dir: Path, written: List[Path]) -> None:
    items = sorted(data.items(), key=lambda kv: -kv[1])
    _write(
        out_dir,
        "fig8",
        bar_chart(
            items,
            title="Fig. 8: mis-ordered write rate (256 KB horizon)",
            y_label="rate",
        ),
        written,
    )


def _fig10(data: dict, out_dir: Path, written: List[Path]) -> None:
    series = [
        (
            name,
            [
                (float(i), float(mib))
                for i, mib in enumerate(row["cumulative_mib"])
            ],
        )
        for name, row in data.items()
    ]
    _write(
        out_dir,
        "fig10",
        line_chart(
            series,
            title="Fig. 10: cumulative cache size by fragment popularity rank",
            x_label="fragment rank (sampled)",
            y_label="MiB",
        ),
        written,
    )


def _fig11(data: dict, out_dir: Path, written: List[Path]) -> None:
    configs = ["LS", "LS+defrag", "LS+prefetch", "LS+cache"]
    for family in ("msr", "cloudphysics"):
        groups = [
            (name, [row["saf"][c]["total"] for c in configs])
            for name, row in data.items()
            if row["family"] == family
        ]
        _write(
            out_dir,
            f"fig11_{family}",
            grouped_bar_chart(
                groups,
                series_labels=configs,
                title=f"Fig. 11 ({family}): seek amplification factor",
                y_label="SAF",
                reference_line=1.0,
            ),
            written,
        )


def _ablation_cache(data: dict, out_dir: Path, written: List[Path]) -> None:
    sizes = ["4MB", "16MB", "64MB", "256MB"]
    groups = [
        (name, [row[size] for size in sizes]) for name, row in data.items()
    ]
    _write(
        out_dir,
        "ablation_cache",
        grouped_bar_chart(
            groups,
            series_labels=sizes,
            title="Ablation: selective-cache capacity vs SAF",
            y_label="SAF",
            reference_line=1.0,
        ),
        written,
    )


def _ablation_cleaning(data: dict, out_dir: Path, written: List[Path]) -> None:
    points = sorted(
        (row["overprovision_x"], row["waf"]) for row in data.values()
    )
    seeks = sorted(
        (row["overprovision_x"], row["saf_incl_cleaning"]) for row in data.values()
    )
    _write(
        out_dir,
        "ablation_cleaning",
        line_chart(
            [("WAF", points), ("SAF incl. cleaning", seeks)],
            title="Ablation: over-provisioning vs cleaning cost",
            x_label="log capacity / working set",
        ),
        written,
    )


RENDERERS: Dict[str, Callable] = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig8": _fig8,
    "fig10": _fig10,
    "fig11": _fig11,
    "ablation_cache": _ablation_cache,
    "ablation_cleaning": _ablation_cleaning,
}
"""Exhibits with an SVG rendering (others are text/table-only)."""


def render_svg(exhibit: str, data: dict, out_dir) -> List[Path]:
    """Render ``exhibit``'s chart(s) into ``out_dir``; returns paths
    written (empty when the exhibit has no chart form)."""
    renderer = RENDERERS.get(exhibit)
    if renderer is None:
        return []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    renderer(data, out, written)
    return written
