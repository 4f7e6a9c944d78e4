"""Consolidated markdown report from saved exhibit results.

``python -m repro.experiments all --out results/`` leaves one JSON per
exhibit; this module folds them into a single human-readable
``REPORT.md`` — the auto-generated counterpart of the hand-written
EXPERIMENTS.md::

    from repro.experiments.report import write_report
    write_report("results")  # -> results/REPORT.md
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union


def _load(results_dir: Path, exhibit: str) -> Optional[dict]:
    path = results_dir / f"{exhibit}.json"
    if not path.exists():
        return None
    with path.open() as handle:
        return json.load(handle)


def _fig11_section(data: dict, lines: List[str]) -> None:
    lines.append("## Fig. 11 — seek amplification factors\n")
    configs = ["LS", "LS+defrag", "LS+prefetch", "LS+cache"]
    lines.append("| workload | family | " + " | ".join(configs) + " | best |")
    lines.append("|---|---|" + "---|" * (len(configs) + 1))
    for name, row in data.items():
        totals = {c: row["saf"][c]["total"] for c in configs}
        best = min(totals, key=totals.get)
        lines.append(
            f"| {name} | {row['family']} | "
            + " | ".join(f"{totals[c]:.2f}" for c in configs)
            + f" | {best} |"
        )
    lines.append("")


def _fig2_section(data: dict, lines: List[str]) -> None:
    lines.append("## Fig. 2 — seek counts, NoLS vs LS\n")
    lines.append("| workload | NoLS rd | NoLS wr | LS rd | LS wr |")
    lines.append("|---|---|---|---|---|")
    for name, row in data.items():
        lines.append(
            f"| {name} | {row['nols']['read_seeks']} | "
            f"{row['nols']['write_seeks']} | {row['ls']['read_seeks']} | "
            f"{row['ls']['write_seeks']} |"
        )
    lines.append("")


def _fig8_section(data: dict, lines: List[str]) -> None:
    lines.append("## Fig. 8 — mis-ordered write rates\n")
    lines.append("| workload | rate |")
    lines.append("|---|---|")
    for name, rate in sorted(data.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {name} | {rate:.4f} |")
    lines.append("")


def _fig10_section(data: dict, lines: List[str]) -> None:
    lines.append("## Fig. 10 — cache sizing by fragment popularity\n")
    lines.append("| workload | fragments | MiB@50% | MiB@80% | MiB@90% | MiB total |")
    lines.append("|---|---|---|---|---|---|")
    for name, row in data.items():
        lines.append(
            f"| {name} | {row['fragments']} | {row['cache_mib_for_50pct']} | "
            f"{row['cache_mib_for_80pct']} | {row['cache_mib_for_90pct']} | "
            f"{row['total_mib']} |"
        )
    lines.append("")


def _scenario_section(fig6: Optional[dict], fig9: Optional[dict], lines: List[str]) -> None:
    if fig6:
        wd = fig6["with_defrag"]
        wo = fig6["without_defrag"]
        lines.append("## Fig. 6 — defragmentation walkthrough\n")
        lines.append(
            f"Fragmented read: {wo['rd_2_5_first']['read_seeks']} seeks; "
            f"re-read after defrag: {wd['rd_2_5_again']['read_seeks']}; "
            f"adjacent read pays {wd['rd_1_2']['read_seeks']} "
            f"(relocation penalty).\n"
        )
    if fig9:
        lines.append("## Fig. 9 — prefetching walkthrough\n")
        lines.append(
            f"Read of 5 out-of-order pieces: "
            f"{fig9['without_prefetch']['read_seeks']} seeks plain, "
            f"{fig9['with_prefetch']['read_seeks']} with look-ahead-behind "
            f"({fig9['with_prefetch']['buffer_fragment_hits']} buffer hits).\n"
        )


def _taxonomy_section(data: dict, lines: List[str]) -> None:
    lines.append("## Workload taxonomy (extension)\n")
    agree = sum(
        1 for row in data.values() if row["measured"] == row["predicted"]
    )
    lines.append(
        f"Feature-based prediction agrees with measured classification on "
        f"{agree}/{len(data)} workloads.\n"
    )


def build_report(results_dir: Union[str, Path]) -> str:
    """Assemble the markdown report from whatever JSONs are present."""
    results = Path(results_dir)
    if not results.is_dir():
        raise FileNotFoundError(f"no results directory at {results}")
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Auto-generated from the JSON dumps in this directory "
        "(`python -m repro.experiments all --out ...`).  Shapes and the "
        "paper-vs-measured discussion live in EXPERIMENTS.md.",
        "",
    ]
    sections = 0
    fig11 = _load(results, "fig11")
    if fig11:
        _fig11_section(fig11, lines)
        sections += 1
    fig2 = _load(results, "fig2")
    if fig2:
        _fig2_section(fig2, lines)
        sections += 1
    fig8 = _load(results, "fig8")
    if fig8:
        _fig8_section(fig8, lines)
        sections += 1
    fig10 = _load(results, "fig10")
    if fig10:
        _fig10_section(fig10, lines)
        sections += 1
    fig6 = _load(results, "fig6")
    fig9 = _load(results, "fig9")
    if fig6 or fig9:
        _scenario_section(fig6, fig9, lines)
        sections += 1
    taxonomy = _load(results, "taxonomy")
    if taxonomy:
        _taxonomy_section(taxonomy, lines)
        sections += 1
    if sections == 0:
        raise FileNotFoundError(
            f"no exhibit JSONs found in {results}; run the experiments first"
        )
    return "\n".join(lines) + "\n"


def write_report(results_dir: Union[str, Path]) -> Path:
    """Write the report to ``<results_dir>/REPORT.md``."""
    results = Path(results_dir)
    out = results / "REPORT.md"
    out.write_text(build_report(results))
    return out
