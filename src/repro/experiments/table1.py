"""Table I — workload characteristics, paper vs. synthetic archetype."""

from __future__ import annotations

from repro.experiments.render import format_table
from repro.trace.stats import compute_stats
from repro.workloads import TABLE1


def trace_stats(engine, trace):
    """The Table I row of one workload: :func:`compute_stats`."""
    return compute_stats(trace)


#: The stats of every Table I workload.
NEEDS = {name: [trace_stats] for name in TABLE1}


def run(engine) -> dict:
    """Regenerate Table I: per-workload counts, volumes and mean sizes.

    Synthetic archetypes are scaled down from the paper's traces; the
    comparison columns are therefore *read fraction* and *mean write size*
    (scale-invariant), alongside the raw synthetic counts.
    """
    rows = []
    data = {}
    for name, entry in TABLE1.items():
        stats = engine.analysis(name, trace_stats)
        paper = entry.paper
        data[name] = {
            "paper": {
                "read_count": paper.read_count,
                "write_count": paper.write_count,
                "read_gb": paper.read_gb,
                "written_gb": paper.written_gb,
                "mean_write_kb": paper.mean_write_kb,
                "read_fraction": round(paper.read_fraction, 3),
                "guest_os": paper.guest_os,
            },
            "synthetic": {
                "read_count": stats.read_count,
                "write_count": stats.write_count,
                "read_gib": round(stats.read_volume_gib, 3),
                "written_gib": round(stats.written_volume_gib, 3),
                "mean_write_kib": round(stats.mean_write_size_kib, 1),
                "read_fraction": round(stats.read_fraction, 3),
            },
        }
        rows.append(
            [
                name,
                paper.read_count,
                paper.write_count,
                f"{paper.read_fraction:.3f}",
                f"{stats.read_fraction:.3f}",
                f"{paper.mean_write_kb:.1f}",
                f"{stats.mean_write_size_kib:.1f}",
                stats.read_count,
                stats.write_count,
            ]
        )
    print(
        format_table(
            [
                "workload",
                "paper rd#",
                "paper wr#",
                "paper rd frac",
                "synth rd frac",
                "paper wr KB",
                "synth wr KiB",
                "synth rd#",
                "synth wr#",
            ],
            rows,
            title="Table I: workload characteristics (paper vs synthetic archetype)",
        )
    )
    return data
