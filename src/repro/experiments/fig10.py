"""Fig. 10 — fragment popularity and cumulative cache-size curves.

The popularity curve is built straight off the recorded fragment stream —
:func:`~repro.core.stream.stream_fragment_stats` reproduces the reference
recorder's ``(count, size)`` pairs in first-access order, and
:func:`~repro.analysis.fast.popularity_curve_fast` the stable-sorted
curve — so no recorder replay is needed and the result is exact (the
recorder replay is the oracle in
``tests/differential/test_exhibits_vs_reference.py``).
"""

from __future__ import annotations

from repro.analysis.fast import popularity_curve_fast
from repro.core.stream import stream_fragment_stats
from repro.experiments.common import downsample
from repro.experiments.render import format_table
from repro.workloads import FIG10_WORKLOADS


def popularity_row(curve) -> dict:
    """The Fig. 10 row of one workload's popularity curve (full lists)."""
    return {
        "fragments": curve.fragment_count,
        "total_accesses": curve.total_accesses,
        "top_access_count": curve.access_counts[0] if curve.access_counts else 0,
        "mib_50": curve.cache_mib_for_access_share(0.5),
        "mib_80": curve.cache_mib_for_access_share(0.8),
        "mib_90": curve.cache_mib_for_access_share(0.9),
        "access_counts": list(curve.access_counts),
        "cumulative_mib": list(curve.cumulative_mib),
    }


def popularity(engine, trace) -> dict:
    """The popularity row of one workload."""
    stats = stream_fragment_stats(engine.stream_for(trace))
    return popularity_row(popularity_curve_fast(stats))


#: The popularity row of every Fig. 10 workload.
NEEDS = {name: [popularity] for name in FIG10_WORKLOADS}


def run(engine) -> dict:
    """Regenerate Fig. 10 for the paper's eight workloads.

    Shape to check: fragment accesses are highly skewed, and the fragments
    covering the bulk of accesses (say 80–90 %) total at most a few tens
    of MB — comfortably inside a 64 MB selective cache.
    """
    data = {}
    rows = []
    for name in FIG10_WORKLOADS:
        payload = engine.analysis(name, popularity)
        mib_50, mib_80, mib_90 = payload["mib_50"], payload["mib_80"], payload["mib_90"]
        cumulative_mib = payload["cumulative_mib"]
        data[name] = {
            "fragments": payload["fragments"],
            "total_accesses": payload["total_accesses"],
            "top_access_count": payload["top_access_count"],
            "cache_mib_for_50pct": round(mib_50, 2),
            "cache_mib_for_80pct": round(mib_80, 2),
            "cache_mib_for_90pct": round(mib_90, 2),
            "total_mib": round(cumulative_mib[-1], 2) if cumulative_mib else 0.0,
            "access_counts": downsample(payload["access_counts"]),
            "cumulative_mib": downsample(cumulative_mib),
        }
        rows.append(
            [
                name,
                payload["fragments"],
                payload["total_accesses"],
                f"{mib_50:.1f}",
                f"{mib_80:.1f}",
                f"{mib_90:.1f}",
                f"{data[name]['total_mib']:.1f}",
            ]
        )
    print(
        format_table(
            [
                "workload",
                "fragments",
                "accesses",
                "MiB@50%",
                "MiB@80%",
                "MiB@90%",
                "MiB total",
            ],
            rows,
            title="Fig. 10: cache size needed to hold the most-accessed fragments",
        )
    )
    return data
