"""Fig. 5 — CDFs of dynamic fragmentation across fragmented reads.

The fragmented-read fragment counts come straight off the recorded
stream (``group_size`` is exactly the
:class:`~repro.core.recorders.FragmentationRecorder` multiset — every
Fig. 5 statistic filters to fragments > 1 and sorts, so read order is
immaterial) into the vectorized CDF/concentration kernels, which agree
exactly with the reference helpers; the recorder replay is the oracle in
``tests/differential/test_exhibits_vs_reference.py``.
"""

from __future__ import annotations

from repro.analysis.fast import (
    fraction_of_fragments_in_top_reads_fast,
    fragment_cdf_fast,
)
from repro.experiments.render import step_cdf
from repro.workloads import FIG5_WORKLOADS


def fragmentation(engine, trace) -> dict:
    """Fragmentation statistics + full CDF of one workload."""
    fragments = engine.stream_for(trace).group_size.tolist()
    return {
        "fragmented_reads": len(fragments),
        "total_fragments": sum(fragments),
        "max_fragments_per_read": max(fragments) if fragments else 0,
        "top20": fraction_of_fragments_in_top_reads_fast(fragments),
        "cdf": [(float(x), float(f)) for x, f in fragment_cdf_fast(fragments)],
    }


#: The fragmentation row of every Fig. 5 workload.
NEEDS = {name: [fragmentation] for name in FIG5_WORKLOADS}


def run(engine) -> dict:
    """Regenerate Fig. 5 for usr_0, hm_1, w20 and w36.

    Shape to check: fragments concentrate — the most-fragmented ~20 % of
    fragmented reads hold >=50 % of all fragments (more extreme for w36).
    """
    data = {}
    for name in FIG5_WORKLOADS:
        payload = engine.analysis(name, fragmentation)
        cdf = payload["cdf"]
        data[name] = {
            "fragmented_reads": payload["fragmented_reads"],
            "total_fragments": payload["total_fragments"],
            "max_fragments_per_read": payload["max_fragments_per_read"],
            "fraction_of_fragments_in_top20pct_reads": round(payload["top20"], 4),
            "cdf": cdf[:200],
        }
        print(
            f"Fig. 5 [{name}] fragmented reads: {payload['fragmented_reads']}, "
            f"fragments: {payload['total_fragments']}, top-20% of reads hold "
            f"{payload['top20']:.1%} of fragments"
        )
        print(step_cdf(cdf, title=f"  CDF of fragments per fragmented read, {name}"))
    return data
