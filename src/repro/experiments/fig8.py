"""Fig. 8 — mis-ordered writes within a 256 KB horizon, per workload.

The vectorized :func:`~repro.analysis.fast.misorder_rate_fast` kernel
agrees exactly with the reference scan
(:func:`~repro.analysis.misorder.misorder_rate`, its oracle in
``tests/differential/test_exhibits_vs_reference.py``).
"""

from __future__ import annotations

from repro.analysis.fast import MISORDER_HORIZON_KIB, misorder_rate_fast
from repro.experiments.render import hbar_chart
from repro.workloads import TABLE1


def misorder(engine, trace) -> float:
    """The mis-ordered write rate of one workload."""
    return round(misorder_rate_fast(trace), 5)


#: The rate of every Table I workload.
NEEDS = {name: [misorder] for name in TABLE1}


def run(engine) -> dict:
    """Regenerate Fig. 8: the fraction of writes whose LBA sequentially
    follows a write issued within the next 256 KB of written volume.

    Shape to check: rates reach roughly 1-in-20 for src2_2 and 1-in-25
    for w106, and are near zero for workloads without mis-ordered runs.
    """
    data = {name: engine.analysis(name, misorder) for name in TABLE1}
    print(
        hbar_chart(
            sorted(data.items(), key=lambda kv: -kv[1]),
            title=f"Fig. 8: mis-ordered write rate (horizon {MISORDER_HORIZON_KIB:g} KB)",
            fmt="{:.4f}",
        )
    )
    return data
