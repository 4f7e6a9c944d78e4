"""Fig. 3 — long-seek (>500 KB) overhead over time, LS minus NoLS.

Both windowed series come without a recorder replay: the LS side from the
recorded fragment stream (:func:`~repro.core.stream.
stream_windowed_long_seeks`, store-backed) and the NoLS side from the
vectorized baseline kernel (:func:`~repro.analysis.fast.
nols_windowed_long_seeks`).  The recorder replay they equal is the
oracle in ``tests/differential/test_exhibits_vs_reference.py``.
"""

from __future__ import annotations

from repro.analysis.fast import nols_windowed_long_seeks
from repro.analysis.temporal import long_seek_difference_series
from repro.core.stream import stream_windowed_long_seeks
from repro.experiments.common import downsample
from repro.experiments.render import sparkline
from repro.workloads import FIG3_WORKLOADS

WINDOW_OPS = 500


def long_seek_diff(engine, trace) -> list:
    """The full-resolution LS − NoLS difference series of one workload."""
    ls_series = stream_windowed_long_seeks(engine.stream_for(trace), WINDOW_OPS)
    nols_series = nols_windowed_long_seeks(trace, WINDOW_OPS)
    return long_seek_difference_series(ls_series, nols_series)


#: The difference series of every Fig. 3 workload.
NEEDS = {name: [long_seek_diff] for name in FIG3_WORKLOADS}


def run(engine) -> dict:
    """Regenerate Fig. 3 for usr_1, web_0, w91 and w55.

    Shape to check: the difference series is strongly bursty — seek
    overhead concentrates in read-phase windows (the paper's diurnal
    pattern), rather than spreading evenly over the trace.
    """
    data = {}
    for name in FIG3_WORKLOADS:
        diff = engine.analysis(name, long_seek_diff)
        positive = [d for d in diff if d > 0]
        burstiness = (max(diff) / (sum(diff) / len(diff))) if diff and sum(diff) else 0.0
        data[name] = {
            "window_ops": WINDOW_OPS,
            "series": downsample(diff),
            "total_extra_long_seeks": sum(diff),
            "max_window": max(diff) if diff else 0,
            "windows_with_overhead": len(positive),
            "windows": len(diff),
            "burstiness": round(burstiness, 2),
        }
        print(f"Fig. 3 [{name}] extra long seeks per {WINDOW_OPS}-op window "
              f"(total {sum(diff)}, peak {max(diff) if diff else 0}, "
              f"{len(positive)}/{len(diff)} windows positive):")
        print("  " + sparkline(diff))
    return data
