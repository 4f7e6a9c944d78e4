"""Fig. 4 — CDFs of access (seek) distances, NoLS vs LS, ±2 GB window.

Both distance logs come without a recorder replay: the LS side from the
recorded fragment stream (its kept-access seek log equals
:class:`~repro.core.recorders.SeekLogRecorder`'s) and the NoLS side from
:func:`~repro.analysis.fast.nols_seek_distances`; the vectorized CDF /
fraction kernels agree exactly with the reference helpers, and the
recorder replay is the oracle in
``tests/differential/test_exhibits_vs_reference.py``.  Rows carry the
*full-resolution* CDFs (the terminal step plot needs them); ``run``
downsamples for the JSON.
"""

from __future__ import annotations

from repro.analysis.fast import (
    distance_cdf_fast,
    fraction_within_fast,
    nols_seek_distances,
)
from repro.core.config import LS
from repro.core.stream import stream_replay
from repro.experiments.common import downsample
from repro.experiments.render import step_cdf
from repro.util.units import sectors_to_gib
from repro.workloads import FIG4_WORKLOADS

# The paper clips to +/-1-2 GB on multi-TB volumes; the synthetic
# archetypes scale the LBA space down ~100x, so the clip window scales
# with it (see EXPERIMENTS.md).
WINDOW_GIB = 0.25


def distance_cdfs(engine, trace) -> dict:
    """Both seek-distance CDFs of one workload (full resolution)."""
    nols_distances = nols_seek_distances(trace)
    ls_distances = stream_replay(engine.stream_for(trace), LS).distances
    return {
        "nols_fraction": fraction_within_fast(nols_distances, WINDOW_GIB),
        "ls_fraction": fraction_within_fast(ls_distances, WINDOW_GIB),
        "nols_cdf": [
            (int(x), float(f)) for x, f in distance_cdf_fast(nols_distances, WINDOW_GIB)
        ],
        "ls_cdf": [
            (int(x), float(f)) for x, f in distance_cdf_fast(ls_distances, WINDOW_GIB)
        ],
    }


#: Both CDFs of every Fig. 4 workload.
NEEDS = {name: [distance_cdfs] for name in FIG4_WORKLOADS}


def run(engine) -> dict:
    """Regenerate Fig. 4 for src2_2, usr_0, w84 and w64.

    Shape to check: the LS distance distribution is much wider than the
    NoLS one — a smaller fraction of LS seeks fall inside the window that
    contains virtually all the original trace's seeks.
    """
    data = {}
    for name in FIG4_WORKLOADS:
        payload = engine.analysis(name, distance_cdfs)
        nols_cdf = payload["nols_cdf"]
        ls_cdf = payload["ls_cdf"]
        data[name] = {
            "window_gib": WINDOW_GIB,
            "nols_fraction_within_window": round(payload["nols_fraction"], 4),
            "ls_fraction_within_window": round(payload["ls_fraction"], 4),
            "nols_cdf": downsample(
                [(sectors_to_gib(int(x)), f) for x, f in nols_cdf]
            ),
            "ls_cdf": downsample([(sectors_to_gib(int(x)), f) for x, f in ls_cdf]),
        }
        print(
            f"Fig. 4 [{name}] seeks within +/-{WINDOW_GIB:g} GiB: "
            f"NoLS {data[name]['nols_fraction_within_window']:.1%} of all seeks, "
            f"LS {data[name]['ls_fraction_within_window']:.1%}"
        )
        gib_cdf = [(sectors_to_gib(int(x)), f) for x, f in ls_cdf]
        print(step_cdf(gib_cdf, title=f"  LS access-distance CDF (GiB), {name}"))
    return data
