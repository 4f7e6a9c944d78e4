"""Workload and replay analyses behind the paper's characterization figures.

Each module maps to one analytical lens:

* :mod:`repro.analysis.distances` — seek/access-distance CDFs (Fig. 4).
* :mod:`repro.analysis.temporal` — windowed long-seek differencing (Fig. 3).
* :mod:`repro.analysis.fragmentation` — dynamic-fragmentation CDFs and
  concentration curves (Fig. 5).
* :mod:`repro.analysis.misorder` — mis-ordered-write detection (Fig. 8).
* :mod:`repro.analysis.popularity` — fragment access popularity and the
  cumulative cache-size curve (Fig. 10).
"""

from repro.analysis.distances import distance_cdf, clip_distances
from repro.analysis.temporal import WindowedSeekRecorder, long_seek_difference
from repro.analysis.fragmentation import (
    fragment_cdf,
    fragment_concentration,
    fraction_of_fragments_in_top_reads,
)
from repro.analysis.misorder import misordered_writes, misorder_rate
from repro.analysis.popularity import (
    FragmentPopularityRecorder,
    PopularityCurve,
)
from repro.analysis.fast import (
    distance_cdf_fast,
    fraction_within_fast,
    fragment_cdf_fast,
    fraction_of_fragments_in_top_reads_fast,
    misorder_rate_fast,
    nols_seek_counts,
    nols_seek_distances,
    nols_windowed_long_seeks,
    popularity_curve_fast,
)
from repro.analysis.classify import (
    LogSensitivity,
    WorkloadCharacter,
    characterize,
    classify_saf,
)

__all__ = [
    "distance_cdf",
    "clip_distances",
    "WindowedSeekRecorder",
    "long_seek_difference",
    "fragment_cdf",
    "fragment_concentration",
    "fraction_of_fragments_in_top_reads",
    "misordered_writes",
    "misorder_rate",
    "FragmentPopularityRecorder",
    "PopularityCurve",
    "LogSensitivity",
    "WorkloadCharacter",
    "characterize",
    "classify_saf",
    # Vectorized equivalents (exact; see tests/differential/)
    "distance_cdf_fast",
    "fraction_within_fast",
    "fragment_cdf_fast",
    "fraction_of_fragments_in_top_reads_fast",
    "misorder_rate_fast",
    "nols_seek_counts",
    "nols_seek_distances",
    "nols_windowed_long_seeks",
    "popularity_curve_fast",
]
