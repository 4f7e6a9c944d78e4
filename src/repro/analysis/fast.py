"""Vectorized (numpy) fast paths for trace-level analyses.

The reference implementations in this package are plain Python and easy
to audit; replaying multi-million-op traces (e.g. the real MSR files)
makes the O(n) Python loops noticeable.  This module provides numpy
equivalents for the analyses that need no translation state — baseline
(NoLS) seek counting and seek distances — with tests asserting exact
agreement with the reference path.

The stateful log-structured replay has its own vectorized kernel in
:mod:`repro.core.batch` (chunked sweeps over the extent map with
vectorized seek classification).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.batch import classify_seeks
from repro.trace.trace import Trace
from repro.util.units import SECTOR_BYTES, BYTES_PER_MIB, gib_to_sectors, kib_to_sectors

#: The paper's thresholds: a write is mis-ordered when a write ending at its
#: LBA follows within 256 KB of written volume (Fig. 8); a seek is long at
#: 500 KB (Fig. 3); Fig. 5's headline is the share of fragments held by the
#: most-fragmented 20 % of reads.
MISORDER_HORIZON_KIB, LONG_SEEK_KIB, TOP_READS_FRACTION = 256.0, 500.0, 0.2


def nols_seek_distances(trace: Trace) -> np.ndarray:
    """Signed distances of the baseline replay's seeks, in op order: the
    in-place replay's access stream is the ops themselves."""
    is_read, lba, length = trace.as_arrays()
    return classify_seeks(lba, length, (~is_read).view(np.int8), None)[1]


def misorder_rate_fast(trace: Trace) -> float:
    """Vectorized Fig. 8 mis-ordered-write rate.

    For each write *i*, scans the following writes until the cumulative
    written volume passes :data:`MISORDER_HORIZON_KIB`, looking for one that ends exactly
    at *i*'s LBA.  Fully vectorized: the per-write window end comes from
    one batched searchsorted over the volume prefix sums, and the
    "does any window write end at my LBA" membership test becomes a
    next-occurrence query — write ends are encoded as sorted
    ``value_code * (n+1) + position`` keys, so a second batched
    searchsorted finds, per write, the first later write ending at its
    LBA, which is then compared against the window bound.  Agrees exactly
    with :func:`repro.analysis.misorder.misorder_rate`.
    """
    is_read, all_lba, all_length = trace.as_arrays()
    write_mask = ~is_read
    lba = all_lba[write_mask]
    length = all_length[write_mask]
    n = int(lba.size)
    if n == 0:
        return 0.0
    ends = lba + length
    horizon = kib_to_sectors(MISORDER_HORIZON_KIB)
    # volume[i] = sectors written by writes 0..i-1; write i's window is
    # writes j in (i, k[i]) where the cumulative volume of writes
    # i+1..j-1 stays below the horizon.
    volume = np.concatenate(([0], np.cumsum(length)))
    k = np.searchsorted(volume, volume[1:] + horizon, side="left")
    # Dense value codes shared by ends and lba so equality of sector
    # addresses becomes equality of codes.
    codes = np.unique(np.concatenate([ends, lba]), return_inverse=True)[1]
    ends_code = codes[:n].astype(np.int64)
    lba_code = codes[n:].astype(np.int64)
    base = np.int64(n + 1)
    keys = np.sort(ends_code * base + np.arange(n, dtype=np.int64))
    keys = np.concatenate([keys, [np.iinfo(np.int64).max]])
    # Smallest key >= (lba_code[i], i+1) is the first write j > i with
    # ends[j] == lba[i]; write i is mis-ordered iff that j lands inside
    # the window, i.e. the key stays below (lba_code[i], k[i]).  A key
    # with a different (larger) code overshoots the bound because
    # k[i] <= n < base.
    queries = lba_code * base + np.arange(1, n + 1, dtype=np.int64)
    first_match = keys[np.searchsorted(keys[:-1], queries, side="left")]
    flagged = int(np.count_nonzero(first_match < lba_code * base + k))
    return flagged / n


def _empirical_cdf_points(values: np.ndarray) -> List[Tuple[float, float]]:
    """Vectorized :func:`repro.util.stats.empirical_cdf` over a numpy array.

    Duplicates collapse via ``np.unique``; the cumulative fractions are
    Python ``int / int`` divisions, bit-identical to the reference's
    ``j / n``.
    """
    if values.size == 0:
        return []
    uniques, counts = np.unique(values, return_counts=True)
    n = int(values.size)
    return [
        (float(value), cumulative / n)
        for value, cumulative in zip(
            uniques.tolist(), np.cumsum(counts).tolist()
        )
    ]


def fragment_cdf_fast(read_fragments: Sequence[int]) -> List[Tuple[float, float]]:
    """Vectorized Fig. 5 fragment-count CDF; agrees exactly with
    :func:`repro.analysis.fragmentation.fragment_cdf`."""
    fragments = np.asarray(read_fragments, dtype=np.int64)
    return _empirical_cdf_points(fragments[fragments > 1])


def fraction_of_fragments_in_top_reads_fast(read_fragments: Sequence[int]) -> float:
    """Vectorized share of fragments in the :data:`TOP_READS_FRACTION` most
    fragmented reads; agrees exactly with
    :func:`repro.analysis.fragmentation.fraction_of_fragments_in_top_reads`."""
    fragments = np.asarray(read_fragments, dtype=np.int64)
    descending = np.sort(fragments[fragments > 1])[::-1]
    n = int(descending.size)
    if n == 0:
        return 0.0
    # The reference walks (rank/n, running/total) points until
    # rank/n >= TOP_READS_FRACTION; reproduce its float comparison verbatim.
    ranks = np.arange(1, n + 1, dtype=np.int64) / n
    index = int(np.searchsorted(ranks, TOP_READS_FRACTION, side="left"))
    cumulative = np.cumsum(descending)
    total = int(cumulative[-1])
    return int(cumulative[index]) / total


def distance_cdf_fast(
    distances: Sequence[int],
    window_gib: float = 2.0,
) -> List[Tuple[float, float]]:
    """Vectorized Fig. 4 clipped distance CDF; agrees exactly with
    :func:`repro.analysis.distances.distance_cdf`."""
    if window_gib <= 0:
        raise ValueError(f"window_gib must be > 0, got {window_gib}")
    values = np.asarray(distances, dtype=np.int64)
    limit = gib_to_sectors(window_gib)
    return _empirical_cdf_points(values[(values >= -limit) & (values <= limit)])


def fraction_within_fast(distances: Sequence[int], window_gib: float) -> float:
    """Vectorized in-window distance fraction; agrees exactly with
    :func:`repro.analysis.distances.fraction_within`."""
    values = np.asarray(distances, dtype=np.int64)
    n = int(values.size)
    if n == 0:
        return 0.0
    if window_gib <= 0:
        raise ValueError(f"window_gib must be > 0, got {window_gib}")
    limit = gib_to_sectors(window_gib)
    within = int(np.count_nonzero((values >= -limit) & (values <= limit)))
    return within / n


def windowed_long_seeks(seeks, n_ops: int, window_ops: int) -> List[int]:
    """Fig. 3's series: per window of ``window_ops`` ops, the seeks of at
    least :data:`LONG_SEEK_KIB`, from ``(op_index, distances)`` arrays
    of the seeks (any number of chunks).

    The series is dense through the last op's window, as
    :class:`~repro.analysis.temporal.WindowedSeekRecorder` observes every
    op, seeking or not: its length is ``(n_ops - 1) // window_ops + 1``.
    """
    if window_ops <= 0:
        raise ValueError(f"window_ops must be > 0, got {window_ops}")
    counts = np.zeros((n_ops - 1) // window_ops + 1, dtype=np.int64)
    threshold = kib_to_sectors(LONG_SEEK_KIB)
    for op_index, distances in seeks:
        counts += np.bincount(
            op_index[np.abs(distances) >= threshold] // window_ops, minlength=len(counts)
        )
    return counts.tolist()


def nols_windowed_long_seeks(trace: Trace, window_ops: int = 1000) -> List[int]:
    """Per-window counts of :data:`LONG_SEEK_KIB` seeks of the NoLS replay
    (Fig. 3 baseline side).

    Vectorized equivalent of replaying through
    :class:`~repro.core.translators.InPlaceTranslator` with a
    :class:`~repro.analysis.temporal.WindowedSeekRecorder` and taking its
    ``series()`` — exact-match tested by the differential suite.
    """
    is_read, lba, length = trace.as_arrays()
    seek, distances, _kinds, _end = classify_seeks(lba, length, (~is_read).view(np.int8), None)
    return windowed_long_seeks([(np.flatnonzero(seek), distances)], len(trace), window_ops)


def popularity_curve_fast(fragment_stats: Sequence[Tuple[int, int]]):
    """Build the Fig. 10 :class:`~repro.analysis.popularity.PopularityCurve`
    from ``(access_count, size_sectors)`` pairs, vectorized.

    Agrees exactly with
    :meth:`~repro.analysis.popularity.FragmentPopularityRecorder.curve`
    (stable descending sort preserves the reference's tie ordering; the
    MiB conversion is the same ``sectors * 512 / 2**20`` arithmetic).
    """
    from repro.analysis.popularity import PopularityCurve

    if not len(fragment_stats):
        return PopularityCurve(access_counts=[], cumulative_mib=[])
    pairs = np.asarray(fragment_stats, dtype=np.int64).reshape(-1, 2)
    order = np.argsort(-pairs[:, 0], kind="stable")
    counts = pairs[order, 0]
    sizes = pairs[order, 1]
    cumulative_mib = np.cumsum(sizes) * SECTOR_BYTES / BYTES_PER_MIB
    return PopularityCurve(
        access_counts=counts.tolist(), cumulative_mib=cumulative_mib.tolist()
    )
