"""Fragment access popularity and cache sizing (paper §IV-C, Fig. 10).

Fig. 10 sorts the fragments touched by fragmented reads from most- to
least-accessed and overlays the cumulative RAM needed to cache them,
showing that the fragments responsible for the bulk of accesses total only
a few tens of MB — the empirical basis for translation-aware selective
caching with a small (64 MB) cache.

A *fragment* here is one physically contiguous piece of a fragmented read,
identified by its physical start sector.  Log PBAs are never rewritten
under the infinite-disk model, so the physical start is a stable identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.outcomes import IOOutcome
from repro.util.units import BYTES_PER_MIB, SECTOR_BYTES


@dataclass(frozen=True)
class PopularityCurve:
    """Fig. 10 data: fragments sorted by access count, most popular first.

    Attributes:
        access_counts: Per-fragment read access counts, descending.
        cumulative_mib: Running RAM total to cache fragments up to each rank.
    """

    access_counts: List[int]
    cumulative_mib: List[float]

    def __post_init__(self) -> None:
        # Precompute the cumulative access counts once: total_accesses and
        # cache_mib_for_access_share are called repeatedly per exhibit
        # (several share levels over the same curve), and re-summing a
        # million-fragment list in Python each time dominated Fig. 10.
        import numpy as np

        cumulative = np.cumsum(
            np.asarray(self.access_counts, dtype=np.int64)
        )
        cumulative.setflags(write=False)
        object.__setattr__(self, "_cumulative_accesses", cumulative)

    @property
    def fragment_count(self) -> int:
        return len(self.access_counts)

    @property
    def total_accesses(self) -> int:
        cumulative = self._cumulative_accesses
        return int(cumulative[-1]) if len(cumulative) else 0

    def cache_mib_for_access_share(self, share: float) -> float:
        """RAM needed to hold the top fragments covering ``share`` of accesses.

        This is the paper's headline Fig. 10 question: how big a cache
        captures e.g. 90 % of fragment accesses?  A ``searchsorted`` over
        the precomputed cumulative counts finds the rank in O(log n).
        """
        import numpy as np

        if not 0.0 < share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {share}")
        total = self.total_accesses
        if total == 0:
            return 0.0
        target = share * total
        # First rank whose cumulative count reaches the target, confined to
        # the ranks that carry a cache size (the lists are equal-length for
        # every well-formed curve; min() mirrors the reference zip()).
        limit = min(len(self.access_counts), len(self.cumulative_mib))
        index = int(
            np.searchsorted(
                self._cumulative_accesses[:limit], target, side="left"
            )
        )
        return self.cumulative_mib[index]  # the last rank reaches the whole total


class FragmentPopularityRecorder:
    """Accumulate per-fragment access counts during a replay.

    Only fragments of *fragmented* reads are tracked — unfragmented reads
    neither suffer fragmentation seeks nor would be admitted by selective
    caching.  Defrag rewrites are ignored (they are writes).
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._sizes: Dict[int, int] = {}

    def observe(self, op_index: int, outcome: IOOutcome) -> None:
        if not outcome.request.is_read or not outcome.fragmented:
            return
        for access in outcome.accesses:
            if access.defrag:
                continue
            key = access.pba
            self._counts[key] = self._counts.get(key, 0) + 1
            # A later read may touch a longer stretch of the same physical
            # run; keep the largest observed size for the cache estimate.
            if access.length > self._sizes.get(key, 0):
                self._sizes[key] = access.length

    def fragment_stats(self) -> List[Tuple[int, int]]:
        """``(access_count, size_sectors)`` per fragment, insertion order.

        The raw material of :meth:`curve`, exposed so the vectorized
        builder (:func:`repro.analysis.fast.popularity_curve_fast`) can
        consume it; the iteration order is the tie-break order of the
        reference sort.
        """
        return [
            (count, self._sizes[pba]) for pba, count in self._counts.items()
        ]

    def curve(self) -> PopularityCurve:
        """Build the Fig. 10 sorted-popularity curve."""
        ranked: List[Tuple[int, int]] = sorted(
            ((count, self._sizes[pba]) for pba, count in self._counts.items()),
            key=lambda item: item[0],
            reverse=True,
        )
        counts = [count for count, _ in ranked]
        cumulative: List[float] = []
        running_sectors = 0
        for _, sectors in ranked:
            running_sectors += sectors
            cumulative.append(running_sectors * SECTOR_BYTES / BYTES_PER_MIB)
        return PopularityCurve(access_counts=counts, cumulative_mib=cumulative)
