"""Dynamic-fragmentation analysis (paper §IV-A, Fig. 5).

*Static* fragmentation is the extent count of the address map — the seeks
a full sequential scan of the LBA space would pay (its
``mapped_extent_count()``).  *Dynamic*
fragmentation is per read: how many physical pieces one read touches.
Fig. 5 shows that dynamic fragments concentrate heavily — for usr_0, hm_1
and w20, over half of all fragments occur in ~20 % of the fragmented
reads — which is what makes opportunistic defragmentation cheap relative
to full address-space defragmentation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.util.stats import empirical_cdf


def fragment_cdf(read_fragments: Sequence[int]) -> List[Tuple[float, float]]:
    """CDF of per-read fragment counts over *fragmented* reads only.

    Args:
        read_fragments: Fragment count of each read (any reads with a
            single fragment are ignored, as in Fig. 5).
    """
    fragmented = [f for f in read_fragments if f > 1]
    return [(float(x), y) for x, y in empirical_cdf(fragmented)]


def fragment_concentration(
    read_fragments: Sequence[int],
) -> List[Tuple[float, float]]:
    """Concentration (Lorenz-style) curve of fragments across reads.

    Sorts fragmented reads from most- to least-fragmented and returns
    ``(fraction_of_reads, fraction_of_fragments)`` points: how large a
    share of all fragments is held by the top x fraction of reads.
    """
    fragmented = sorted((f for f in read_fragments if f > 1), reverse=True)
    if not fragmented:
        return []
    total = sum(fragmented)
    n = len(fragmented)
    points: List[Tuple[float, float]] = []
    running = 0
    for i, f in enumerate(fragmented, start=1):
        running += f
        points.append((i / n, running / total))
    return points


def fraction_of_fragments_in_top_reads(
    read_fragments: Sequence[int],
    top_fraction: float = 0.2,
) -> float:
    """Share of all fragments held by the most-fragmented ``top_fraction``
    of fragmented reads (the paper's "half the fragments in ~20 % of the
    operations" statistic)."""
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
    curve = fragment_concentration(read_fragments)
    if not curve:
        return 0.0
    for frac_reads, frac_fragments in curve:
        if frac_reads >= top_fraction:
            return frac_fragments
    return 1.0
