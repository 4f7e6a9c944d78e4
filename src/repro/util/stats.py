"""Empirical CDFs for trace analysis and reporting.

The analysis layer reports its distributions (fragments per read, seek
distances) as step CDFs: sorted ``(value, F(value))`` points.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def empirical_cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Return the empirical CDF of ``values`` as sorted (value, F(value)) pairs.

    Duplicate values collapse to one point carrying their joint mass.

    >>> empirical_cdf([1, 1, 3])
    [(1, 0.6666666666666666), (3, 1.0)]
    """
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    out: List[Tuple[float, float]] = []
    i = 0
    while i < n:
        j = i
        while j < n and ordered[j] == ordered[i]:
            j += 1
        out.append((ordered[i], j / n))
        i = j
    return out
