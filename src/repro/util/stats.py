"""Streaming statistics helpers used by trace analysis and reporting.

Traces can run to millions of operations; these helpers accumulate summary
statistics in O(1) or O(#buckets) memory so the analysis layer never has to
hold a full per-operation log unless a recorder explicitly asks for one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


class OnlineStats:
    """Welford-style online mean/variance/min/max accumulator.

    >>> s = OnlineStats()
    >>> for x in (1.0, 2.0, 3.0):
    ...     s.add(x)
    >>> s.count, s.mean, round(s.variance, 6)
    (3, 2.0, 1.0)
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self._count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (Bessel-corrected); 0.0 with fewer than 2 points."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def min(self) -> float:
        if not self._count:
            raise ValueError("no observations")
        return self._min

    @property
    def max(self) -> float:
        if not self._count:
            raise ValueError("no observations")
        return self._max


@dataclass
class Histogram:
    """Fixed-bucket histogram over arbitrary integer keys.

    Keys are bucketed by ``key // bucket_width``.  Used for seek-distance
    distributions where exact per-distance counts would be unboundedly many.
    """

    bucket_width: int = 1
    _counts: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bucket_width <= 0:
            raise ValueError(f"bucket_width must be > 0, got {self.bucket_width}")

    def add(self, key: int, count: int = 1) -> None:
        bucket = key // self.bucket_width
        self._counts[bucket] = self._counts.get(bucket, 0) + count

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def items(self) -> List[Tuple[int, int]]:
        """Return ``(bucket_lower_bound, count)`` pairs sorted by bucket."""
        return [
            (bucket * self.bucket_width, count)
            for bucket, count in sorted(self._counts.items())
        ]

    def cdf(self) -> List[Tuple[int, float]]:
        """Return ``(bucket_lower_bound, cumulative_fraction)`` pairs."""
        total = self.total
        if total == 0:
            return []
        out: List[Tuple[int, float]] = []
        running = 0
        for lower, count in self.items():
            running += count
            out.append((lower, running / total))
        return out


def weighted_percentile(
    values: Sequence[float],
    weights: Sequence[float],
    fraction: float,
) -> float:
    """Return the smallest value whose cumulative weight reaches ``fraction``.

    ``values`` need not be sorted.  Used to answer questions like "what
    cache size captures 90 % of fragment accesses" (Fig. 10).

    >>> weighted_percentile([10, 20, 30], [1, 1, 2], 0.5)
    20
    """
    if not values:
        raise ValueError("values must be non-empty")
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    if total <= 0:
        raise ValueError("total weight must be > 0")
    target = fraction * total
    running = 0.0
    for value, weight in pairs:
        running += weight
        if running >= target:
            return value
    return pairs[-1][0]


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


def cdf_at(cdf: Sequence[Tuple[float, float]], x: float) -> float:
    """Evaluate a step CDF (as returned by :func:`empirical_cdf`) at ``x``."""
    if not cdf:
        return 0.0
    xs = [p[0] for p in cdf]
    idx = bisect_right(xs, x)
    if idx == 0:
        return 0.0
    return cdf[idx - 1][1]


def quantile_from_cdf(cdf: Sequence[Tuple[float, float]], q: float) -> float:
    """Return the smallest x with F(x) >= q from a step CDF."""
    if not cdf:
        raise ValueError("empty CDF")
    fs = [p[1] for p in cdf]
    idx = bisect_left(fs, q)
    if idx >= len(cdf):
        return cdf[-1][0]
    return cdf[idx][0]
