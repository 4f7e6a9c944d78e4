"""Elementary cells of integer ranges, and range min/max over them.

The boundaries of rows ``[start[i], end[i])`` cut the line into cells that
every row covers whole or not at all.  The workload characterisation
reduces row indices over those cells to find the *first* write to each
4 KiB block, in O(rows log rows) time and O(rows) scratch — never the
length of the ranges.
"""

from __future__ import annotations

import numpy as np


def unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-D array by sort and compare: numpy 2.x
    answers a bare ``np.unique`` from a hash table, over 10x slower on int64."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def cells(start: np.ndarray, end: np.ndarray):
    """``(cuts, first, last)``: the sorted distinct boundaries, and per row
    the cells ``[first[i], last[i])`` it covers (cell ``k`` is
    ``[cuts[k], cuts[k + 1])``)."""
    cuts = unique(np.concatenate((start, end)))
    return cuts, np.searchsorted(cuts, start), np.searchsorted(cuts, end)


def cover(first: np.ndarray, last: np.ndarray, n_cells: int, empty: int):
    """Per cell, the least index of the rows covering it, ``empty`` where
    none does (every row covers at least one cell).

    A row of span ``s`` is laid down as two blocks of ``2**floor(log2 s)``
    cells at that level of a sparse table, then each level is pushed down
    into the next one at a time.
    """
    level = np.frexp(last - first)[1] - 1
    out = np.full(n_cells, empty, dtype=np.int64)
    for lv in range(int(level.max(initial=-1)), -1, -1):
        rows = np.flatnonzero(level == lv)
        np.minimum.at(out, first[rows], rows)
        np.minimum.at(out, last[rows] - (1 << lv), rows)
        if lv:
            half = 1 << (lv - 1)
            np.minimum(out[half:], out[:-half], out=out[half:])
    return out


def range_min_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``(min, max)`` of ``values[lo[i]:hi[i]]`` per query (every
    ``hi > lo``): a sparse table built one level at a time, each query
    answered at its level by two overlapping blocks."""
    level = np.frexp(hi - lo)[1] - 1
    low = np.empty(len(lo), dtype=values.dtype)
    high = np.empty(len(lo), dtype=values.dtype)
    table_min = table_max = values
    for lv in range(int(level.max(initial=-1)) + 1):
        if lv:
            half = 1 << (lv - 1)
            table_min = np.minimum(table_min[:-half], table_min[half:])
            table_max = np.maximum(table_max[:-half], table_max[half:])
        queries = np.flatnonzero(level == lv)
        left, right = lo[queries], hi[queries] - (1 << lv)
        low[queries] = np.minimum(table_min[left], table_min[right])
        high[queries] = np.maximum(table_max[left], table_max[right])
    return low, high
