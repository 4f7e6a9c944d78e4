"""Compiled two-level implementation of
:class:`~repro.extentmap.base.AddressMap`, engineered for the write path:
a write costs the rows it touches, not the size of the map.

Both levels live in ``core/_fragment_policy.c`` (built and loaded by
:mod:`repro.util.native`) as canonical ``(lba, end, pba)`` rows — LBA-sorted,
disjoint, merge-maximal:

* **Base level** — the bulk of the mapping, in a buffer that grows by
  doubling.
* **Overlay level** — recent writes, fewer than ``flush_threshold`` rows.
  Resolution composes the levels: the overlay wins wherever it has a
  mapping; the base fills the rest; anything unmapped is a hole.

**One merge routine.**  ``merge_over`` lays sorted disjoint *upper* rows
over *lower* rows in one linear pass: lower rows are cut at upper
boundaries, covered pieces dropped and contiguous neighbours joined.  A
level takes rows through ``splice``, which merges only its rows under the
incoming rows' LBA hull (abutting ones included, so joins at the edges stay
exact) and moves the rows behind them once.  A write run is first netted
with the same routine — its later half laid over its earlier half,
recursively (O(k log k); an LBA-sorted disjoint run is only joined) — then
laid over the overlay; a run that would fill the overlay goes to the base
together with it, in one merge.  :meth:`flush` merges the overlay when it
reaches ``flush_threshold`` (or when asked); it is semantically invisible,
so results are independent of the threshold.

Reads resolve in one compiled loop (``em_resolve``): the overlay laid over
the base, pieces joined by :meth:`ExtentMap._push_piece`'s rule.  Scalar
:meth:`map_range` and :meth:`lookup_pieces` are batches of one, laid out in
a ctypes array rather than numpy's.

Every route is pinned to :class:`ExtentMap` bit for bit
(``tests/extentmap/test_array_map_write_path.py``,
``test_array_map_properties.py``, the differential suite): same
``extent_arrays()``, same tilings, same error at the same row with the
rows before it applied.  ``counters()`` exposes the level sizes and the
monotone work counters (merges into the base, reallocations, base rows
merged and moved, runs merged into the base without settling in the
overlay); ``realloc_count`` stays flat once the map's size plateaus.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.extentmap.base import AddressMap, Segment
from repro.extentmap.extent_map import validate_extent_rows
from repro.util.native import LIBRARY as _LIBRARY

#: Overlay rows accumulated before a merge into the base.  Purely a
#: performance constant: results are threshold-independent.  An overlay
#: write costs a move of the overlay rows behind it, a merge the base rows
#: under the overlay's hull (docs/PERFORMANCE.md Layer 5).
DEFAULT_FLUSH_THRESHOLD = 4096

_I8 = np.int64
#: The C map's leading int64 words (``Amap``): counters, then the levels.
_WORDS = ("threshold", "flush_count", "realloc_count", "rows_merged", "rows_moved",
          "run_merges", "base_rows", "base_capacity", "base_row", "overlay_rows")
_COUNTERS = ("base_rows", "overlay_rows", "flush_count", "realloc_count",
             "rows_merged", "rows_moved", "run_merges")
_ROW = ctypes.c_int64 * 3  # a scalar write's lba, pba and length

_WORK = ctypes.POINTER(ctypes.c_int64)
_LIBRARY.em_new.restype = ctypes.c_void_p
_LIBRARY.em_new.argtypes = (ctypes.c_int64,)
_LIBRARY.em_free.argtypes = (ctypes.c_void_p,)
_LIBRARY.em_flush.restype = ctypes.c_int64
_LIBRARY.em_flush.argtypes = (ctypes.c_void_p,)
_LIBRARY.em_write.restype = ctypes.c_int64
_LIBRARY.em_write.argtypes = (ctypes.c_void_p, _WORK, ctypes.c_int64)
_LIBRARY.em_resolve.restype = ctypes.c_int64
_LIBRARY.em_resolve.argtypes = (ctypes.c_void_p, _WORK, *[ctypes.c_int64] * 2)
_LIBRARY.em_export.argtypes = (ctypes.c_void_p, _WORK)


def _work(words: int, *columns) -> np.ndarray:
    """A fresh int64 work array of ``words`` words (one at least, so that it
    has an address), led by ``columns`` (all of one length, else
    ``ValueError``)."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(
            f"columns differ in length: {', '.join(str(len(c)) for c in columns)}")
    work = np.empty(words or 1, dtype=_I8)
    for i, column in enumerate(columns):
        work[i * len(column) : (i + 1) * len(column)] = column
    return work


def _address(work: np.ndarray) -> ctypes.c_int64:
    """``work``'s first word, which a compiled call takes as its address."""
    return ctypes.c_int64.from_buffer(work)


class ArrayExtentMap(AddressMap):
    """Two-level (base + small overlay) sorted extent map, compiled.

    Drop-in interchangeable with :class:`ExtentMap`: identical overwrite
    semantics, identical ``lookup``/``lookup_pieces`` tilings and merge
    behaviour, identical :meth:`extent_arrays` exports for any operation
    sequence.  Additionally exposes batch entry points for the replay
    kernels.

    Args:
        flush_threshold: Overlay row count that triggers a merge into the
            base level.  Any positive value yields identical results.
    """

    def __init__(self, flush_threshold: int = DEFAULT_FLUSH_THRESHOLD) -> None:
        if flush_threshold <= 0:
            raise ValueError(f"flush_threshold must be > 0, got {flush_threshold}")
        self._map = _LIBRARY.em_new(flush_threshold)
        if not self._map:
            raise MemoryError("extent map")
        weakref.finalize(self, _LIBRARY.em_free, self._map)
        self._words = (ctypes.c_int64 * len(_WORDS)).from_address(self._map)

    def __reduce__(self):
        # A copy or a pickle is a new map over the same rows: the compiled
        # levels belong to this object, which frees them.
        return type(self).from_extent_arrays, self.extent_arrays()

    def _word(self, name: str) -> int:
        return self._words[_WORDS.index(name)]

    @property
    def flush_count(self) -> int:
        """Merges into the base (monotone; observability only)."""
        return self._word("flush_count")

    @property
    def realloc_count(self) -> int:
        """Base capacity reallocations (the perf tripwire asserts this stays
        flat at steady state)."""
        return self._word("realloc_count")

    def counters(self) -> Dict[str, int]:
        """Level sizes and the monotone work counters, read as they stand
        (no flush forced)."""
        return {name: self._word(name) for name in _COUNTERS}

    # ------------------------------------------------------------------ #
    # AddressMap interface — scalar
    # ------------------------------------------------------------------ #

    def map_range(self, lba: int, pba: int, length: int) -> None:
        self._write(_ROW(lba, pba, length), 1)

    def lookup(self, lba: int, length: int) -> List[Segment]:
        # lookup_pieces carries the full tiling; holes resolve to
        # identity placement there, so the merge rules coincide and the
        # Segment list reconstructs exactly (cursor walk).
        segments: List[Segment] = []
        cursor = lba
        for pba, piece_length, hole in self.lookup_pieces(lba, length):
            segments.append(Segment(cursor, None if hole else pba, piece_length))
            cursor += piece_length
        return segments

    def lookup_pieces(self, lba: int, length: int) -> List[Tuple[int, int, bool]]:
        # lookup_pieces_batch's layout for one query, in a ctypes array:
        # a numpy work array would cost more than the compiled call.
        capacity = 8
        while True:
            work = (ctypes.c_int64 * (4 + 3 * capacity))(lba, length)
            if _LIBRARY.em_resolve(self._map, work, 1, capacity):
                break
            if length <= 0:
                raise ValueError(f"length must be > 0, got {length}")
            capacity *= 8
        pieces = work[3]
        pba, size, hole = (work[4 + k * capacity : 4 + k * capacity + pieces] for k in range(3))
        return list(zip(pba, size, map(bool, hole)))

    def mapped_extent_count(self) -> int:
        self.flush()
        return self._word("base_rows")

    def mapped_sector_count(self) -> int:
        return int(self.extent_arrays()[2].sum())

    # ------------------------------------------------------------------ #
    # Batch entry points (the replay kernels' hot calls)
    # ------------------------------------------------------------------ #

    def map_range_batch(self, lba, pba, length) -> None:
        """Apply many overwrites in order.

        Exactly equivalent to calling :meth:`map_range` per row (same
        results, same validation errors at the same row, rows before it
        applied): the run is netted and merged in one compiled call.
        Columns of unequal length raise ``ValueError``.
        """
        rows = len(lba)
        self._write(_address(_work(3 * rows, lba, pba, length)), rows)

    def _write(self, work, rows: int) -> None:
        """``em_write`` on ``rows`` rows laid out in ``work``; raises
        :meth:`ExtentMap.map_range`'s error for the first invalid row."""
        applied = _LIBRARY.em_write(self._map, work, rows)
        if applied < 0:
            raise MemoryError("extent map")
        if applied < rows:
            words = ctypes.cast(ctypes.byref(work), _WORK)
            lba, pba, length = (int(words[applied + k * rows]) for k in range(3))
            if length <= 0:
                raise ValueError(f"length must be > 0, got {length}")
            raise ValueError(f"addresses must be >= 0, got lba={lba} pba={pba}")

    def lookup_pieces_batch(
        self, lba, length
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve many reads at once.

        Returns ``(pba, piece_length, is_hole, offsets)`` where query
        ``q``'s pieces are rows ``offsets[q]:offsets[q+1]`` — exactly the
        triples :meth:`lookup_pieces` would return for that query against
        the current map state — from one compiled loop over both levels.
        Columns of unequal length raise ``ValueError``.
        """
        n = len(lba)
        capacity = 2 * n + 16  # pieces; most reads are one
        while True:
            work = _work(3 * n + 1 + 3 * capacity, lba, length)
            done = _LIBRARY.em_resolve(self._map, _address(work), n, capacity)
            if done == n:
                break
            if work[n + done] <= 0:
                raise ValueError(f"length must be > 0, got {int(work[n + done])}")
            capacity *= 4  # the pieces did not fit: resolve again
        pieces, at = int(work[3 * n]), 3 * n + 1
        pba, piece_length, hole = (work[at + k * capacity : at + k * capacity + pieces]
                                   for k in range(3))
        return pba, piece_length, hole.astype(bool), work[2 * n : at]

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #

    def extent_arrays(self):
        """The full map as three int64 arrays ``(lba, pba, length)``.

        Canonical form (LBA-sorted, merge-maximal) — identical mappings
        export identical arrays, byte for byte the same as
        :meth:`ExtentMap.extent_arrays` after the same operations.
        """
        self.flush()
        n = self._word("base_rows")
        work = _work(3 * n)
        _LIBRARY.em_export(self._map, _address(work))
        return work[:n], work[n : 2 * n], work[2 * n : 3 * n]

    @classmethod
    def from_extent_arrays(cls, lba, pba, length) -> "ArrayExtentMap":
        """Rebuild a map from :meth:`extent_arrays` output in O(n).

        Rows must be LBA-sorted, non-overlapping, with positive lengths;
        they are installed in the base as one run (joining any mergeable
        neighbours back to canonical form, a no-op for exported arrays).
        """
        lba, pba, length = (np.asarray(column, dtype=_I8) for column in (lba, pba, length))
        validate_extent_rows(lba, length)
        instance = cls()
        instance.map_range_batch(lba, pba, length)
        instance.flush()
        return instance

    def flush(self) -> None:
        """Merge the overlay into the base level (semantically invisible).

        Public so callers that are done writing (e.g. before a big batch
        of reads) can pay the merge at a moment of their choosing; never
        required for correctness.  Costs the base rows under the overlay's
        LBA hull plus the rows moved behind them, not the whole base.
        """
        if _LIBRARY.em_flush(self._map) < 0:
            raise MemoryError("extent map")
