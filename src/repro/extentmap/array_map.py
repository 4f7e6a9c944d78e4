"""Array-backed two-level implementation of
:class:`~repro.extentmap.base.AddressMap`, engineered for the write path:
a write costs the rows it touches, not the size of the map.

* **Base level** — the bulk of the mapping as parallel int64 numpy columns
  ``(lba, pba, end)`` plus a gap-count prefix, in canonical form
  (LBA-sorted, non-overlapping, merge-maximal), held in amortized-doubling
  capacity buffers.  Lookups are ``searchsorted`` + a short walk and batch
  lookups vectorize completely.
* **Overlay level** — recent scalar overwrites in a small
  :class:`~repro.extentmap.extent_map.ExtentMap` (bounded by
  ``flush_threshold`` extents).  Resolution composes the levels: the
  overlay wins wherever it has a mapping; the base fills the rest;
  anything unmapped is a hole.

**One merge routine.**  :func:`_merge_over` lays sorted disjoint *upper*
rows over *lower* rows: lower rows are cut at upper boundaries, covered
pieces dropped, survivors rank-merged with the upper rows and contiguous
neighbours coalesced back to canonical form.  Both ways into the base use
it, on the base rows ``[i0, i1)`` that overlap *or abut* the incoming
rows' LBA hull only (abutting ones so coalescing across the boundary
stays exact); ``_splice_base`` then replaces those rows in place, moving
the tail behind them with one slice copy per column and offsetting its
gap prefix.  A merge is therefore O(hull rows + moved tail); the map's
size appears only in two binary searches.

* :meth:`flush` merges the overlay when it reaches ``flush_threshold``
  (or when a mostly-dirty read batch asks).  It is semantically invisible,
  so results are independent of the threshold.
* :meth:`map_range_batch` reduces a long write run to its net rows
  (:func:`_net_extents`: later rows win) and merges them directly, never
  touching the overlay — no per-row Python insert, no ``Extent`` objects.

**The guard.**  A direct merge pays ~0.4 ms of fixed numpy cost plus
~0.1 µs per hull row; the overlay route pays 2–4 µs per row plus that
run's share of a later flush.  So a run is merged directly only when it
has at least ``_RUN_MERGE_MIN_ROWS`` rows *and*
``hull_rows * (1 - rows/flush_threshold) <= _INSERTS_PER_MERGED_ROW * rows``.
Both constants are measured crossovers (565 k-row map, 1000-row runs
confined to one region: direct wins up to a hull of ~15 rows per run row;
at 256 rows and a hull no wider than the run the routes tie), not knobs.
The case the guard exists for: 1000-write batches spread uniformly over a
565 k-row map would re-merge the whole base per batch (unguarded: 67–98
µs/write); guarded they take the overlay route and cost what they did
before the hull restriction (25 µs/write), while 8192-write batches —
at or above the flush threshold — merge directly (11 vs 24 µs/write).
Scalar ``map_range`` and short runs stay row by row.

Every route is pinned to :class:`ExtentMap` bit for bit
(``tests/extentmap/test_array_map_write_path.py``,
``test_array_map_properties.py``, the differential suite): same
``extent_arrays()``, same tilings, same error at the same row with the
rows before it applied.  ``counters()`` exposes the level sizes and the
monotone work counters (flushes, reallocations, rows merged and moved,
direct run merges); ``realloc_count`` stays flat once the map's size
plateaus.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.extentmap.base import AddressMap, Segment
from repro.extentmap.extent_map import ExtentMap, validate_extent_rows
from repro.util.cells import cells, cover, unique

#: Overlay extents accumulated before a vectorized merge into the base.
#: Purely a performance knob: results are threshold-independent.  The
#: default balances overlay insert cost (grows with the threshold)
#: against flush frequency (shrinks with it).
DEFAULT_FLUSH_THRESHOLD = 4096

#: Batched lookups whose overlay-intersecting query count reaches this
#: bound flush first (one vectorized merge) instead of scalar-composing
#: each dirty query.  Read-heavy hot-data workloads hit the overlay with
#: nearly every read; below the bound the splice path is cheaper.
_FLUSH_ON_DIRTY_QUERIES = 24

#: Shortest write run ``map_range_batch`` nets and merges directly; below
#: it the fixed numpy cost of a merge (~0.4 ms) loses to ~2 µs per row
#: through the overlay.  Like the ratio below, measured, not tunable.
_RUN_MERGE_MIN_ROWS = 256

#: Overlay inserts one merged base row costs as much as: a run is merged
#: directly only while its hull stays under this many base rows per row
#: of the run (net of its share of the flush it would have caused).
_INSERTS_PER_MERGED_ROW = 10

_I8 = np.int64


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated — per-group aranges."""
    total = int(counts.sum())
    group_start = np.cumsum(counts) - counts
    return np.arange(total, dtype=_I8) - np.repeat(group_start, counts)


class ArrayExtentMap(AddressMap):
    """Two-level (numpy base + small overlay) sorted extent map.

    Drop-in interchangeable with :class:`ExtentMap`: identical overwrite
    semantics, identical ``lookup``/``lookup_pieces`` tilings and merge
    behaviour, identical :meth:`extent_arrays` exports for any operation
    sequence.  Additionally exposes vectorized batch entry points for the
    replay kernels.

    Args:
        flush_threshold: Overlay extent count that triggers a merge into
            the base level.  Any positive value yields identical results.
    """

    def __init__(self, flush_threshold: int = DEFAULT_FLUSH_THRESHOLD) -> None:
        if flush_threshold <= 0:
            raise ValueError(f"flush_threshold must be > 0, got {flush_threshold}")
        self._flush_threshold = flush_threshold
        self._n = 0
        self._capacity = 0
        self._lba = np.empty(0, dtype=_I8)
        self._pba = np.empty(0, dtype=_I8)
        self._end = np.empty(0, dtype=_I8)  # exclusive LBA end per row
        self._gap = np.empty(0, dtype=_I8)  # prefix count of inter-extent gaps
        self._overlay = ExtentMap()
        self._overlay_bounds_cache = None  # (starts, ends) arrays, or None
        #: Completed overlay→base merges (monotone; observability only).
        self.flush_count = 0
        #: Capacity-buffer reallocations (the perf tripwire asserts this
        #: stays flat at steady state — no per-call numpy reallocation).
        self.realloc_count = 0
        #: Base rows re-merged (the hulls), tail rows moved behind a splice,
        #: write runs merged without passing through the overlay.
        self.rows_merged = 0
        self.rows_moved = 0
        self.run_merges = 0

    def counters(self) -> Dict[str, int]:
        """Level sizes and the monotone work counters, read as they stand
        (no flush forced)."""
        return {
            "base_rows": self._n,
            "overlay_rows": len(self._overlay),
            "flush_count": self.flush_count,
            "realloc_count": self.realloc_count,
            "rows_merged": self.rows_merged,
            "rows_moved": self.rows_moved,
            "run_merges": self.run_merges,
        }

    # ------------------------------------------------------------------ #
    # AddressMap interface — scalar
    # ------------------------------------------------------------------ #

    def map_range(self, lba: int, pba: int, length: int) -> None:
        # Validation (and its exact messages) lives in the overlay's
        # map_range; steady-state cost is pure small-list work.
        self._overlay.map_range(lba, pba, length)
        self._overlay_bounds_cache = None
        if len(self._overlay) >= self._flush_threshold:
            self.flush()

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
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        end = lba + length
        pieces: List[Tuple[int, int, bool]] = []
        overlay = self._overlay
        if not len(overlay):
            self._base_pieces_scalar(pieces, lba, end)
            return pieces
        # Compose: overlay wins where mapped, base fills the gaps.  The
        # shared _push_piece merge rule makes the composed tiling equal
        # what a single merged map would emit.
        cursor = lba
        idx = overlay._first_overlap_index(lba)
        extents = overlay._extents
        n = len(extents)
        while cursor < end and idx < n:
            ext = extents[idx]
            ext_lba = ext.lba
            if ext_lba >= end:
                break
            if ext_lba > cursor:
                self._base_pieces_scalar(pieces, cursor, min(ext_lba, end))
                cursor = ext_lba
            piece_end = ext_lba + ext.length
            if piece_end > end:
                piece_end = end
            ExtentMap._push_piece(
                pieces, ext.pba + (cursor - ext_lba), piece_end - cursor, False
            )
            cursor = piece_end
            idx += 1
        if cursor < end:
            self._base_pieces_scalar(pieces, cursor, end)
        return pieces

    def mapped_extent_count(self) -> int:
        self.flush()
        return self._n

    def mapped_sector_count(self) -> int:
        self.flush()
        return int((self._end[: self._n] - self._lba[: self._n]).sum())

    # ------------------------------------------------------------------ #
    # Batch entry points (the replay kernels' hot calls)
    # ------------------------------------------------------------------ #

    def map_range_batch(
        self, lba: np.ndarray, pba: np.ndarray, length: np.ndarray
    ) -> None:
        """Apply many overwrites in order.

        Exactly equivalent to calling :meth:`map_range` per row (same
        results, same validation errors at the same row, rows before it
        applied).  A long run whose hull is narrow enough is reduced to
        its net canonical rows and merged into the base directly; short
        or widely scattered runs go row by row through the overlay.
        """
        rows = len(lba)
        threshold = self._flush_threshold
        # A run with an invalid row goes row by row: the loop applies the
        # rows before it and raises map_range's own error.
        if rows >= _RUN_MERGE_MIN_ROWS and not (
            (length <= 0) | (lba < 0) | (pba < 0)
        ).any():
            end = lba + length
            i0, i1 = self._hull(lba.min(), end.max())
            # Merging now costs the hull; the overlay route costs a Python
            # insert per row plus this run's share of the next flush.
            if (i1 - i0) * (threshold - rows) <= _INSERTS_PER_MERGED_ROW * rows * threshold:
                self.flush()
                self._merge_rows(*_net_extents(lba, pba, end))
                self.run_merges += 1
                return
        overlay_map_range = self._overlay.map_range
        overlay = self._overlay
        self._overlay_bounds_cache = None
        for row in zip(lba.tolist(), pba.tolist(), length.tolist()):
            overlay_map_range(*row)
            if len(overlay) >= threshold:
                self.flush()
                overlay = self._overlay
                overlay_map_range = overlay.map_range

    def lookup_pieces_batch(
        self, lba: np.ndarray, length: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve many reads at once.

        Returns ``(pba, piece_length, is_hole, offsets)`` where query
        ``q``'s pieces are rows ``offsets[q]:offsets[q+1]`` — exactly the
        triples :meth:`lookup_pieces` would return for that query against
        the current map state.  Queries not touching the overlay resolve
        fully vectorized against the base (one ``searchsorted`` per array,
        not per op); a handful of overlay-intersecting queries fall back
        to the scalar compose path and are spliced in, while a batch
        that is mostly dirty triggers a flush (semantically invisible)
        so the whole batch resolves against the merged base instead.
        """
        lba = np.ascontiguousarray(lba, dtype=_I8)
        length = np.ascontiguousarray(length, dtype=_I8)
        n_queries = len(lba)
        if n_queries == 0:
            return (
                np.empty(0, dtype=_I8),
                np.empty(0, dtype=_I8),
                np.empty(0, dtype=bool),
                np.zeros(1, dtype=_I8),
            )
        bad = length <= 0
        if bad.any():
            raise ValueError(
                f"length must be > 0, got {int(length[int(bad.argmax())])}"
            )
        ends = lba + length
        overlay = self._overlay
        hits = None
        if len(overlay):
            o_starts, o_ends = self._overlay_bounds()
            first_after = np.searchsorted(o_ends, lba, side="right")
            hits = (first_after < len(o_starts)) & (
                o_starts[np.minimum(first_after, len(o_starts) - 1)] < ends
            )
            n_dirty = int(np.count_nonzero(hits))
            if n_dirty >= _FLUSH_ON_DIRTY_QUERIES:
                # Scalar-composing this many queries costs more than one
                # vectorized merge of the overlay into the base.
                self.flush()
                hits = None
            elif n_dirty == 0:
                hits = None
        base = self._resolve_base_batch(lba, ends)
        if hits is None:
            return base
        return self._splice_overlay_hits(lba, length, base, hits)

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
        n = self._n
        return self._lba[:n].copy(), self._pba[:n].copy(), self._end[:n] - self._lba[:n]

    @classmethod
    def from_extent_arrays(cls, lba, pba, length) -> "ArrayExtentMap":
        """Rebuild a map from :meth:`extent_arrays` output in O(n).

        Rows must be LBA-sorted, non-overlapping, with positive lengths;
        they are installed directly (coalescing any mergeable neighbours
        back to canonical form, a no-op for exported arrays).
        """
        lba = np.ascontiguousarray(lba, dtype=_I8)
        pba = np.ascontiguousarray(pba, dtype=_I8)
        length = np.ascontiguousarray(length, dtype=_I8)
        validate_extent_rows(lba, length)
        instance = cls()
        if len(lba):
            instance._splice_base(0, 0, *_coalesce(lba, pba, lba + length))
        return instance

    def flush(self) -> None:
        """Merge the overlay into the base level (semantically invisible).

        Public so callers that are done writing (e.g. before a big batch
        of reads) can pay the merge at a moment of their choosing; never
        required for correctness.  Costs the base rows under the overlay's
        LBA hull plus the tail moved behind them, not the whole base.
        """
        if len(self._overlay) == 0:
            return
        o_lba, o_pba, o_len = self._overlay.extent_arrays()
        self._merge_rows(o_lba, o_pba, o_lba + o_len)
        self._overlay = ExtentMap()
        self._overlay_bounds_cache = None
        self.flush_count += 1

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _hull(self, start: int, end: int) -> Tuple[int, int]:
        """Base rows ``[i0, i1)`` overlapping *or abutting* ``[start, end)``
        — abutting ones included so boundary coalescing stays exact."""
        n = self._n
        return (
            int(np.searchsorted(self._end[:n], start, side="left")),
            int(np.searchsorted(self._lba[:n], end, side="right")),
        )

    def _merge_rows(self, lba: np.ndarray, pba: np.ndarray, end: np.ndarray) -> None:
        """Lay canonical disjoint rows over the base: only the base rows
        under their hull are re-cut, re-ranked and re-coalesced."""
        i0, i1 = self._hull(lba[0], end[-1])
        self.rows_merged += i1 - i0
        merged = _merge_over(
            self._lba[i0:i1], self._pba[i0:i1], self._end[i0:i1], lba, pba, end
        )
        self._splice_base(i0, i1, *merged)

    def _splice_base(
        self, i0: int, i1: int, lba: np.ndarray, pba: np.ndarray, end: np.ndarray
    ) -> None:
        """Replace base rows ``[i0, i1)`` with the given canonical rows inside
        the capacity buffers: the tail moves with one slice copy per column,
        the gap prefix is recounted over the new rows and offset behind
        them, and buffers are reallocated only on growth."""
        n = self._n
        at = i0 + len(lba)  # where the old tail [i1, n) lands
        new_n = at + n - i1
        columns = (self._lba, self._pba, self._end, self._gap)
        if new_n > self._capacity:
            self._capacity = max(1024, 1 << (new_n - 1).bit_length())
            grown = tuple(np.empty(self._capacity, dtype=_I8) for _ in columns)
            for fresh, old in zip(grown, columns):
                fresh[:i0] = old[:i0]
                fresh[at:new_n] = old[i1:n]
            self._lba, self._pba, self._end, self._gap = grown
            self.realloc_count += 1
        elif at != i1 and i1 < n:
            for column in columns:
                column[at:new_n] = column[i1:n]
            self.rows_moved += n - i1
        self._lba[i0:at] = lba
        self._pba[i0:at] = pba
        self._end[i0:at] = end
        self._n = new_n
        # gap[j] counts the holes between rows 0..j; rows i0..at changed
        # predecessor, everything behind them shifts by a constant.
        gap = self._gap
        if i0 == 0:
            gap[0] = 0
        lo, hi = max(i0, 1), min(at + 1, new_n)
        if lo < hi:
            stale = int(gap[hi - 1])  # the tail's first row still holds its old count
            np.cumsum(self._end[lo - 1 : hi - 1] != self._lba[lo:hi], out=gap[lo:hi])
            gap[lo:hi] += gap[lo - 1]
            shift = int(gap[hi - 1]) - stale
            if shift and hi < new_n:
                gap[hi:new_n] += shift

    def _overlay_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._overlay_bounds_cache
        if cached is None:
            starts = np.array(self._overlay._starts, dtype=_I8)
            lengths = np.fromiter(
                (ext.length for ext in self._overlay._extents),
                dtype=_I8,
                count=len(starts),
            )
            cached = self._overlay_bounds_cache = (starts, starts + lengths)
        return cached

    def _base_pieces_scalar(self, pieces: list, start: int, end: int) -> None:
        """Append base-level pieces tiling ``[start, end)`` (merging into
        ``pieces``'s tail per the shared push rule)."""
        push = ExtentMap._push_piece
        n = self._n
        if n == 0:
            push(pieces, start, end - start, True)
            return
        base_lba = self._lba
        idx = int(np.searchsorted(base_lba[:n], start, side="right")) - 1
        if idx < 0 or int(self._end[idx]) <= start:
            idx += 1
        cursor = start
        while cursor < end and idx < n:
            ext_lba = int(base_lba[idx])
            if ext_lba >= end:
                break
            if ext_lba > cursor:
                push(pieces, cursor, ext_lba - cursor, True)
                cursor = ext_lba
            piece_end = int(self._end[idx])
            if piece_end > end:
                piece_end = end
            push(
                pieces,
                int(self._pba[idx]) + (cursor - ext_lba),
                piece_end - cursor,
                False,
            )
            cursor = piece_end
            idx += 1
        if cursor < end:
            push(pieces, cursor, end - cursor, True)

    def _resolve_base_batch(self, lba: np.ndarray, ends: np.ndarray):
        """Vectorized base-only resolution of many queries.

        The base is canonical (merge-maximal), so the emitted pieces are
        already merge-final: adjacent mapped pieces from neighbouring
        extents are never physically contiguous, holes never merge with
        mapped pieces, and two holes are never adjacent.
        """
        n_queries = len(lba)
        offsets = np.empty(n_queries + 1, dtype=_I8)
        offsets[0] = 0
        n = self._n
        if n == 0:
            np.cumsum(np.ones(n_queries, dtype=_I8), out=offsets[1:])
            return lba.copy(), ends - lba, np.ones(n_queries, dtype=bool), offsets
        base_lba = self._lba[:n]
        base_pba = self._pba[:n]
        base_end = self._end[:n]
        gap_prefix = self._gap[:n]

        candidate = np.searchsorted(base_lba, lba, side="right") - 1
        contains = (candidate >= 0) & (base_end[np.maximum(candidate, 0)] > lba)
        first = np.where(contains, candidate, candidate + 1)
        stop = np.searchsorted(base_lba, ends, side="left")
        span = stop - first  # overlapping base extents per query
        has = span > 0
        first_c = np.minimum(first, n - 1)
        last_c = np.minimum(np.maximum(stop - 1, 0), n - 1)
        head_hole = has & (lba < base_lba[first_c])
        tail_start = np.where(has, np.maximum(lba, base_end[last_c]), lba)
        tail_len = ends - tail_start
        tail_hole = tail_len > 0  # covers the span==0 whole-query hole too
        interior = np.where(has, gap_prefix[last_c] - gap_prefix[first_c], 0)
        counts = span + head_hole + tail_hole + interior
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        out_pba = np.empty(total, dtype=_I8)
        out_len = np.empty(total, dtype=_I8)
        out_hole = np.zeros(total, dtype=bool)

        total_span = int(span[has].sum()) if has.any() else 0
        if total_span:
            query_id = np.repeat(np.arange(n_queries, dtype=_I8), span)
            ext = _ranges(span) + np.repeat(first, span)
            piece_lo = np.maximum(lba[query_id], base_lba[ext])
            piece_hi = np.minimum(ends[query_id], base_end[ext])
            position = (
                offsets[:-1][query_id]
                + head_hole[query_id]
                + (ext - first[query_id])
                + (gap_prefix[ext] - gap_prefix[first[query_id]])
            )
            out_pba[position] = base_pba[ext] + (piece_lo - base_lba[ext])
            out_len[position] = piece_hi - piece_lo
            # Interior holes sit immediately before their following extent
            # piece; their identity pba is the previous extent's end.
            inner = (ext > first[query_id]) & (
                base_end[np.maximum(ext - 1, 0)] != base_lba[ext]
            )
            if inner.any():
                hole_start = base_end[ext[inner] - 1]
                hole_pos = position[inner] - 1
                out_pba[hole_pos] = hole_start
                out_len[hole_pos] = base_lba[ext[inner]] - hole_start
                out_hole[hole_pos] = True
        heads = np.flatnonzero(head_hole)
        if heads.size:
            head_pos = offsets[:-1][heads]
            out_pba[head_pos] = lba[heads]
            out_len[head_pos] = base_lba[first[heads]] - lba[heads]
            out_hole[head_pos] = True
        tails = np.flatnonzero(tail_hole)
        if tails.size:
            tail_pos = offsets[1:][tails] - 1
            out_pba[tail_pos] = tail_start[tails]
            out_len[tail_pos] = tail_len[tails]
            out_hole[tail_pos] = True
        return out_pba, out_len, out_hole, offsets

    def _splice_overlay_hits(
        self, lba: np.ndarray, length: np.ndarray, base, hits: np.ndarray
    ):
        """Replace base-only results with scalar-composed ones for the
        queries that intersect the overlay, keeping flat-array form."""
        base_pba, base_len, base_hole, base_off = base
        base_counts = np.diff(base_off)
        hit_ids = np.flatnonzero(hits)
        composed = [
            self.lookup_pieces(int(lba[q]), int(length[q])) for q in hit_ids
        ]
        counts = base_counts.copy()
        counts[hit_ids] = [len(p) for p in composed]
        n_queries = len(lba)
        offsets = np.empty(n_queries + 1, dtype=_I8)
        offsets[0] = 0
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        out_pba = np.empty(total, dtype=_I8)
        out_len = np.empty(total, dtype=_I8)
        out_hole = np.empty(total, dtype=bool)
        keep = ~hits
        if keep.any():
            kept_counts = base_counts[keep]
            src = np.repeat(base_off[:-1][keep], kept_counts) + _ranges(kept_counts)
            dst = np.repeat(offsets[:-1][keep], kept_counts) + _ranges(kept_counts)
            out_pba[dst] = base_pba[src]
            out_len[dst] = base_len[src]
            out_hole[dst] = base_hole[src]
        offset_list = offsets.tolist()
        for q, pieces in zip(hit_ids.tolist(), composed):
            at = offset_list[q]
            stop = at + len(pieces)
            piece_pba, piece_len, piece_hole = zip(*pieces)
            out_pba[at:stop] = piece_pba
            out_len[at:stop] = piece_len
            out_hole[at:stop] = piece_hole
        return out_pba, out_len, out_hole, offsets


def _merge_over(l_lba, l_pba, l_end, u_lba, u_pba, u_end):
    """Canonical rows of the mapping ``upper`` laid over ``lower`` (both
    LBA-sorted and disjoint; ``upper`` wins where they overlap)."""
    n = len(l_lba)
    if n == 0:
        return _coalesce(u_lba, u_pba, u_end)
    # 1. Cut lower rows at upper boundaries so every piece is either
    # fully covered by an upper row or fully clear of them all.
    cuts = unique(np.concatenate((u_lba, u_end)))
    lo = np.searchsorted(cuts, l_lba, side="right")
    hi = np.searchsorted(cuts, l_end, side="left")
    inner = hi - lo
    counts = inner + 1
    offsets = np.empty(n + 1, dtype=_I8)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    piece_start = np.empty(total, dtype=_I8)
    piece_start[offsets[:-1]] = l_lba
    if total > n:
        src = np.repeat(lo, inner) + _ranges(inner)
        dst = np.repeat(offsets[:-1] + 1, inner) + _ranges(inner)
        piece_start[dst] = cuts[src]
    piece_end = np.empty(total, dtype=_I8)
    piece_end[: total - 1] = piece_start[1:]
    piece_end[offsets[1:] - 1] = l_end
    row = np.repeat(np.arange(n, dtype=_I8), counts)
    piece_pba = l_pba[row] + (piece_start - l_lba[row])
    # 2. Drop pieces an upper row overwrites (a piece never crosses an
    # upper boundary, so containment of its start suffices).
    containing = np.searchsorted(u_lba, piece_start, side="right") - 1
    keep = (containing < 0) | (u_end[np.maximum(containing, 0)] <= piece_start)
    kept_start = piece_start[keep]
    # 3. Rank-merge survivors with the upper rows (both sorted, mutually
    # disjoint — no ties possible): upper rows land at their rank, the
    # survivors fill the rest in order.
    at_upper = np.arange(len(u_lba), dtype=_I8) + np.searchsorted(kept_start, u_lba)
    from_lower = np.ones(len(kept_start) + len(u_lba), dtype=bool)
    from_lower[at_upper] = False
    merged = []
    for kept, upper in ((kept_start, u_lba), (piece_pba[keep], u_pba), (piece_end[keep], u_end)):
        column = np.empty(len(from_lower), dtype=_I8)
        column[from_lower] = kept
        column[at_upper] = upper
        merged.append(column)
    # 4. Coalesce back to canonical (merge-maximal) form.
    return _coalesce(*merged)


def _net_extents(lba: np.ndarray, pba: np.ndarray, end: np.ndarray):
    """What a run of overwrites applied in order leaves mapped, as
    canonical disjoint rows (later rows win)."""
    order = np.argsort(lba, kind="stable")
    s_lba, s_end = lba[order], end[order]
    if (s_lba[1:] >= s_end[:-1]).all():  # pairwise disjoint: order is moot
        return _coalesce(s_lba, pba[order], s_end)
    # Each elementary cell belongs to the last row covering it.
    cuts, first, last = cells(lba, end)
    winner = cover(first, last, len(cuts) - 1, np.maximum, -1)
    cell = np.flatnonzero(winner >= 0)
    won = winner[cell]
    start = cuts[cell]
    return _coalesce(start, pba[won] + (start - lba[won]), cuts[cell + 1])


def _coalesce(lba: np.ndarray, pba: np.ndarray, end: np.ndarray):
    """Merge adjacent rows that are both logically and physically
    contiguous (canonical merge-maximal form).  Inputs sorted, disjoint."""
    n = len(lba)
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.logical_or(
        lba[1:] != end[:-1],
        pba[1:] != pba[:-1] + (end[:-1] - lba[:-1]),
        out=breaks[1:],
    )
    starts = np.flatnonzero(breaks)
    run_end = end[np.append(starts[1:], n) - 1]
    return lba[starts], pba[starts], run_end
