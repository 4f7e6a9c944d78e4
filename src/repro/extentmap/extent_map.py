"""Sorted-extent implementation of :class:`~repro.extentmap.base.AddressMap`.

The map holds non-overlapping extents sorted by LBA, with a parallel list of
start addresses for binary search.  Lookups are O(log n + k) for k result
segments; overwrites are O(log n + k) extent operations plus the O(n)
memmove cost of Python list insertion/deletion, which is fast at trace scale
(the constant is a C memmove of pointer arrays).

Memory scales with the number of extents — i.e. with the *fragmentation* of
the logical space — which is exactly the quantity the paper studies.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Tuple

from repro.extentmap.base import AddressMap, Segment
from repro.extentmap.extent import Extent


def validate_extent_rows(lba, length) -> None:
    """Validate ``from_extent_arrays`` rows (shared across map tiers):
    strictly positive lengths, LBA-sorted, non-overlapping."""
    if len(lba) == 0:
        return
    bad = length <= 0
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(
            f"extent rows must have length > 0; row {row} has "
            f"length {int(length[row])}"
        )
    previous_end = lba[:-1] + length[:-1]
    overlap = lba[1:] < previous_end
    if overlap.any():
        row = int(overlap.argmax())
        raise ValueError(
            f"extent rows must be LBA-sorted and non-overlapping; "
            f"extent at lba={int(lba[row + 1])} overlaps previous end "
            f"{int(previous_end[row])}"
        )


class ExtentMap(AddressMap):
    """Sorted non-overlapping extent map with split/trim overwrite semantics."""

    def __init__(self) -> None:
        self._extents: List[Extent] = []
        self._starts: List[int] = []

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        """Iterate extents in LBA order (do not mutate while iterating)."""
        return iter(self._extents)

    def __repr__(self) -> str:
        return f"ExtentMap(n_extents={len(self._extents)})"

    # ------------------------------------------------------------------ #
    # AddressMap interface
    # ------------------------------------------------------------------ #

    def map_range(self, lba: int, pba: int, length: int) -> None:
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        if lba < 0 or pba < 0:
            raise ValueError(f"addresses must be >= 0, got lba={lba} pba={pba}")
        end = lba + length
        idx = self._first_overlap_index(lba)

        # Carve out everything the new range overlaps.
        while idx < len(self._extents):
            ext = self._extents[idx]
            if ext.lba >= end:
                break
            if ext.lba < lba and ext.lba_end > end:
                # New range splits this extent in the middle: keep the front
                # in place, insert the surviving tail after the new extent.
                tail_len = ext.lba_end - end
                tail = Extent(end, ext.pba + (end - ext.lba), tail_len)
                ext.trim_back(ext.lba_end - lba)
                self._insert_at(idx + 1, tail)
                idx += 1
                break
            if ext.lba < lba:
                # Front of the extent survives.
                ext.trim_back(ext.lba_end - lba)
                idx += 1
            elif ext.lba_end > end:
                # Back of the extent survives.
                ext.trim_front(end - ext.lba)
                self._starts[idx] = ext.lba
                break
            else:
                # Fully covered: drop it.
                self._delete_at(idx)

        self._insert_merged(Extent(lba, pba, length))

    def lookup(self, lba: int, length: int) -> List[Segment]:
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        end = lba + length
        segments: List[Segment] = []
        cursor = lba
        idx = self._first_overlap_index(lba)
        while cursor < end and idx < len(self._extents):
            ext = self._extents[idx]
            if ext.lba >= end:
                break
            if ext.lba > cursor:
                segments.append(Segment(cursor, None, ext.lba - cursor))
                cursor = ext.lba
            piece_end = min(ext.lba_end, end)
            segments.append(Segment(cursor, ext.pba_for(cursor), piece_end - cursor))
            cursor = piece_end
            idx += 1
        if cursor < end:
            segments.append(Segment(cursor, None, end - cursor))
        return segments

    def lookup_pieces(self, lba: int, length: int) -> List[Tuple[int, int, bool]]:
        """Allocation-free override of :meth:`AddressMap.lookup_pieces`.

        Emits ``(pba, length, is_hole)`` tuples directly from the extent
        list — no :class:`Segment` construction — with the exact tiling
        and merge behaviour of :meth:`lookup`.  Within one resolution the
        pieces are always logically contiguous, so the :meth:`lookup`
        merge rule reduces to: same kind, and (for mapped pieces)
        physically contiguous; logically adjacent holes are identity-
        placed and therefore always physically contiguous too.
        """
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        end = lba + length
        pieces: List[Tuple[int, int, bool]] = []
        cursor = lba
        idx = self._first_overlap_index(lba)
        extents = self._extents
        n = len(extents)
        while cursor < end and idx < n:
            ext = extents[idx]
            ext_lba = ext.lba
            if ext_lba >= end:
                break
            if ext_lba > cursor:
                self._push_piece(pieces, cursor, ext_lba - cursor, True)
                cursor = ext_lba
            piece_end = ext_lba + ext.length
            if piece_end > end:
                piece_end = end
            self._push_piece(
                pieces, ext.pba + (cursor - ext_lba), piece_end - cursor, False
            )
            cursor = piece_end
            idx += 1
        if cursor < end:
            self._push_piece(pieces, cursor, end - cursor, True)
        return pieces

    def mapped_extent_count(self) -> int:
        return len(self._extents)

    def mapped_sector_count(self) -> int:
        return sum(ext.length for ext in self._extents)

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #

    def extent_arrays(self):
        """The full map as three int64 arrays ``(lba, pba, length)``.

        Rows are in LBA order — the map's canonical form — so two maps
        with identical mappings export identical arrays.  This is the
        serialization used by service checkpoints
        (:mod:`repro.service.checkpoint`).

        One C-level ``fromiter`` pass over a flattened generator plus
        three strided copies, instead of a per-extent Python loop of
        array-item stores.
        """
        import numpy as np

        n = len(self._extents)
        flat = np.fromiter(
            (
                value
                for ext in self._extents
                for value in (ext.lba, ext.pba, ext.length)
            ),
            dtype=np.int64,
            count=3 * n,
        )
        return (
            np.ascontiguousarray(flat[0::3]),
            np.ascontiguousarray(flat[1::3]),
            np.ascontiguousarray(flat[2::3]),
        )

    @classmethod
    def from_extent_arrays(cls, lba, pba, length) -> "ExtentMap":
        """Rebuild a map from :meth:`extent_arrays` output.

        The rows must be sorted by LBA, non-overlapping, with strictly
        positive lengths (always true of exported arrays); they are
        installed directly, bypassing the overwrite logic, so restore is
        O(n).  A zero/negative-length row would silently corrupt later
        bisect lookups, so it is rejected up front.
        """
        import numpy as np

        instance = cls()
        lba, pba, length = (np.asarray(col, dtype=np.int64) for col in (lba, pba, length))
        validate_extent_rows(lba, length)
        extents = [
            Extent(row_lba, row_pba, row_length)
            for row_lba, row_pba, row_length in zip(
                lba.tolist(), pba.tolist(), length.tolist()
            )
        ]
        instance._extents = extents
        instance._starts = [ext.lba for ext in extents]
        return instance

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _first_overlap_index(self, lba: int) -> int:
        """Index of the first extent whose range could overlap ``lba``-onward."""
        idx = bisect_right(self._starts, lba)
        if idx > 0 and self._extents[idx - 1].lba_end > lba:
            return idx - 1
        return idx

    def _insert_at(self, idx: int, extent: Extent) -> None:
        self._extents.insert(idx, extent)
        self._starts.insert(idx, extent.lba)

    def _delete_at(self, idx: int) -> None:
        del self._extents[idx]
        del self._starts[idx]

    def _insert_merged(self, extent: Extent) -> None:
        """Insert ``extent`` (range already clear) merging contiguous neighbours.

        A merge requires both logical and physical contiguity, so a merged
        extent still describes one seek-free run on the platter.
        """
        idx = bisect_right(self._starts, extent.lba)
        if idx > 0:
            prev = self._extents[idx - 1]
            if prev.lba_end == extent.lba and prev.pba_end == extent.pba:
                prev.length += extent.length
                extent = prev
                idx -= 1
            else:
                self._insert_at(idx, extent)
        else:
            self._insert_at(idx, extent)
        nxt_idx = idx + 1
        if nxt_idx < len(self._extents):
            nxt = self._extents[nxt_idx]
            if extent.lba_end == nxt.lba and extent.pba_end == nxt.pba:
                extent.length += nxt.length
                self._delete_at(nxt_idx)

    @staticmethod
    def _push_piece(
        pieces: List[Tuple[int, int, bool]], pba: int, length: int, hole: bool
    ) -> None:
        """Append a piece, merging with the previous one per the
        :meth:`lookup` rule (same kind + physical contiguity)."""
        if pieces:
            last_pba, last_length, last_hole = pieces[-1]
            if last_hole == hole and last_pba + last_length == pba:
                pieces[-1] = (last_pba, last_length + length, hole)
                return
        pieces.append((pba, length, hole))
