"""Shared types and the abstract interface for address maps."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Segment:
    """A physically contiguous piece of a logical range, as resolved by a map.

    Attributes:
        lba: First logical sector of the piece.
        pba: First physical sector holding it, or ``None`` for a *hole* —
            a logical range never written during the simulation.  The
            log-structured translator resolves holes with the paper's
            "unwritten data resides at PBA = LBA" rule.
        length: Sector count (positive).
    """

    lba: int
    pba: Optional[int]
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"segment length must be > 0, got {self.length}")
        if self.lba < 0:
            raise ValueError(f"segment lba must be >= 0, got {self.lba}")
        if self.pba is not None and self.pba < 0:
            raise ValueError(f"segment pba must be >= 0, got {self.pba}")

    @property
    def is_hole(self) -> bool:
        return self.pba is None


class AddressMap(abc.ABC):
    """Abstract LBA-to-PBA map with overwrite semantics.

    Implementations maintain the invariant that each logical sector maps to
    at most one physical sector; mapping a range atomically unmaps whatever
    previously covered it (the old physical sectors become garbage, which
    the infinite-disk model never reclaims).
    """

    @abc.abstractmethod
    def map_range(self, lba: int, pba: int, length: int) -> None:
        """Map ``[lba, lba+length)`` to ``[pba, pba+length)``, replacing any
        previous mapping of those logical sectors."""

    @abc.abstractmethod
    def lookup(self, lba: int, length: int) -> List[Segment]:
        """Resolve ``[lba, lba+length)`` to an ordered list of segments.

        The returned segments tile the requested range exactly, in LBA
        order.  Adjacent segments are merged when both logically and
        physically contiguous; holes are merged with adjacent holes.
        """

    @abc.abstractmethod
    def mapped_extent_count(self) -> int:
        """Number of distinct mapped extents (the paper's *static
        fragmentation* measure)."""

    @abc.abstractmethod
    def mapped_sector_count(self) -> int:
        """Total number of currently mapped logical sectors."""

    def lookup_pieces(self, lba: int, length: int) -> List[Tuple[int, int, bool]]:
        """Resolve ``[lba, lba+length)`` to ``(pba, length, is_hole)`` triples.

        Identical tiling and merge semantics to :meth:`lookup`, but holes
        are resolved to their identity placement (``pba = lba``, the
        paper's "unwritten data resides at its LBA" rule) and no
        :class:`Segment` objects are created — this is the batch replay
        kernel's hot call (:mod:`repro.core.batch`).  Implementations may
        override it with an allocation-free fast path; the default
        delegates to :meth:`lookup`.
        """
        return [
            (segment.lba if segment.is_hole else segment.pba, segment.length, segment.is_hole)
            for segment in self.lookup(lba, length)
        ]

    def lookup_pieces_batch(self, lba: np.ndarray, length: np.ndarray):
        """:meth:`lookup_pieces` of many reads as ``(pba, length, is_hole,
        offsets)`` columns, query ``q``'s pieces being rows
        ``offsets[q]:offsets[q+1]``.  The default resolves read by read."""
        reads = list(map(self.lookup_pieces, lba.tolist(), length.tolist()))
        pieces = np.array([piece for read in reads for piece in read], np.int64)
        pieces = pieces.reshape(-1, 3)
        offsets = np.cumsum([0, *map(len, reads)], dtype=np.int64)
        return pieces[:, 0], pieces[:, 1], pieces[:, 2].astype(bool), offsets

    def map_range_batch(self, lba: np.ndarray, pba: np.ndarray, length: np.ndarray) -> None:
        """:meth:`map_range` on each row in order."""
        for row in zip(lba.tolist(), pba.tolist(), length.tolist()):
            self.map_range(*row)
