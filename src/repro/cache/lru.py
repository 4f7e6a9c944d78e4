"""Byte-budgeted, block-granular LRU cache.

Translation-aware selective caching (Algorithm 3) caches the data returned
by fragmented reads in a small RAM cache (64 MB in the paper's evaluation)
with LRU eviction.  We cache at fixed block granularity: a physical range
is a *hit* only when every block covering it is resident — the same
hit/miss semantics as caching whole fragments, with simpler bookkeeping
(see DESIGN.md §7).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from repro.util.units import BLOCK_SECTORS, SECTOR_BYTES

_BLOCK_BYTES = BLOCK_SECTORS * SECTOR_BYTES


class LRUCache:
    """LRU set of 4 KiB blocks keyed by block index, bounded in bytes.

    Args:
        capacity_bytes: Total budget; at least one block.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < _BLOCK_BYTES:
            raise ValueError(
                f"capacity_bytes {capacity_bytes} below one block ({_BLOCK_BYTES})"
            )
        self._capacity_blocks = capacity_bytes // _BLOCK_BYTES
        self._blocks: "OrderedDict[int, None]" = OrderedDict()
        self.evictions = 0

    @property
    def capacity_blocks(self) -> int:
        return self._capacity_blocks

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_blocks * _BLOCK_BYTES

    @property
    def used_blocks(self) -> int:
        return len(self._blocks)

    def _block_range(self, pba: int, length: int) -> range:
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        if pba < 0:
            raise ValueError(f"pba must be >= 0, got {pba}")
        first = pba // BLOCK_SECTORS
        last = (pba + length - 1) // BLOCK_SECTORS
        return range(first, last + 1)

    def contains_range(self, pba: int, length: int) -> bool:
        """True if every block covering ``[pba, pba+length)`` is resident.

        Does not update recency — pair with :meth:`touch_range` on a hit.
        """
        return all(block in self._blocks for block in self._block_range(pba, length))

    def hit_and_touch(self, pba: int, length: int) -> bool:
        """One-pass :meth:`contains_range` + :meth:`touch_range`.

        Returns True and marks every covering block most-recently-used
        iff all of them are resident; on a miss nothing is touched.
        Exactly equivalent to the two-call sequence, but computes the
        block range once and probes the resident set once per block.
        The reference translator's ``lookup`` calls it; the fast paths run
        the compiled fragment-policy kernel, for which it is the oracle.
        """
        blocks = self._blocks
        covering = self._block_range(pba, length)
        for block in covering:
            if block not in blocks:
                return False
        move = blocks.move_to_end
        for block in covering:
            move(block)
        return True

    def touch_range(self, pba: int, length: int) -> None:
        """Mark the blocks covering the range most-recently-used."""
        for block in self._block_range(pba, length):
            if block in self._blocks:
                self._blocks.move_to_end(block)

    def insert_range(self, pba: int, length: int) -> None:
        """Insert (or refresh) the blocks covering the range, evicting LRU
        blocks as needed to stay within budget."""
        for block in self._block_range(pba, length):
            if block in self._blocks:
                self._blocks.move_to_end(block)
            else:
                self._blocks[block] = None
        while len(self._blocks) > self._capacity_blocks:
            self._blocks.popitem(last=False)
            self.evictions += 1

    def invalidate_range(self, pba: int, length: int) -> None:
        """Drop any resident blocks covering the range."""
        for block in self._block_range(pba, length):
            self._blocks.pop(block, None)

    def clear(self) -> None:
        self._blocks.clear()

    def resident_blocks(self) -> list:
        """Resident block indices from least to most recently used.

        Together with :attr:`evictions` this is the cache's complete
        mutable state; feed it back through :meth:`restore_blocks` to
        reconstruct an identical cache (checkpoint restore).
        """
        return list(self._blocks)

    def restore_blocks(self, blocks, evictions: int = 0) -> None:
        """Replace the resident set with ``blocks`` (LRU→MRU order).

        ``blocks`` must fit the capacity — restore never evicts, so a
        snapshot from a same-sized cache always round-trips exactly.
        """
        blocks = [int(b) for b in blocks]
        if len(blocks) > self._capacity_blocks:
            raise ValueError(
                f"{len(blocks)} blocks exceed capacity {self._capacity_blocks}"
            )
        if len(set(blocks)) != len(blocks):
            raise ValueError("restored block list contains duplicates")
        self._blocks = OrderedDict.fromkeys(blocks)
        self.evictions = int(evictions)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[int]:
        """Iterate resident block indices from least to most recently used."""
        return iter(self._blocks)
