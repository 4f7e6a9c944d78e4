"""Translation-aware selective caching (paper §IV-C, Algorithm 3).

Fragment accesses are highly skewed (Fig. 10): a small population of
fragments causes most fragment-induced seeks, and together they fit in a
few tens of MB.  Caching *only* data returned by fragmented reads therefore
eliminates most extra seeks with a cache far smaller than the host buffer
cache — and without competing with it, since unfragmented data is never
admitted (no cache pollution).

The cache is keyed by **physical** address.  Under the infinite-disk log
model this is sound: log PBAs are never rewritten, and the identity region
(PBA = LBA, holding pre-trace data) is never written either — every host
write goes to the frontier.  A logical overwrite simply redirects future
reads to new PBAs; stale cached blocks age out via LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.units import BLOCK_SECTORS, BYTES_PER_MIB, SECTOR_BYTES

_BLOCK_BYTES = BLOCK_SECTORS * SECTOR_BYTES


@dataclass(frozen=True)
class SelectiveCacheConfig:
    """Sizing for the selective fragment cache.

    Attributes:
        capacity_mib: RAM budget; the paper evaluates with 64 MB.  The
            cache holds 4 KiB blocks.
    """

    capacity_mib: float = 64.0

    def __post_init__(self) -> None:
        if self.capacity_mib <= 0:
            raise ValueError(f"capacity_mib must be > 0, got {self.capacity_mib}")


class SelectiveFragmentCache:
    """Algorithm 3's cache: an LRU set of 4 KiB blocks keyed by block
    index and bounded in bytes, with its hit/miss counts.

    The translator consults :meth:`lookup` for each fragment of a
    fragmented read (CheckCache); misses are read from disk and admitted
    via :meth:`admit` (ReadDisk + WriteCache).  Unfragmented reads bypass
    the cache entirely, per the algorithm's ``FragmentedRead`` guard.  A
    physical range is a *hit* only when every block covering it is
    resident — the same hit/miss semantics as caching whole fragments,
    with simpler bookkeeping (see DESIGN.md §7).  The fast paths run the
    compiled fragment-policy kernel, for which these calls are the oracle.
    """

    def __init__(self, config: Optional[SelectiveCacheConfig] = None) -> None:
        # A `config=SelectiveCacheConfig()` default would be evaluated once
        # at def time and shared by every instance; build one per instance.
        config = SelectiveCacheConfig() if config is None else config
        capacity_bytes = int(config.capacity_mib * BYTES_PER_MIB)
        if capacity_bytes < _BLOCK_BYTES:
            raise ValueError(
                f"capacity_bytes {capacity_bytes} below one block ({_BLOCK_BYTES})"
            )
        self.capacity_blocks = capacity_bytes // _BLOCK_BYTES
        self._blocks: "OrderedDict[int, None]" = OrderedDict()  # LRU first
        self.evictions = self.hits = self.misses = 0

    def _block_range(self, pba: int, length: int) -> range:
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        if pba < 0:
            raise ValueError(f"pba must be >= 0, got {pba}")
        return range(pba // BLOCK_SECTORS, (pba + length - 1) // BLOCK_SECTORS + 1)

    def lookup(self, pba: int, length: int) -> bool:
        """CheckCache: True, and every covering block made most recently
        used, iff all of them are resident; on a miss nothing is touched."""
        blocks = self._blocks
        covering = self._block_range(pba, length)
        if all(block in blocks for block in covering):
            for block in covering:
                blocks.move_to_end(block)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def admit(self, pba: int, length: int) -> None:
        """WriteCache: insert (or refresh) every block covering a fragment
        just read from disk, then evict LRU blocks down to the budget."""
        blocks = self._blocks
        for block in self._block_range(pba, length):
            if block in blocks:
                blocks.move_to_end(block)
            else:
                blocks[block] = None
        while len(blocks) > self.capacity_blocks:
            blocks.popitem(last=False)
            self.evictions += 1

    def state_dict(self) -> dict:
        """Mutable state (checkpoint snapshot): the resident blocks as an
        int64 array in LRU→MRU order, plus the counters.

        Configuration is *not* included — restore builds a cache from the
        same :class:`SelectiveCacheConfig` and loads this state into it.
        """
        return {
            "blocks": np.asarray(list(self._blocks), dtype=np.int64),
            "evictions": self.evictions,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (replaces current state).

        The blocks must fit the capacity — restore never evicts, so a
        snapshot from a same-sized cache always round-trips exactly.
        """
        blocks = np.asarray(state["blocks"], dtype=np.int64).tolist()
        if len(blocks) > self.capacity_blocks:
            raise ValueError(f"{len(blocks)} blocks exceed capacity {self.capacity_blocks}")
        if len(set(blocks)) != len(blocks):
            raise ValueError("restored block list contains duplicates")
        self._blocks = OrderedDict.fromkeys(blocks)
        self.evictions = int(state["evictions"])
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
