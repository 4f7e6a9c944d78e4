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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache.lru import LRUCache
from repro.util.units import BYTES_PER_MIB


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
    """Hit/miss bookkeeping for Algorithm 3.

    The translator consults :meth:`lookup` for each fragment of a
    fragmented read (CheckCache); misses are read from disk and admitted
    via :meth:`admit` (ReadDisk + WriteCache).  Unfragmented reads bypass
    the cache entirely, per the algorithm's ``FragmentedRead`` guard.
    """

    def __init__(self, config: Optional[SelectiveCacheConfig] = None) -> None:
        # A `config=SelectiveCacheConfig()` default would be evaluated once
        # at def time and shared by every instance; build one per instance.
        config = SelectiveCacheConfig() if config is None else config
        self._lru = LRUCache(capacity_bytes=int(config.capacity_mib * BYTES_PER_MIB))
        self.hits = 0
        self.misses = 0

    @property
    def capacity_blocks(self) -> int:
        return self._lru.capacity_blocks

    def lookup(self, pba: int, length: int) -> bool:
        """CheckCache: True (and refresh recency) if the fragment is resident."""
        if self._lru.hit_and_touch(pba, length):
            self.hits += 1
            return True
        self.misses += 1
        return False

    def admit(self, pba: int, length: int) -> None:
        """WriteCache: admit a fragment just read from disk."""
        self._lru.insert_range(pba, length)

    def state_dict(self) -> dict:
        """Mutable state (checkpoint snapshot): the resident blocks as an
        int64 array in LRU→MRU order, plus the counters.

        Configuration is *not* included — restore builds a cache from the
        same :class:`SelectiveCacheConfig` and loads this state into it.
        """
        return {
            "blocks": np.asarray(self._lru.resident_blocks(), dtype=np.int64),
            "evictions": self._lru.evictions,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (replaces current state)."""
        blocks = np.asarray(state["blocks"], dtype=np.int64).tolist()
        self._lru.restore_blocks(blocks, evictions=state["evictions"])
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
