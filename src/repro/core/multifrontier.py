"""Hot/cold-separated log-structured translation (WOLF-style, paper §VI).

Wang & Hu's WOLF [12] — discussed in the paper's related work — separates
hot and cold data into distinct write regions to cut cleaning cost, while
going "to great lengths" to avoid the seek overhead of switching between
write frontiers.  This module implements the *naive* multi-frontier layout
so that overhead is measurable: each switch between frontiers is a write
seek a single-frontier log would not pay, but hot data clusters
physically, which reduces the fragmentation that scans of cold ranges see.

The translator is generalized to ``n_frontiers`` regions so that a
BIT-style classifier (segregating writes into K frontiers by predicted
invalidation time — PAPERS.md) slots in without touching the translator:
any classifier whose ``classify_and_note`` returns an index below
``n_frontiers`` works (``bool`` is an index for the stock two-frontier
hot/cold layout, where frontier 0 is cold and frontier 1 is hot).

Classification is recency-based by default: an LBA block overwritten
while still in the recent-writes window is hot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.core.outcomes import AccessSource, IOOutcome, SegmentAccess
from repro.core.translators import Translator
from repro.extentmap.base import AddressMap
from repro.extentmap.extent_map import ExtentMap
from repro.trace.record import IORequest

#: Frontier labels used in exhaustion errors; higher indices fall back to
#: a numeric label.  Index 0 is the cold region, index 1 the hot region.
_FRONTIER_NAMES = {0: "cold", 1: "hot"}


def _frontier_label(index: int) -> str:
    return _FRONTIER_NAMES.get(index, f"frontier-{index}")


class RecencyClassifier:
    """Flags writes whose first block was written within the last
    ``window`` distinct recent blocks (4 KiB granularity)."""

    def __init__(self, window: int = 4096, block_sectors: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if block_sectors < 1:
            raise ValueError(f"block_sectors must be >= 1, got {block_sectors}")
        self._window = window
        self._block = block_sectors
        self._recent: "OrderedDict[int, None]" = OrderedDict()

    @property
    def window(self) -> int:
        return self._window

    @property
    def block_sectors(self) -> int:
        return self._block

    def classify_and_note(self, lba: int, length: int) -> bool:
        """Return True (hot) if the write re-touches recently written
        blocks, then record its blocks as recent."""
        first_block = lba // self._block
        last_block = (lba + length - 1) // self._block
        hot = any(
            block in self._recent for block in range(first_block, last_block + 1)
        )
        for block in range(first_block, last_block + 1):
            if block in self._recent:
                self._recent.move_to_end(block)
            else:
                self._recent[block] = None
        while len(self._recent) > self._window:
            self._recent.popitem(last=False)
        return hot

    def state_dict(self) -> dict:
        """Complete mutable state: the recent-block set as an int64 array,
        oldest first."""
        return {
            "window": self._window,
            "block_sectors": self._block,
            "recent": np.asarray(list(self._recent), dtype=np.int64),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto this classifier."""
        if int(state["window"]) != self._window or int(
            state["block_sectors"]
        ) != self._block:
            raise ValueError(
                "classifier mismatch restoring state: snapshot is "
                f"(window={state['window']}, block_sectors="
                f"{state['block_sectors']}), classifier is "
                f"(window={self._window}, block_sectors={self._block})"
            )
        recent = np.asarray(state["recent"], dtype=np.int64).tolist()
        self._recent = OrderedDict.fromkeys(recent)


class MultiFrontierTranslator(Translator):
    """Log-structured translation with separate per-class write frontiers.

    Args:
        frontier_base: Start of the log (above the identity region, as in
            :class:`LogStructuredTranslator`).  Frontier ``i`` owns
            ``[frontier_base + i*region_sectors,
            frontier_base + (i+1)*region_sectors)``.
        region_sectors: Size of each log region.
        classifier: Write classifier (default recency-based hot/cold);
            ``classify_and_note(lba, length)`` must return the target
            frontier index (a bool works for two frontiers).
        n_frontiers: Number of write frontiers (default 2: cold then hot).
    """

    def __init__(
        self,
        frontier_base: int,
        region_sectors: int,
        classifier: Optional[RecencyClassifier] = None,
        address_map: Optional[AddressMap] = None,
        n_frontiers: int = 2,
    ) -> None:
        super().__init__()
        if frontier_base < 0:
            raise ValueError(f"frontier_base must be >= 0, got {frontier_base}")
        if region_sectors <= 0:
            raise ValueError(f"region_sectors must be > 0, got {region_sectors}")
        if n_frontiers < 2:
            raise ValueError(f"n_frontiers must be >= 2, got {n_frontiers}")
        self._map = address_map if address_map is not None else ExtentMap()
        self._region_sectors = region_sectors
        self._frontier_base = frontier_base
        self._n_frontiers = n_frontiers
        self._frontiers: List[int] = [
            frontier_base + i * region_sectors for i in range(n_frontiers)
        ]
        self._classifier = classifier or RecencyClassifier()
        self._last_frontier: Optional[int] = None
        self.frontier_switches = 0
        self._frontier_writes: List[int] = [0] * n_frontiers

    @property
    def description(self) -> str:
        return "LS+multifrontier"

    @property
    def frontier_base(self) -> int:
        return self._frontier_base

    @property
    def region_sectors(self) -> int:
        return self._region_sectors

    @property
    def n_frontiers(self) -> int:
        return self._n_frontiers

    @property
    def address_map(self) -> AddressMap:
        return self._map

    @property
    def classifier(self) -> RecencyClassifier:
        return self._classifier

    @property
    def frontiers(self) -> Tuple[int, ...]:
        """Current write position of every frontier, index order."""
        return tuple(self._frontiers)

    @property
    def frontier_writes(self) -> Tuple[int, ...]:
        """Host writes routed to each frontier, index order."""
        return tuple(self._frontier_writes)

    @property
    def cold_writes(self) -> int:
        return self._frontier_writes[0]

    @property
    def hot_writes(self) -> int:
        return self._frontier_writes[1]

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Complete mutable state of the translator, serializable.

        Follows the :class:`LogStructuredTranslator` template: the extent
        map exports as three parallel int64 arrays, the classifier's
        recent-block set serializes oldest-first, everything else is plain
        scalars/lists.
        """
        if not hasattr(self._map, "extent_arrays"):
            raise TypeError(
                f"state_dict needs an address map with extent_arrays, "
                f"got {type(self._map).__name__}"
            )
        map_lba, map_pba, map_length = self._map.extent_arrays()
        return {
            "kind": "multi-frontier",
            "frontier_base": self._frontier_base,
            "region_sectors": self._region_sectors,
            "n_frontiers": self._n_frontiers,
            "frontiers": list(self._frontiers),
            "frontier_writes": list(self._frontier_writes),
            "frontier_switches": self.frontier_switches,
            "last_frontier": self._last_frontier,
            "head_position": self._head.position,
            "classifier": self._classifier.state_dict(),
            "map_lba": map_lba,
            "map_pba": map_pba,
            "map_length": map_length,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto this translator.

        The translator must have been built with the same layout
        (``frontier_base``, ``region_sectors``, ``n_frontiers``) as the
        snapshotted one; a mismatch raises rather than corrupting the log.
        """
        if state.get("kind") != "multi-frontier":
            raise ValueError(
                f"not a multi-frontier translator state: {state.get('kind')!r}"
            )
        for name, ours in (
            ("frontier_base", self._frontier_base),
            ("region_sectors", self._region_sectors),
            ("n_frontiers", self._n_frontiers),
        ):
            if int(state[name]) != ours:
                raise ValueError(
                    f"layout mismatch restoring state: {name} is {ours} on "
                    f"the translator but {state[name]} in the snapshot"
                )
        self._map = type(self._map).from_extent_arrays(
            state["map_lba"], state["map_pba"], state["map_length"]
        )
        self._frontiers = [int(f) for f in state["frontiers"]]
        self._frontier_writes = [int(w) for w in state["frontier_writes"]]
        self.frontier_switches = int(state["frontier_switches"])
        last = state["last_frontier"]
        self._last_frontier = None if last is None else int(last)
        head = state["head_position"]
        self._head.restore_position(None if head is None else int(head))
        self._classifier.load_state(state["classifier"])

    # ------------------------------------------------------------------ #
    # Request service
    # ------------------------------------------------------------------ #

    def submit(self, request: IORequest) -> IOOutcome:
        if request.is_write:
            return self._do_write(request)
        return self._do_read(request)

    def _do_write(self, request: IORequest) -> IOOutcome:
        index = int(self._classifier.classify_and_note(request.lba, request.length))
        self._frontier_writes[index] += 1
        frontier = self._frontiers[index]
        region_end = self._frontier_base + (index + 1) * self._region_sectors
        if frontier + request.length > region_end:
            raise ValueError(
                f"{_frontier_label(index)} log region exhausted; "
                "enlarge region_sectors"
            )
        self._frontiers[index] += request.length
        if self._last_frontier is not None and self._last_frontier != index:
            self.frontier_switches += 1
        self._last_frontier = index

        event = self._head.access(frontier, request.length)
        self._map.map_range(request.lba, frontier, request.length)
        access = SegmentAccess(
            pba=frontier,
            length=request.length,
            source=AccessSource.DISK,
            seek=event.seek,
            distance=event.distance,
        )
        return IOOutcome(
            request=request,
            accesses=(access,),
            fragments=1,
            read_seeks=0,
            write_seeks=1 if event.seek else 0,
        )

    def _do_read(self, request: IORequest) -> IOOutcome:
        if request.end > self._frontier_base:
            raise ValueError(
                f"read end {request.end} crosses the log base {self._frontier_base}"
            )
        accesses = []
        read_seeks = 0
        segments = self._map.lookup(request.lba, request.length)
        for segment in segments:
            pba = segment.lba if segment.is_hole else segment.pba
            event = self._head.access(pba, segment.length)
            if event.seek:
                read_seeks += 1
            accesses.append(
                SegmentAccess(
                    pba=pba,
                    length=segment.length,
                    source=AccessSource.DISK,
                    seek=event.seek,
                    distance=event.distance,
                    hole=segment.is_hole,
                )
            )
        return IOOutcome(
            request=request,
            accesses=tuple(accesses),
            fragments=len(segments),
            read_seeks=read_seeks,
            write_seeks=0,
        )
