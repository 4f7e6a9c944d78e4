"""Hot/cold-separated log-structured translation (WOLF-style, paper §VI).

Wang & Hu's WOLF [12] — discussed in the paper's related work — separates
hot and cold data into distinct write regions to cut cleaning cost, while
going "to great lengths" to avoid the seek overhead of switching between
write frontiers.  This module implements the *naive* multi-frontier layout
so that overhead is measurable: each switch between frontiers is a write
seek a single-frontier log would not pay, but hot data clusters
physically, which reduces the fragmentation that scans of cold ranges see.

Classification is recency-based: an LBA block overwritten while still in
the recent-writes window is hot.  Frontier 0 takes the cold writes and
frontier 1 the hot ones.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro.core.outcomes import AccessSource, IOOutcome, SegmentAccess
from repro.core.translators import Translator
from repro.extentmap.base import AddressMap
from repro.extentmap.extent_map import ExtentMap
from repro.trace.record import IORequest
from repro.util.units import BLOCK_SECTORS
from repro.util.validation import check_fixed

#: The frontiers by index: a write the classifier finds hot goes to 1.
FRONTIERS = ("cold", "hot")
#: How many distinct recently written 4 KiB blocks the classifier keeps.
RECENCY_WINDOW = 4096
#: Each frontier's log region: 2 GiB, more than any Table I trace writes.
REGION_MIB = 2048.0


class RecencyClassifier:
    """Flags writes whose blocks were written within the last
    :data:`RECENCY_WINDOW` distinct recent blocks (4 KiB granularity)."""

    def __init__(self) -> None:
        self._window = RECENCY_WINDOW
        self._recent: "OrderedDict[int, None]" = OrderedDict()

    def classify_and_note(self, lba: int, length: int) -> bool:
        """Return True (hot) if the write re-touches recently written
        blocks, then record its blocks as recent."""
        first_block = lba // BLOCK_SECTORS
        last_block = (lba + length - 1) // BLOCK_SECTORS
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
        return {"recent": np.asarray(list(self._recent), dtype=np.int64)}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto this classifier."""
        check_fixed("classifier", state, {"window": self._window, "block_sectors": BLOCK_SECTORS})
        recent = np.asarray(state["recent"], dtype=np.int64).tolist()
        self._recent = OrderedDict.fromkeys(recent)


class MultiFrontierTranslator(Translator):
    """Log-structured translation with a cold and a hot write frontier.

    Args:
        frontier_base: Start of the log (above the identity region, as in
            :class:`LogStructuredTranslator`).  Frontier ``i`` of
            :data:`FRONTIERS` owns ``[frontier_base + i*region_sectors,
            frontier_base + (i+1)*region_sectors)``.
        region_sectors: Size of each log region.
    """

    def __init__(
        self,
        frontier_base: int,
        region_sectors: int,
        address_map: Optional[AddressMap] = None,
    ) -> None:
        super().__init__()
        if frontier_base < 0:
            raise ValueError(f"frontier_base must be >= 0, got {frontier_base}")
        if region_sectors <= 0:
            raise ValueError(f"region_sectors must be > 0, got {region_sectors}")
        self._map = address_map if address_map is not None else ExtentMap()
        self._region_sectors = region_sectors
        self._frontier_base = frontier_base
        self._frontiers: List[int] = [
            frontier_base + i * region_sectors for i in range(len(FRONTIERS))
        ]
        self._classifier = RecencyClassifier()
        self._last_frontier: Optional[int] = None
        self.frontier_switches = 0
        self._frontier_writes: List[int] = [0] * len(FRONTIERS)

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
    def address_map(self) -> AddressMap:
        return self._map

    @property
    def classifier(self) -> RecencyClassifier:
        return self._classifier

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
        (``frontier_base``, ``region_sectors``) as the snapshotted one; a
        mismatch raises rather than corrupting the log.
        """
        if state.get("kind") != "multi-frontier":
            raise ValueError(
                f"not a multi-frontier translator state: {state.get('kind')!r}"
            )
        for name, ours in (
            ("frontier_base", self._frontier_base),
            ("region_sectors", self._region_sectors),
        ):
            if int(state[name]) != ours:
                raise ValueError(
                    f"layout mismatch restoring state: {name} is {ours} on "
                    f"the translator but {state[name]} in the snapshot"
                )
        check_fixed("multi-frontier", state, {"n_frontiers": len(FRONTIERS)})
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
                f"{FRONTIERS[index]} log region exhausted; "
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
