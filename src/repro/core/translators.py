"""Block translation layers: the in-place baseline and the log-structured
translator with the paper's three seek-reduction techniques.

Disk model (paper §II–III):

* Infinite disk, no cleaning.  The write frontier starts just above the
  highest sector the trace touches; every write — host or defrag — goes to
  the frontier and advances it.
* Data never written during the trace is assumed resident at PBA = LBA
  below the frontier base ("unwritten data at its LBA", §III), so reads of
  pre-trace data behave exactly as on a conventional drive.
* A seek is an access that does not start at the sector immediately
  following the previous access; it is a read or write seek according to
  the direction of the second operation.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from repro.core.defrag import OpportunisticDefrag
from repro.core.outcomes import AccessSource, IOOutcome, SegmentAccess
from repro.core.prefetch import LookAheadBehindPrefetcher
from repro.core.selective_cache import SelectiveFragmentCache
from repro.disk.head import DiskHead
from repro.extentmap.base import AddressMap
from repro.extentmap.extent_map import ExtentMap
from repro.trace.record import IORequest


class Translator(abc.ABC):
    """A block device front-end that maps host requests to physical accesses."""

    def __init__(self) -> None:
        self._head = DiskHead()

    @property
    def head(self) -> DiskHead:
        return self._head

    @abc.abstractmethod
    def submit(self, request: IORequest) -> IOOutcome:
        """Serve one host request and account its physical behaviour."""

    @property
    @abc.abstractmethod
    def description(self) -> str:
        """Short label used in reports (e.g. ``"LS+cache"``)."""


class InPlaceTranslator(Translator):
    """Conventional update-in-place translation (the paper's *NoLS* baseline).

    Every request is served at PBA = LBA in a single physically contiguous
    access; the seek count of a replay is the workload's intrinsic seek
    behaviour on a conventional drive, the denominator of the SAF metric.
    """

    @property
    def description(self) -> str:
        return "NoLS"

    def state_dict(self) -> dict:
        """Complete mutable state (the head position is all there is)."""
        return {"kind": "in-place", "head_position": self._head.position}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto this translator."""
        if state.get("kind") != "in-place":
            raise ValueError(f"not an in-place translator state: {state.get('kind')!r}")
        self._head.restore_position(state["head_position"])

    def submit(self, request: IORequest) -> IOOutcome:
        event = self._head.access(request.lba, request.length)
        access = SegmentAccess(
            pba=request.lba,
            length=request.length,
            source=AccessSource.DISK,
            seek=event.seek,
            distance=event.distance,
        )
        seeks = 1 if event.seek else 0
        return IOOutcome(
            request=request,
            accesses=(access,),
            fragments=1,
            read_seeks=seeks if request.is_read else 0,
            write_seeks=seeks if request.is_write else 0,
        )


class LogStructuredTranslator(Translator):
    """Log-structured translation with optional seek-reduction techniques.

    Args:
        frontier_base: First log sector; must sit above every LBA the
            workload will touch (use ``Trace.max_end``).  Addresses below it
            form the identity region holding "unwritten" pre-trace data.
        address_map: LBA→PBA map implementation (default a fresh
            :class:`~repro.extentmap.extent_map.ExtentMap`).
        defrag: Opportunistic-defragmentation policy (Algorithm 1), or None.
        prefetcher: Look-ahead-behind prefetcher (Algorithm 2), or None.
        cache: Selective fragment cache (Algorithm 3), or None.

    Techniques compose: when several are enabled, each fragment of a
    fragmented read is served from the selective cache if resident, else
    from the prefetch buffer if covered, else from the media.  Fig. 11
    evaluates them one at a time; composition is exercised by the ablation
    benchmarks.
    """

    def __init__(
        self,
        frontier_base: int,
        address_map: Optional[AddressMap] = None,
        defrag: Optional[OpportunisticDefrag] = None,
        prefetcher: Optional[LookAheadBehindPrefetcher] = None,
        cache: Optional[SelectiveFragmentCache] = None,
    ) -> None:
        super().__init__()
        if frontier_base < 0:
            raise ValueError(f"frontier_base must be >= 0, got {frontier_base}")
        self._map = address_map if address_map is not None else ExtentMap()
        self._frontier_base = frontier_base
        self._frontier = frontier_base
        self._defrag = defrag
        self._prefetcher = prefetcher
        self._cache = cache

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def description(self) -> str:
        parts = ["LS"]
        if self._defrag is not None:
            parts.append("defrag")
        if self._prefetcher is not None:
            parts.append("prefetch")
        if self._cache is not None:
            parts.append("cache")
        return "+".join(parts)

    @property
    def frontier(self) -> int:
        """Next sector the log will write (the write frontier)."""
        return self._frontier

    @property
    def frontier_base(self) -> int:
        return self._frontier_base

    @property
    def address_map(self) -> AddressMap:
        return self._map

    @property
    def defrag(self) -> Optional[OpportunisticDefrag]:
        return self._defrag

    @property
    def prefetcher(self) -> Optional[LookAheadBehindPrefetcher]:
        return self._prefetcher

    @property
    def cache(self) -> Optional[SelectiveFragmentCache]:
        return self._cache

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Complete mutable state of the translator, serializable.

        The extent map is exported as three parallel int64 numpy arrays
        (everything else is plain Python scalars/lists), so the snapshot
        can be persisted through :mod:`repro.util.npystore` and restored
        to a byte-identical translator.  Technique *configuration* is not
        included: restore builds a translator from the same
        :class:`~repro.core.config.TechniqueConfig` and loads this state
        into it (:meth:`load_state` checks the shapes match).

        Requires an address map with an ``extent_arrays`` export (both
        shipped tiers — :class:`ExtentMap` and
        :class:`~repro.extentmap.array_map.ArrayExtentMap` — have one,
        and export identical arrays for identical mappings, so snapshots
        restore across tiers).
        """
        if not hasattr(self._map, "extent_arrays"):
            raise TypeError(
                f"state_dict needs an address map with extent_arrays, "
                f"got {type(self._map).__name__}"
            )
        map_lba, map_pba, map_length = self._map.extent_arrays()
        return {
            "kind": "log-structured",
            "frontier_base": self._frontier_base,
            "frontier": self._frontier,
            "head_position": self._head.position,
            "defrag": self._defrag.state_dict() if self._defrag else None,
            "prefetch": self._prefetcher.state_dict() if self._prefetcher else None,
            "cache": self._cache.state_dict() if self._cache else None,
            "map_lba": map_lba,
            "map_pba": map_pba,
            "map_length": map_length,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto this translator.

        The translator must have been built with the same technique
        line-up (and configs) as the snapshotted one; a presence mismatch
        raises rather than silently dropping state.
        """
        if state.get("kind") != "log-structured":
            raise ValueError(
                f"not a log-structured translator state: {state.get('kind')!r}"
            )
        for name, component, snapshot in (
            ("defrag", self._defrag, state["defrag"]),
            ("prefetch", self._prefetcher, state["prefetch"]),
            ("cache", self._cache, state["cache"]),
        ):
            if (component is None) != (snapshot is None):
                raise ValueError(
                    f"technique mismatch restoring state: {name} is "
                    f"{'absent' if component is None else 'present'} on the "
                    f"translator but {'present' if snapshot else 'absent'} "
                    "in the snapshot"
                )
        # Rebuild with the tier this translator was constructed with: the
        # exported arrays are tier-independent canonical form, so a
        # snapshot taken on one tier restores exactly onto any other.
        self._map = type(self._map).from_extent_arrays(
            state["map_lba"], state["map_pba"], state["map_length"]
        )
        self._frontier_base = int(state["frontier_base"])
        self._frontier = int(state["frontier"])
        head = state["head_position"]
        self._head.restore_position(None if head is None else int(head))
        if self._defrag is not None:
            self._defrag.load_state(state["defrag"])
        if self._prefetcher is not None:
            self._prefetcher.load_state(state["prefetch"])
        if self._cache is not None:
            self._cache.load_state(state["cache"])

    # ------------------------------------------------------------------ #
    # Request service
    # ------------------------------------------------------------------ #

    def submit(self, request: IORequest) -> IOOutcome:
        if request.is_write:
            return self._do_write(request)
        return self._do_read(request)

    def _do_write(self, request: IORequest) -> IOOutcome:
        """Append the write at the frontier and remap the logical range."""
        access = self._append_to_log(request.lba, request.length)
        return IOOutcome(
            request=request,
            accesses=(access,),
            fragments=1,
            read_seeks=0,
            write_seeks=1 if access.seek else 0,
        )

    def _do_read(self, request: IORequest) -> IOOutcome:
        """Serve a read from its current physical locations (Algorithms 1–3)."""
        pieces = self._resolve(request.lba, request.length)
        fragments = len(pieces)
        fragmented = fragments > 1

        accesses: List[SegmentAccess] = []
        read_seeks = 0
        cache_hits = 0
        buffer_hits = 0
        for pba, length, hole in pieces:
            if fragmented and self._cache is not None and self._cache.lookup(pba, length):
                accesses.append(
                    SegmentAccess(pba, length, AccessSource.CACHE, False, 0, hole)
                )
                cache_hits += 1
                continue
            if (
                fragmented
                and self._prefetcher is not None
                and self._prefetcher.covers(pba, length)
            ):
                accesses.append(
                    SegmentAccess(pba, length, AccessSource.BUFFER, False, 0, hole)
                )
                buffer_hits += 1
                continue
            event = self._head.access(pba, length)
            if event.seek:
                read_seeks += 1
            accesses.append(
                SegmentAccess(pba, length, AccessSource.DISK, event.seek, event.distance, hole)
            )
            if fragmented and self._prefetcher is not None:
                self._prefetcher.note_fragment_read(pba, length)
            if fragmented and self._cache is not None:
                self._cache.admit(pba, length)

        defrag_seeks = 0
        defrag_sectors = 0
        if (
            fragmented
            and self._defrag is not None
            and self._defrag.should_defragment(request.lba, request.length, fragments)
        ):
            rewrite = self._append_to_log(request.lba, request.length, defrag=True)
            accesses.append(rewrite)
            defrag_seeks = 1 if rewrite.seek else 0
            defrag_sectors = request.length
            self._defrag.note_defragmented(request.lba, request.length)

        return IOOutcome(
            request=request,
            accesses=tuple(accesses),
            fragments=fragments,
            read_seeks=read_seeks,
            write_seeks=0,
            defrag_write_seeks=defrag_seeks,
            defrag_rewritten_sectors=defrag_sectors,
            cache_fragment_hits=cache_hits,
            buffer_fragment_hits=buffer_hits,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resolve(self, lba: int, length: int) -> List[Tuple[int, int, bool]]:
        """Resolve a logical range to ``(pba, length, is_hole)`` pieces.

        Holes (never-written ranges) resolve to the identity region.  The
        map already merges physically contiguous pieces, so the list length
        is the read's dynamic fragmentation.
        """
        if lba + length > self._frontier_base:
            raise ValueError(
                f"request [{lba}, {lba + length}) crosses the frontier base "
                f"{self._frontier_base}; size the log above the workload's LBA space"
            )
        pieces: List[Tuple[int, int, bool]] = []
        for segment in self._map.lookup(lba, length):
            if segment.is_hole:
                pieces.append((segment.lba, segment.length, True))
            else:
                pieces.append((segment.pba, segment.length, False))
        return pieces

    def _append_to_log(self, lba: int, length: int, defrag: bool = False) -> SegmentAccess:
        """Write ``[lba, lba+length)`` at the frontier and remap it."""
        event = self._head.access(self._frontier, length)
        self._map.map_range(lba, self._frontier, length)
        self._frontier += length
        return SegmentAccess(
            pba=event.pba,
            length=length,
            source=AccessSource.DISK,
            seek=event.seek,
            distance=event.distance,
            defrag=defrag,
        )
