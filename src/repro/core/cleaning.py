"""Finite-disk log-structured translation with zone cleaning.

The paper's evaluation uses an infinite disk ("for archival workloads
cleaning may never be needed", §II) — but a deployable SMR translation
layer eventually fills its zones and must garbage-collect.  This module
provides that substrate: a log-structured translator whose log lives in
SMR zones (:class:`~repro.disk.zones.ZonedAddressSpace`), with greedy
(least-valid-first) victim selection, so write amplification and seek
amplification can be studied *jointly*: the trade-off the paper's
infinite disk (§II) sets aside.

Layout: logical space ``[0, frontier_base)`` doubles as the identity
region for pre-trace data (as in the infinite model); the log occupies
``n_zones`` sequential zones starting at ``frontier_base``.  Cleaning
starts when free zones fall to ``reserve_zones`` and relocates the
victim's live data to the current frontier (paying the same seeks any
other I/O pays), then resets the victim.

Per-zone live-sector accounting lives in a numpy
:class:`~repro.extentmap.live_counts.ZoneLiveCounts` array so both this
reference path and the batch kernel (:mod:`repro.core.batch`) share one
bookkeeping structure, and victim selection is a masked reduction over
the array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.outcomes import AccessSource, IOOutcome, SegmentAccess
from repro.core.translators import Translator
from repro.disk.zones import SequentialZoneError, Zone, ZonedAddressSpace
from repro.extentmap.base import AddressMap
from repro.extentmap.extent_map import ExtentMap
from repro.extentmap.live_counts import ZoneLiveCounts
from repro.trace.record import IORequest
from repro.util.units import mib_to_sectors

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class CleaningStats:
    """Counters specific to the cleaning machinery."""

    cleanings: int = 0
    relocated_sectors: int = 0
    cleaning_read_seeks: int = 0
    cleaning_write_seeks: int = 0
    host_written_sectors: int = 0
    zone_resets: int = 0

    @property
    def write_amplification(self) -> float:
        """(host + relocated) sectors per host sector written."""
        if self.host_written_sectors == 0:
            return 1.0
        return (
            self.host_written_sectors + self.relocated_sectors
        ) / self.host_written_sectors

    @property
    def cleaning_seeks(self) -> int:
        return self.cleaning_read_seeks + self.cleaning_write_seeks


class ZonedCleaningTranslator(Translator):
    """Log-structured translation over a finite set of SMR zones.

    Args:
        frontier_base: First log sector; also the size of the identity
            region (must exceed the workload's highest LBA).
        zone_mib: Zone size (shipped drives: 256 MiB; experiments shrink it).
        n_zones: Number of log zones; total log capacity bounds how much
            can be written between cleanings.
        reserve_zones: Cleaning starts when free zones drop to this count
            (must be >= 1 so a cleaning destination always exists).

    The victim is the closed zone with the least live data (greedy).
    """

    def __init__(
        self,
        frontier_base: int,
        zone_mib: float = 4.0,
        n_zones: int = 16,
        reserve_zones: int = 2,
        address_map: Optional[AddressMap] = None,
    ) -> None:
        super().__init__()
        if frontier_base < 0:
            raise ValueError(f"frontier_base must be >= 0, got {frontier_base}")
        if reserve_zones < 1:
            raise ValueError(f"reserve_zones must be >= 1, got {reserve_zones}")
        if n_zones <= reserve_zones:
            raise ValueError(
                f"n_zones ({n_zones}) must exceed reserve_zones ({reserve_zones})"
            )
        zone_sectors = mib_to_sectors(zone_mib)
        self._base = frontier_base
        self._zones = ZonedAddressSpace(zone_sectors=zone_sectors, n_zones=n_zones)
        self._map = address_map if address_map is not None else ExtentMap()
        self._reserve = reserve_zones
        self._live = ZoneLiveCounts(zone_sectors=zone_sectors, n_zones=n_zones)
        self._entries: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(n_zones)
        ]
        """Per-zone (pba, lba, length) appends in order; superseded parts
        detected lazily against the map (:meth:`_live_pieces`)."""
        self._open_order: List[int] = list(range(n_zones))  # allocation order
        self._open_idx = 0
        self.cleaning_stats = CleaningStats()

    # ------------------------------------------------------------------ #

    @property
    def description(self) -> str:
        return "LS+cleaning"

    @property
    def frontier_base(self) -> int:
        return self._base

    @property
    def zone_sectors(self) -> int:
        return self._zones.zone_sectors

    @property
    def log_capacity_sectors(self) -> int:
        return self._zones.capacity_sectors

    def free_zones(self) -> int:
        return sum(1 for z in self._zones.zones if z.is_empty)

    def live_sectors(self) -> int:
        return int(self._live.counts.sum())

    def address_map(self) -> AddressMap:
        return self._map

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Complete mutable state of the translator, serializable.

        Follows the :class:`~repro.core.translators.LogStructuredTranslator`
        template: the extent map exports as three parallel int64 arrays;
        zone write pointers, ledger entries, live counts, the allocation
        order and the cleaning counters are plain scalars/lists.
        """
        if not hasattr(self._map, "extent_arrays"):
            raise TypeError(
                f"state_dict needs an address map with extent_arrays, "
                f"got {type(self._map).__name__}"
            )
        map_lba, map_pba, map_length = self._map.extent_arrays()
        stats = self.cleaning_stats
        return {
            "kind": "zoned-cleaning",
            "frontier_base": self._base,
            "zone_sectors": self._zones.zone_sectors,
            "n_zones": len(self._zones.zones),
            "reserve_zones": self._reserve,
            "write_pointers": [z.write_pointer for z in self._zones.zones],
            "entries": [
                [list(entry) for entry in zone_entries]
                for zone_entries in self._entries
            ],
            "live_counts": [int(c) for c in self._live.counts],
            "open_order": list(self._open_order),
            "open_idx": self._open_idx,
            "cleaning_stats": {
                "cleanings": stats.cleanings,
                "relocated_sectors": stats.relocated_sectors,
                "cleaning_read_seeks": stats.cleaning_read_seeks,
                "cleaning_write_seeks": stats.cleaning_write_seeks,
                "host_written_sectors": stats.host_written_sectors,
                "zone_resets": stats.zone_resets,
            },
            "head_position": self._head.position,
            "map_lba": map_lba,
            "map_pba": map_pba,
            "map_length": map_length,
        }

    # ------------------------------------------------------------------ #

    def submit(self, request: IORequest) -> IOOutcome:
        if request.end > self._base:
            raise ValueError(
                f"request end {request.end} crosses the identity/log boundary "
                f"{self._base}"
            )
        if request.is_write:
            return self._do_write(request)
        return self._do_read(request)

    def _do_write(self, request: IORequest) -> IOOutcome:
        self.cleaning_stats.host_written_sectors += request.length
        accesses, write_seeks = self._append(request.lba, request.length)
        return IOOutcome(
            request=request,
            accesses=tuple(accesses),
            fragments=1,
            read_seeks=0,
            write_seeks=write_seeks,
        )

    def _do_read(self, request: IORequest) -> IOOutcome:
        accesses: List[SegmentAccess] = []
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

    # ------------------------------------------------------------------ #
    # Log append + cleaning
    # ------------------------------------------------------------------ #

    def _append(self, lba: int, length: int) -> Tuple[List[SegmentAccess], int]:
        """Append ``[lba, lba+length)`` at the frontier, cleaning if needed.

        Returns the write accesses (one per zone piece) and the seek count.
        """
        if length > self._zones.capacity_sectors // 2:
            raise ValueError(
                f"write of {length} sectors too large for the configured log"
            )
        self._ensure_room(length)
        self._invalidate(lba, length)
        accesses = self._write_at_frontier(lba, length)
        return accesses, sum(access.seek for access in accesses)

    def _write_at_frontier(self, lba: int, length: int) -> List[SegmentAccess]:
        """Write ``[lba, lba+length)`` at the frontier, zone by zone, and
        map and ledger each piece; returns one access per zone piece."""
        accesses: List[SegmentAccess] = []
        while length:
            zone = self._current_zone()
            take = min(length, zone.remaining_sectors)
            pba = zone.write_pointer
            self._zones.write(pba, take)
            pba += self._base
            event = self._head.access(pba, take)
            self._map.map_range(lba, pba, take)
            self._note_append(zone.zone_id, pba, lba, take)
            accesses.append(
                SegmentAccess(
                    pba=pba,
                    length=take,
                    source=AccessSource.DISK,
                    seek=event.seek,
                    distance=event.distance,
                )
            )
            lba += take
            length -= take
        return accesses

    def _note_append(self, zone_id: int, pba: int, lba: int, length: int) -> None:
        """Ledger one appended piece (shared with the batch kernel)."""
        self._live.add(zone_id, length)
        self._entries[zone_id].append((pba, lba, length))

    def _current_zone(self) -> Zone:
        """The zone the frontier writes into, advancing past full zones."""
        while self._open_idx < len(self._open_order):
            zone = self._zones.zones[self._open_order[self._open_idx]]
            if not zone.is_full:
                return zone
            self._open_idx += 1
        raise SequentialZoneError("log out of zones despite cleaning reserve")

    def _ensure_room(self, length: int) -> None:
        """Clean until the write fits without exhausting reserves.

        Relocation writes issued *by* cleaning (:meth:`_relocate`) never
        come here: the reserve zones exist precisely so a cleaning pass
        always has a destination (a victim's live data never exceeds one
        zone).
        """
        while self._writable_sectors() < length or self.free_zones() < self._reserve:
            victim = self._pick_victim()
            if self._live.get(victim) >= self._zones.zone_sectors:
                # Cleaning a fully-live zone frees nothing: the workload's
                # live data exceeds the log's effective capacity.
                raise SequentialZoneError(
                    "log full of live data: workload exceeds log capacity"
                )
            self._clean_zone(victim)

    def _writable_sectors(self) -> int:
        return sum(z.remaining_sectors for z in self._zones.zones)

    def _pick_victim(self) -> int:
        """Select the victim zone: the least live data wins.

        Candidates are non-empty zones other than the frontier zone; ties
        break to the lowest zone id (``argmin`` takes the first minimal
        entry, matching a zone-id-ordered scan).  There always is one:
        while the frontier zone alone holds data, every other zone is free
        and writable, so no cleaning starts.
        """
        frontier_zone = None
        if self._open_idx < len(self._open_order):
            zone = self._zones.zones[self._open_order[self._open_idx]]
            if not zone.is_full:
                frontier_zone = zone.zone_id
        zones = self._zones.zones
        eligible = np.fromiter(
            (
                not z.is_empty and z.zone_id != frontier_zone
                for z in zones
            ),
            dtype=bool,
            count=len(zones),
        )
        return int(np.where(eligible, self._live.counts, _INT64_MAX).argmin())

    def _clean_zone(self, zone_id: int) -> None:
        """Relocate the victim's live extents to the frontier, then reset it.

        Copy-before-reset, as a real drive must: the reserve zones
        guarantee the relocation has a destination.
        """
        for pba, lba, length in self._live_pieces(zone_id):
            read_evt = self._head.access(pba, length)
            if read_evt.seek:
                self.cleaning_stats.cleaning_read_seeks += 1
            seeks = self._relocate(pba, lba, length)
            self.cleaning_stats.cleaning_write_seeks += seeks
            self.cleaning_stats.relocated_sectors += length
        self._zones.reset(zone_id)
        self._entries[zone_id] = []
        self._live.reset(zone_id)
        self.cleaning_stats.zone_resets += 1
        self.cleaning_stats.cleanings += 1
        # Allocation order: the cleaned zone becomes writable again after
        # every currently queued zone.
        self._open_order.append(zone_id)

    def _relocate(self, piece_pba: int, lba: int, length: int) -> int:
        """Append one live piece at the frontier; returns the write-seek count.

        :meth:`_append` minus two lookups it can prove redundant for a live
        piece: ``_ensure_room`` has no place mid-cleaning (the reserve zones
        are the destination), and ``_invalidate`` would look ``[lba,
        lba+length)`` up in the map only to find the single segment
        :meth:`_live_pieces` already identified — mapped contiguously at
        exactly ``[piece_pba, piece_pba+length)`` — so the decrement is
        issued directly.
        """
        self._live.decrement_range(piece_pba - self._base, length)
        return sum(access.seek for access in self._write_at_frontier(lba, length))

    def _live_pieces(self, zone_id: int) -> List[Tuple[int, int, int]]:
        """(pba, lba, length) pieces of the zone still referenced by the map,
        in ledger order, then LBA order within an entry: the whole ledger
        resolves in one ``lookup_pieces_batch`` call."""
        entries = self._entries[zone_id]  # a victim is never empty
        n = len(entries)
        e_pba = np.fromiter((e[0] for e in entries), dtype=np.int64, count=n)
        e_lba = np.fromiter((e[1] for e in entries), dtype=np.int64, count=n)
        e_len = np.fromiter((e[2] for e in entries), dtype=np.int64, count=n)
        piece_pba, piece_len, hole, offsets = self._map.lookup_pieces_batch(e_lba, e_len)
        query = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        # Pieces tile each query contiguously from its start LBA.
        cum = np.zeros(len(piece_len), dtype=np.int64)
        np.cumsum(piece_len[:-1], out=cum[1:])
        piece_lba = e_lba[query] + (cum - cum[offsets[:-1]][query])
        keep = ~hole & (piece_pba == e_pba[query] + (piece_lba - e_lba[query]))
        return list(
            zip(piece_pba[keep].tolist(), piece_lba[keep].tolist(), piece_len[keep].tolist())
        )

    def _invalidate(self, lba: int, length: int) -> None:
        """Decrement live counts for data about to be overwritten.

        A mapped segment may span a zone boundary (the extent map merges
        pieces that are contiguous in both LBA and PBA, and consecutive
        zones are PBA-contiguous), so the decrement is split per zone
        (:meth:`ZoneLiveCounts.decrement_range`).
        """
        for segment in self._map.lookup(lba, length):
            if segment.is_hole or segment.pba < self._base:
                continue
            self._live.decrement_range(segment.pba - self._base, segment.length)
