"""Vectorized per-zone live-sector accounting for the finite log.

:class:`~repro.core.cleaning.ZonedCleaningTranslator` must know, per
zone, how many mapped sectors are still live — the victim-selection
input and the "log full of live data" tripwire.  The original ledger
kept one Python int per zone and split every invalidation across zone
boundaries in a scalar loop; this module keeps the counts as one int64
numpy array so the cleaning kernel can apply a whole batch of
invalidation deltas with a single scatter-add, and victim selection
reduces to a masked ``argmin``/``argmax`` over the array.

Semantics match the ledger exactly (property-tested against a dict
model in ``tests/extentmap/test_live_counts.py``):

* counts never go below zero — decrements clamp at 0 (stale ledger
  entries can over-report; the reference clamped identically), and
* a range spanning zone boundaries splits its delta per zone (the
  extent map merges PBA-contiguous pieces across zones, so a single
  mapped segment can cover several zones).

Clamping commutes with batching: decrements only ever subtract, so
"subtract every piece, then clamp" equals "subtract and clamp piece by
piece" as long as no increment interleaves — which is why
:meth:`ZoneLiveCounts.decrement_ranges` may scatter a whole
invalidation batch at once.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class ZoneLiveCounts:
    """Per-zone live-sector counts over a contiguous run of equal zones.

    Addresses are log-relative: PBA 0 is the first sector of zone 0,
    zone ``i`` covers ``[i*zone_sectors, (i+1)*zone_sectors)``.
    """

    def __init__(self, zone_sectors: int, n_zones: int) -> None:
        if zone_sectors < 1:
            raise ValueError(f"zone_sectors must be >= 1, got {zone_sectors}")
        if n_zones < 1:
            raise ValueError(f"n_zones must be >= 1, got {n_zones}")
        self._zone_sectors = zone_sectors
        self._counts = np.zeros(n_zones, dtype=np.int64)

    @property
    def counts(self) -> np.ndarray:
        """The live int64 counts array (mutate through the methods)."""
        return self._counts

    def get(self, zone_id: int) -> int:
        return int(self._counts[zone_id])

    def add(self, zone_id: int, sectors: int) -> None:
        """Credit an append of ``sectors`` to ``zone_id``."""
        self._counts[zone_id] += sectors

    def reset(self, zone_id: int) -> None:
        """Zero a zone's count (the zone was cleaned and reset)."""
        self._counts[zone_id] = 0

    def decrement_range(self, pba: int, length: int) -> None:
        """Invalidate ``[pba, pba+length)``, splitting per zone, clamped at 0."""
        zone_sectors = self._zone_sectors
        counts = self._counts
        end = pba + length
        zone_id = pba // zone_sectors
        while pba < end:
            zone_end = (zone_id + 1) * zone_sectors
            take = min(end, zone_end) - pba
            remaining = counts[zone_id] - take
            counts[zone_id] = remaining if remaining > 0 else 0
            pba = zone_end
            zone_id += 1

    def _per_zone(self, pba, length) -> Tuple[np.ndarray, np.ndarray]:
        """``(zone_ids, sectors)``: ranges ``[pba, pba+length)`` split into
        one piece per zone they touch."""
        pba = np.asarray(pba, dtype=np.int64)
        length = np.asarray(length, dtype=np.int64)
        zone_sectors = self._zone_sectors
        end = pba + length
        first_zone = pba // zone_sectors
        reps = (end - 1) // zone_sectors - first_zone + 1
        total = int(reps.sum())
        if total == len(pba):
            # Common case: no range crosses a zone boundary.
            return first_zone, length
        offsets = np.zeros(len(pba), dtype=np.int64)
        np.cumsum(reps[:-1], out=offsets[1:])
        intra = np.arange(total, dtype=np.int64) - offsets.repeat(reps)
        zone_ids = first_zone.repeat(reps) + intra
        piece_start = np.maximum(pba.repeat(reps), zone_ids * zone_sectors)
        piece_end = np.minimum(end.repeat(reps), (zone_ids + 1) * zone_sectors)
        return zone_ids, piece_end - piece_start

    def decrement_ranges(self, pba: np.ndarray, length: np.ndarray) -> None:
        """Invalidate many ``[pba, pba+length)`` ranges in one scatter-add.

        Equivalent to calling :meth:`decrement_range` per range (see the
        module docstring for why clamp-at-the-end is exact here).
        """
        np.subtract.at(self._counts, *self._per_zone(pba, length))
        np.maximum(self._counts, 0, out=self._counts)

    def recompute_from_extents(self, pba: np.ndarray, length: np.ndarray) -> None:
        """Rebuild all counts wholesale from the mapped in-log extents.

        Exact replacement for incremental tracking whenever the invariant
        *counts[z] == mapped live sectors inside zone z* holds — which it
        does at every op boundary: each host write immediately decrements
        the mappings it supersedes, relocation decrements the victim and
        credits the destination, and a reset zone has no extents mapped
        into it (its live pieces were just remapped elsewhere).  Under
        that invariant decrements never clamp, so the incremental state
        equals this sum exactly.  Callers pass log-relative addresses
        (extent ``pba`` minus the frontier base, identity-region extents
        excluded); extents split per zone like the decrement paths.
        """
        self._counts[:] = 0
        np.add.at(self._counts, *self._per_zone(pba, length))
