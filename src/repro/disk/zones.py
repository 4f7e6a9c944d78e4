"""SMR zone semantics (paper §II, Fig. 1).

Shipped SMR drives organize each platter into zones separated by guard
tracks; each zone must be written strictly sequentially at its write
pointer, and can only be reused after a reset that discards its contents —
the same model the Zoned Block Device extensions expose to hosts, and the
substrate both translation-layer styles (media-cache and log-structured)
are built on.

:class:`ZonedAddressSpace` enforces these rules and provides the sequential
allocator the log-structured translator's write frontier runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.util.units import SECTORS_PER_MIB


class SequentialZoneError(Exception):
    """Raised on writes that violate a zone's sequential-write constraint."""


@dataclass
class Zone:
    """One SMR zone.

    Attributes:
        zone_id: Index within the device.
        start: First sector of the zone.
        length: Zone size in sectors.
        write_pointer: Next writable sector (absolute); sectors in
            ``[start, write_pointer)`` hold data.
    """

    zone_id: int
    start: int
    length: int
    write_pointer: int

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def remaining_sectors(self) -> int:
        return self.end - self.write_pointer

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.end

    @property
    def is_empty(self) -> bool:
        return self.write_pointer == self.start


class ZonedAddressSpace:
    """A device's zone layout with sequential-write enforcement.

    Args:
        zone_sectors: Size of each zone (drives ship 256 MiB zones; tests
            use small ones).
        n_zones: Number of zones.
    """

    DEFAULT_ZONE_SECTORS = 256 * SECTORS_PER_MIB

    def __init__(
        self,
        zone_sectors: int = DEFAULT_ZONE_SECTORS,
        n_zones: int = 64,
    ) -> None:
        if zone_sectors <= 0:
            raise ValueError(f"zone_sectors must be > 0, got {zone_sectors}")
        if n_zones <= 0:
            raise ValueError(f"n_zones must be > 0, got {n_zones}")
        self._zone_sectors = zone_sectors
        self._zones: List[Zone] = [
            Zone(
                zone_id=i,
                start=i * zone_sectors,
                length=zone_sectors,
                write_pointer=i * zone_sectors,
            )
            for i in range(n_zones)
        ]

    @property
    def zones(self) -> List[Zone]:
        return self._zones

    @property
    def zone_sectors(self) -> int:
        return self._zone_sectors

    @property
    def capacity_sectors(self) -> int:
        return self._zone_sectors * len(self._zones)

    def zone_for(self, pba: int) -> Zone:
        """Return the zone containing sector ``pba``."""
        if not 0 <= pba < self.capacity_sectors:
            raise ValueError(f"pba {pba} outside device [0, {self.capacity_sectors})")
        return self._zones[pba // self._zone_sectors]

    def write(self, pba: int, length: int) -> None:
        """Record a write of ``[pba, pba+length)``, enforcing zone rules.

        Zones demand ``pba`` equal the write pointer and the write not to
        cross the zone end.
        """
        if length <= 0:
            raise ValueError(f"length must be > 0, got {length}")
        zone = self.zone_for(pba)
        end = pba + length
        if end > zone.end:
            raise SequentialZoneError(
                f"write [{pba}, {end}) crosses zone {zone.zone_id} end {zone.end}"
            )
        if pba != zone.write_pointer:
            raise SequentialZoneError(
                f"zone {zone.zone_id}: write at {pba} != write pointer "
                f"{zone.write_pointer} (sequential-write constraint, Fig. 1)"
            )
        zone.write_pointer = end

    def reset(self, zone_id: int) -> None:
        """Reset a zone's write pointer, discarding its contents."""
        zone = self._zones[zone_id]
        zone.write_pointer = zone.start
