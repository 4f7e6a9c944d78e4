"""Unit conversions between sectors, bytes and binary multiples.

The entire simulator addresses the disk in **512-byte sectors**, the unit
used by the paper's traces and by the SCSI/ATA command sets.  Converting at
package boundaries (trace parsing, cache budgets, report rendering) keeps the
hot simulation path purely integral.
"""

from __future__ import annotations

SECTOR_BYTES = 512
"""Size of one logical sector in bytes (the paper's addressing unit)."""

BYTES_PER_KIB = 1024
BYTES_PER_MIB = 1024 ** 2
BYTES_PER_GIB = 1024 ** 3

SECTORS_PER_KIB = BYTES_PER_KIB // SECTOR_BYTES
SECTORS_PER_MIB = BYTES_PER_MIB // SECTOR_BYTES
SECTORS_PER_GIB = BYTES_PER_GIB // SECTOR_BYTES

BLOCK_SECTORS = 8
"""One 4 KiB block: the alignment of synthetic requests and the
granularity of the selective cache and the hot/cold classifier."""


def bytes_to_sectors(n_bytes: int) -> int:
    """Convert a byte count to sectors, rounding up to a whole sector.

    Trace records occasionally carry sizes that are not sector multiples
    (e.g. the MSR traces contain byte-granular request sizes); a request
    covering any part of a sector occupies the whole sector.

    >>> bytes_to_sectors(512)
    1
    >>> bytes_to_sectors(513)
    2
    >>> bytes_to_sectors(0)
    0
    """
    if n_bytes < 0:
        raise ValueError(f"byte count must be >= 0, got {n_bytes}")
    return -(-n_bytes // SECTOR_BYTES)


def sectors_to_kib(n_sectors: int) -> float:
    """Convert sectors to KiB as a float (for reporting)."""
    return n_sectors * SECTOR_BYTES / BYTES_PER_KIB


def sectors_to_gib(n_sectors: int) -> float:
    """Convert sectors to GiB as a float (for reporting)."""
    return n_sectors * SECTOR_BYTES / BYTES_PER_GIB


def kib_to_sectors(n_kib: float) -> int:
    """Convert KiB to whole sectors, rounding up.

    >>> kib_to_sectors(1)
    2
    >>> kib_to_sectors(0.25)
    1
    """
    return bytes_to_sectors(int(-(-n_kib * BYTES_PER_KIB // 1)))


def mib_to_sectors(n_mib: float) -> int:
    """Convert MiB to whole sectors, rounding up."""
    return kib_to_sectors(n_mib * 1024)


def gib_to_sectors(n_gib: float) -> int:
    """Convert GiB to whole sectors, rounding up."""
    return mib_to_sectors(n_gib * 1024)
