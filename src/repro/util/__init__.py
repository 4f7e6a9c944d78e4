"""Shared low-level helpers: unit conversion, validation, RNG and statistics.

These modules are dependency-free (standard library only) and are used by
every other subsystem in :mod:`repro`.
"""

from repro.util.units import (
    BYTES_PER_KIB,
    BYTES_PER_MIB,
    BYTES_PER_GIB,
    SECTOR_BYTES,
    SECTORS_PER_KIB,
    SECTORS_PER_MIB,
    SECTORS_PER_GIB,
    bytes_to_sectors,
    sectors_to_kib,
    sectors_to_gib,
    kib_to_sectors,
    mib_to_sectors,
    gib_to_sectors,
)
from repro.util.validation import check_choice
from repro.util.io import atomic_write_json, atomic_write_text
from repro.util.rngtools import SeedSequenceFactory
from repro.util.stats import empirical_cdf

__all__ = [
    "BYTES_PER_KIB",
    "BYTES_PER_MIB",
    "BYTES_PER_GIB",
    "SECTOR_BYTES",
    "SECTORS_PER_KIB",
    "SECTORS_PER_MIB",
    "SECTORS_PER_GIB",
    "bytes_to_sectors",
    "sectors_to_kib",
    "sectors_to_gib",
    "kib_to_sectors",
    "mib_to_sectors",
    "gib_to_sectors",
    "check_choice",
    "atomic_write_json",
    "atomic_write_text",
    "SeedSequenceFactory",
    "empirical_cdf",
]
