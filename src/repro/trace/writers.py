"""Writers for the external trace formats the parsers accept.

Round-trip companions to :mod:`repro.trace.msr` and
:mod:`repro.trace.cloudphysics`: export any :class:`Trace` (synthetic or
parsed) in either on-disk dialect, so archetype traces can be fed to
external tools that consume the original formats.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.trace.record import OpType
from repro.trace.trace import Trace
from repro.util.units import SECTOR_BYTES

_FILETIME_EPOCH_TICKS = 128_166_372_000_000_000  # an arbitrary 2007 instant
_TICKS_PER_SECOND = 10_000_000
_SLAB_OPS = 1 << 16  # ops turned into Python scalars at a time


def column_rows(trace: Trace, read=OpType.READ.value, write=OpType.WRITE.value):
    """``(timestamp, op token, lba, length)`` per op as Python scalars, read
    off the columns a slab at a time (no :class:`~repro.trace.record.IORequest`
    is built, and the scalars alive at once do not grow with the trace)."""
    is_read, lba, length = trace.as_arrays()
    timestamps = trace.timestamps()
    for start in range(0, len(lba), _SLAB_OPS):
        slab = slice(start, start + _SLAB_OPS)
        ops = [read if r else write for r in is_read[slab].tolist()]
        yield from zip(
            timestamps[slab].tolist(), ops, lba[slab].tolist(), length[slab].tolist()
        )


def write_msr_trace(
    trace: Trace,
    path: Union[str, Path],
    hostname: str = "host",
    disk_number: int = 0,
) -> None:
    """Write ``trace`` in MSR Cambridge CSV form.

    Columns: ``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime``
    with FILETIME timestamps and byte-granular offsets/sizes, header-less,
    exactly as the SNIA files ship.  Response time is emitted as 0 (the
    simulator does not model latency).
    """
    path = Path(path)
    with path.open("w") as handle:
        handle.writelines(
            f"{_FILETIME_EPOCH_TICKS + int(timestamp * _TICKS_PER_SECOND)},"
            f"{hostname},{disk_number},{op},"
            f"{lba * SECTOR_BYTES},{length * SECTOR_BYTES},0\n"
            for timestamp, op, lba, length in column_rows(trace, "Read", "Write")
        )


def write_cloudphysics_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` in the CloudPhysics-style CSV dialect.

    Columns: ``timestamp_us,op,lba,length`` with microsecond timestamps
    and sector-granular addresses, with a header row.
    """
    path = Path(path)
    with path.open("w") as handle:
        handle.write("timestamp_us,op,lba,length\n")
        handle.writelines(
            f"{timestamp * 1e6:.0f},{op},{lba},{length}\n"
            for timestamp, op, lba, length in column_rows(trace)
        )
