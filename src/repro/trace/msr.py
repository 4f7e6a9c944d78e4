"""Parser for the MSR Cambridge block traces.

The MSR traces ("Write off-loading", Narayanan et al., FAST'08 — the paper's
citation [20]) are CSV files with the columns::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

where ``Timestamp`` is a Windows FILETIME (100 ns ticks since 1601-01-01),
``Offset``/``Size`` are in bytes, and ``Type`` is ``Read``/``Write``.  This
module converts them to the library's sector-addressed
:class:`~repro.trace.record.IORequest` form.

Real dumps are dirty — truncated final lines, zero-length I/Os, garbage
fields — so parsing follows the shared error policy of
:mod:`repro.trace.errors`: ``strict`` (default) raises on the first bad
record, ``lenient`` skips bad records, ``quarantine`` skips and captures
them.  The resulting :class:`~repro.trace.errors.ParseReport` is attached
to the returned trace as ``trace.parse_report``.

The trace files themselves are distributed by SNIA and are not bundled; the
experiment harness substitutes calibrated synthetic archetypes when no trace
file is supplied (see DESIGN.md §2).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from repro.trace.errors import PARSE_ENGINES, ParseReport, check_geometry, make_report
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.util.units import SECTOR_BYTES, bytes_to_sectors
from repro.util.validation import check_choice

_TICKS_PER_SECOND = 10_000_000  # Windows FILETIME resolution: 100 ns


def parse_msr_lines(
    lines: Iterable[str],
    name: str = "msr",
    disk_number: Optional[int] = None,
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Parse MSR-format CSV lines into a :class:`Trace`.

    Args:
        lines: Raw text lines (header-less, as the MSR files are shipped).
        name: Name for the resulting trace.
        disk_number: If given, keep only records for this disk number
            (MSR files multiplex several volumes per host).
        max_ops: Stop after this many accepted records.
        policy: Malformed-record handling — ``strict`` | ``lenient`` |
            ``quarantine`` (see :mod:`repro.trace.errors`).
        capacity_sectors: If given, records addressing past this capacity
            (the disk's size in sectors) are treated as malformed.
        report: Optional pre-made :class:`ParseReport` to aggregate into
            (e.g. across several files); a fresh one is made otherwise.

    Timestamps are rebased so the first accepted record is at t = 0.
    Zero- and negative-size records are malformed (a zero-length I/O cannot
    be replayed) and follow ``policy``.
    """
    report = make_report(report, name, policy)
    requests = []
    first_ticks: Optional[int] = None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        report.note_record()
        fields = line.split(",")
        if len(fields) < 6:
            report.note_error(
                line_no, line, f"expected >=6 MSR fields, got {len(fields)}"
            )
            continue
        try:
            ticks = int(fields[0])
            disk = int(fields[2])
            op = OpType.parse(fields[3])
            offset_bytes = int(fields[4])
            size_bytes = int(fields[5])
        except ValueError as exc:
            report.note_error(line_no, line, f"bad MSR record: {exc}")
            continue
        if size_bytes <= 0:
            report.note_error(line_no, line, f"size must be > 0 bytes, got {size_bytes}")
            continue
        lba = offset_bytes // SECTOR_BYTES
        length = bytes_to_sectors(size_bytes)
        geometry_error = check_geometry(lba, length, capacity_sectors)
        if geometry_error is not None:
            report.note_error(line_no, line, geometry_error)
            continue
        if disk_number is not None and disk != disk_number:
            report.note_filtered()
            continue
        if first_ticks is None:
            first_ticks = ticks
        report.note_accepted()
        requests.append(
            IORequest(
                timestamp=(ticks - first_ticks) / _TICKS_PER_SECOND,
                op=op,
                lba=lba,
                length=length,
            )
        )
        if max_ops is not None and len(requests) >= max_ops:
            break
    trace = Trace(requests, name=name)
    trace.parse_report = report
    return trace


def parse_msr_file(
    path: Union[str, Path],
    disk_number: Optional[int] = None,
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
    engine: str = "columnar",
) -> Trace:
    """Parse an MSR trace file (e.g. ``src2_2.csv``).

    ``engine="columnar"`` (default) bulk parses via
    :mod:`repro.trace.columnar` — exactly equivalent to the per-line
    parser, to which it falls back on any input it cannot reproduce
    bit-for-bit; ``engine="reference"`` forces the per-line parser.
    """
    check_choice("engine", engine, PARSE_ENGINES)
    path = Path(path)
    parse = parse_msr_lines
    if engine == "columnar":
        from repro.trace.columnar import parse_msr_text as parse
    with path.open() as handle:  # read block by block, never held whole
        return parse(
            handle,
            name=path.stem,
            disk_number=disk_number,
            max_ops=max_ops,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )
