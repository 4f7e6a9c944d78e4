"""Generic CSV trace reader/writer.

The native on-disk format of this library is a minimal four-column CSV::

    timestamp,op,lba,length

with timestamps in seconds and addresses in sectors.  Synthetic traces are
persisted in this format so experiments can be re-run without regenerating
workloads.  Reading follows the shared ``strict`` | ``lenient`` |
``quarantine`` error policy of :mod:`repro.trace.errors`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.trace.errors import PARSE_ENGINES, ParseReport, check_geometry, make_report
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.trace.writers import column_rows
from repro.util.validation import check_choice

_HEADER = ["timestamp", "op", "lba", "length"]


def write_csv_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` in the native CSV format."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        writer.writerows(
            (f"{timestamp:.6f}", op, lba, length)
            for timestamp, op, lba, length in column_rows(trace)
        )


def read_csv_rows(
    reader: Iterable[List[str]],
    trace_name: str,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Parse native-format CSV rows (as yielded by :func:`csv.reader`).

    This is the per-row reference core of :func:`read_csv_trace`, split out
    so the columnar bulk parser (:mod:`repro.trace.columnar`) can fall back
    to it over an in-memory ``csv.reader`` with identical semantics.
    """
    report = make_report(report, trace_name, policy)
    requests: List[IORequest] = []
    for line_no, row in enumerate(reader, start=1):
        if not row or row[0].startswith("#"):
            continue
        if line_no == 1 and row[0].strip().lower() == "timestamp":
            continue
        report.note_record()
        raw = ",".join(row)
        if len(row) < 4:
            report.note_error(
                line_no, raw, f"expected >=4 trace columns, got {len(row)}"
            )
            continue
        try:
            timestamp = float(row[0])
            op = OpType.parse(row[1])
            lba = int(row[2])
            length = int(row[3])
        except ValueError as exc:
            report.note_error(line_no, raw, f"bad trace row: {exc}")
            continue
        if length <= 0:
            report.note_error(
                line_no, raw, f"length must be > 0 sectors, got {length}"
            )
            continue
        geometry_error = check_geometry(lba, length, capacity_sectors)
        if geometry_error is not None:
            report.note_error(line_no, raw, geometry_error)
            continue
        report.note_accepted()
        requests.append(
            IORequest(timestamp=timestamp, op=op, lba=lba, length=length)
        )
    trace = Trace(requests, name=trace_name)
    trace.parse_report = report
    return trace


def read_csv_trace(
    path: Union[str, Path],
    name: str = "",
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
    engine: str = "columnar",
) -> Trace:
    """Read a native-format CSV trace from ``path``.

    The header row is optional.  Under the default ``strict`` policy a bad
    row raises :class:`~repro.trace.errors.TraceParseError` with the
    offending line number; ``lenient``/``quarantine`` skip bad rows and
    account for them in the :class:`ParseReport` attached to the returned
    trace as ``trace.parse_report``.

    ``engine`` selects the implementation: ``"columnar"`` (default) bulk
    parses via :mod:`repro.trace.columnar` — exactly equivalent, falling
    back to the per-row reference parser on any input it cannot reproduce
    bit-for-bit — while ``"reference"`` forces the per-row parser.
    """
    check_choice("engine", engine, PARSE_ENGINES)
    path = Path(path)
    trace_name = name or path.stem
    # newline="": no newline translation, which is what csv.reader expects
    # and so what the columnar engine's fallback re-reads.
    with path.open(newline="") as handle:
        if engine == "columnar":
            from repro.trace.columnar import parse_csv_text

            return parse_csv_text(
                handle,
                name=trace_name,
                # Error messages cite the full path (more useful than the stem).
                report_name=name or str(path),
                policy=policy,
                capacity_sectors=capacity_sectors,
                report=report,
            )
        report = make_report(report, name or str(path), policy)
        return read_csv_rows(
            csv.reader(handle),
            trace_name=trace_name,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )
