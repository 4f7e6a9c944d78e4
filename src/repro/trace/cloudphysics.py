"""Parser for CloudPhysics-style block trace dumps.

The CloudPhysics traces (paper citation [21], SHARDS, FAST'15) were never
publicly released; dumps circulated in research collaborations are CSV with
the columns::

    timestamp_us,op,lba,length_sectors

(timestamps in microseconds, addresses already in sectors).  This parser
accepts that shape, tolerating an optional header row and an optional extra
latency column.  As with the MSR parser, malformed records follow the
shared ``strict`` | ``lenient`` | ``quarantine`` policy of
:mod:`repro.trace.errors`, and the :class:`ParseReport` is attached to the
returned trace as ``trace.parse_report``.  The experiment harness
substitutes synthetic archetypes when no file is available.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from repro.trace.errors import PARSE_ENGINES, ParseReport, check_geometry, make_report
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.util.validation import check_choice


def parse_cloudphysics_lines(
    lines: Iterable[str],
    name: str = "cloudphysics",
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Parse CloudPhysics-style CSV lines into a :class:`Trace`.

    Timestamps are rebased so the first record is at t = 0.  Zero- and
    negative-length records, out-of-range addresses (when
    ``capacity_sectors`` is given) and otherwise unparseable lines follow
    ``policy``.
    """
    report = make_report(report, name, policy)
    requests = []
    first_us: Optional[float] = None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if fields[0].lower() in ("timestamp_us", "timestamp", "ts"):
            continue
        report.note_record()
        if len(fields) < 4:
            report.note_error(
                line_no, line, f"expected >=4 CloudPhysics fields, got {len(fields)}"
            )
            continue
        try:
            ts_us = float(fields[0])
            op = OpType.parse(fields[1])
            lba = int(fields[2])
            length = int(fields[3])
        except ValueError as exc:
            report.note_error(line_no, line, f"bad CloudPhysics record: {exc}")
            continue
        if length <= 0:
            report.note_error(line_no, line, f"length must be > 0 sectors, got {length}")
            continue
        geometry_error = check_geometry(lba, length, capacity_sectors)
        if geometry_error is not None:
            report.note_error(line_no, line, geometry_error)
            continue
        if first_us is None:
            first_us = ts_us
        report.note_accepted()
        requests.append(
            IORequest(
                timestamp=(ts_us - first_us) / 1e6,
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


def parse_cloudphysics_file(
    path: Union[str, Path],
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
    engine: str = "columnar",
) -> Trace:
    """Parse a CloudPhysics-style trace file.

    ``engine="columnar"`` (default) bulk parses via
    :mod:`repro.trace.columnar` — exactly equivalent to the per-line
    parser, to which it falls back on any input it cannot reproduce
    bit-for-bit; ``engine="reference"`` forces the per-line parser.
    """
    check_choice("engine", engine, PARSE_ENGINES)
    path = Path(path)
    parse = parse_cloudphysics_lines
    if engine == "columnar":
        from repro.trace.columnar import parse_cloudphysics_text as parse
    with path.open() as handle:  # read block by block, never held whole
        return parse(
            handle,
            name=path.stem,
            max_ops=max_ops,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )
