"""Columnar bulk trace parsers and the lazily-materialized trace they feed.

The per-line parsers in :mod:`repro.trace.msr`, :mod:`repro.trace.cloudphysics`
and :mod:`repro.trace.csvio` are easy to audit but slow on real dumps: every
record costs a ``str.split``, five scalar conversions, a handful of
:class:`~repro.trace.errors.ParseReport` method calls and an
:class:`~repro.trace.record.IORequest` construction (with its
``__post_init__`` validation).  On the paper's multi-million-op MSR /
CloudPhysics traces that per-record Python work dominates the whole
pipeline now that replay itself is vectorized (:mod:`repro.core.batch`).

This module parses **whole files at once** into numpy column arrays:

1. split the text into candidate lines (blank/comment/header lines removed),
2. hand the candidate list to numpy's compiled CSV engine
   (``np.loadtxt``), which tokenizes and converts the needed columns in C
   with Python-identical ``int``/``float`` semantics (divergences — digit
   separators, non-ASCII digits, out-of-``int64``-range values — all raise
   and trigger the fallback; float conversion is correctly rounded in both),
3. fold the op-token column to booleans with one deduplicated
   token-set membership test instead of n scalar comparisons.

The result feeds a :class:`ColumnarTrace` — a :class:`~repro.trace.trace.Trace`
whose request list is **lazy**: vectorized consumers (``as_arrays()``, the
batch NoLS kernel, every :mod:`repro.analysis.fast` kernel) read the columns
directly and never pay for per-record objects; reference-path consumers
(the per-request simulator, ``trace.requests``) trigger materialization
transparently.

**Exactness contract.**  The bulk parsers are *exactly* equivalent to the
per-line reference parsers, enforced by ``tests/differential/``.  They keep
that promise the same way :mod:`repro.core.batch` does — by refusing the
cases they cannot reproduce bit-for-bit: any malformed record, ragged field
counts, unknown op tokens, quoting, out-of-range addresses, anything a
conversion rejects, raises the internal :class:`_Fallback` and the whole
parse is redone by the reference per-line parser (identical errors, line
numbers and :class:`ParseReport` accounting).  Clean files — the common
case by far — never touch the fallback.

``COLUMNAR_PARSER_VERSION`` identifies the parse semantics for the
compiled-trace store (:mod:`repro.trace.store`); bump it whenever a bulk
parser's observable output could change.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.trace.errors import ParseReport, make_report
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.util.units import SECTOR_BYTES

#: Identity of the bulk-parse semantics, recorded in compiled-trace store
#: headers so a parser change invalidates previously compiled traces.
COLUMNAR_PARSER_VERSION = 1

_TICKS_PER_SECOND = 10_000_000  # Windows FILETIME resolution: 100 ns

_READ_TOKENS = np.array(["r", "read", "rd", "0"])
_WRITE_TOKENS = np.array(["w", "write", "wr", "1"])
_CP_HEADER_TOKENS = ("timestamp_us", "timestamp", "ts")


class _Fallback(Exception):
    """Internal: the input needs the per-line reference parser."""


class TraceColumns:
    """The four parallel column arrays describing a trace.

    All arrays are made read-only on construction and share one length:
    ``timestamp`` (float64 seconds), ``is_read`` (bool), ``lba`` and
    ``length`` (int64 sectors).  This is the unit of exchange between the
    bulk parsers, :class:`ColumnarTrace` and the compiled-trace store.
    """

    __slots__ = ("timestamp", "is_read", "lba", "length")

    def __init__(self, timestamp, is_read, lba, length) -> None:
        timestamp = np.ascontiguousarray(timestamp, dtype=np.float64)
        is_read = np.ascontiguousarray(is_read, dtype=bool)
        lba = np.ascontiguousarray(lba, dtype=np.int64)
        length = np.ascontiguousarray(length, dtype=np.int64)
        n = len(timestamp)
        if not (len(is_read) == len(lba) == len(length) == n):
            raise ValueError(
                "column lengths differ: "
                f"{n}/{len(is_read)}/{len(lba)}/{len(length)}"
            )
        for column in (timestamp, is_read, lba, length):
            column.setflags(write=False)
        self.timestamp = timestamp
        self.is_read = is_read
        self.lba = lba
        self.length = length

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls((), (), (), ())  # the constructor sets the dtypes

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceColumns":
        """Extract columns from any trace (free for a :class:`ColumnarTrace`)."""
        if isinstance(trace, ColumnarTrace):
            return trace.columns
        is_read, lba, length = trace.as_arrays()
        return cls(trace.timestamps(), is_read, lba, length)

    def select(self, index) -> "TraceColumns":
        """Columns for ``trace[index]``-style slicing or boolean masking."""
        return TraceColumns(
            self.timestamp[index],
            self.is_read[index],
            self.lba[index],
            self.length[index],
        )


class ColumnarTrace(Trace):
    """A trace backed by :class:`TraceColumns`, materialized lazily.

    Everything the vectorized paths need — ``len``, ``as_arrays()``,
    ``timestamps()``, ``max_end``, ``read_count``/``write_count``, slicing,
    ``filter`` — is served straight from the columns.  The
    :class:`IORequest` list exists only once a reference-path consumer
    touches ``requests`` / iteration / scalar indexing, and is cached.
    """

    def __init__(self, columns: TraceColumns, name: str = "trace") -> None:
        self._columns = columns
        self._name = name
        self._max_end = None
        self._arrays = (columns.is_read, columns.lba, columns.length)
        self._timestamps = columns.timestamp
        self._materialized: Optional[List[IORequest]] = None
        self.parse_report = None

    @property
    def columns(self) -> TraceColumns:
        return self._columns

    @property
    def _requests(self) -> List[IORequest]:
        # Base-class methods (concat, requests, …) read self._requests;
        # serving it as a property keeps them working unmodified while
        # deferring materialization until one of them actually runs.
        if self._materialized is None:
            cols = self._columns
            read, write = OpType.READ, OpType.WRITE
            # .tolist() converts to Python scalars in C; the comprehension
            # is the one unavoidable per-record pass.
            self._materialized = [
                IORequest(t, read if r else write, a, l)
                for t, r, a, l in zip(
                    cols.timestamp.tolist(),
                    cols.is_read.tolist(),
                    cols.lba.tolist(),
                    cols.length.tolist(),
                )
            ]
        return self._materialized

    @property
    def materialized(self) -> bool:
        """True once the per-record ``IORequest`` list has been built."""
        return self._materialized is not None

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self._requests)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sliced = ColumnarTrace(self._columns.select(index), name=self._name)
            return sliced
        cols = self._columns
        i = int(index)
        return IORequest(
            timestamp=float(cols.timestamp[i]),
            op=OpType.READ if cols.is_read[i] else OpType.WRITE,
            lba=int(cols.lba[i]),
            length=int(cols.length[i]),
        )

    def __repr__(self) -> str:
        return f"ColumnarTrace(name={self._name!r}, n_ops={len(self._columns)})"

    def filter(self, op: OpType) -> "ColumnarTrace":
        mask = (
            self._columns.is_read
            if op is OpType.READ
            else ~self._columns.is_read
        )
        return ColumnarTrace(
            self._columns.select(mask), name=f"{self._name}.{op.value}"
        )

    def renamed(self, name: str) -> "ColumnarTrace":
        renamed = ColumnarTrace(self._columns, name=name)
        renamed._materialized = self._materialized
        return renamed


# --------------------------------------------------------------------- #
# Shared conversion helpers
# --------------------------------------------------------------------- #


#: Width of op-token string fields handed to ``np.loadtxt``.  Longer
#: fields are silently truncated by numpy, which could turn an invalid
#: token into a valid one — ``_parse_ops`` falls back on any full-width
#: token so truncation can never change the outcome.
_OP_WIDTH = 16

# CloudPhysics and the native CSV format share a leading
# timestamp,op,lba,length column layout (usecols needs index 3, so a line
# with fewer than the reference's four fields raises -> fallback).
_TS_OP_LBA_LEN = [
    ("ts", np.float64),
    ("op", f"U{_OP_WIDTH}"),
    ("lba", np.int64),
    ("length", np.int64),
]


def _load_table(candidates: Sequence[str], dtype, usecols) -> np.ndarray:
    """Parse candidate lines with numpy's compiled CSV engine.

    Anything the engine rejects — ragged field counts, malformed numbers,
    int64 overflow, quoting — raises :class:`_Fallback`.  A row-count
    mismatch (the engine silently skips lines it considers empty) falls
    back too, since it would break per-line record accounting.
    """
    try:
        table = np.loadtxt(
            candidates,
            delimiter=",",
            dtype=dtype,
            usecols=usecols,
            comments=None,
            ndmin=1,
        )
    except ValueError:
        raise _Fallback from None
    if len(table) != len(candidates):
        raise _Fallback
    return table


def _parse_ops(column: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`OpType.parse`: bool is_read column or fallback.

    Clean traces carry a handful of distinct op spellings, so the strip /
    lower / membership work runs on the deduplicated token set only.
    """
    unique, inverse = np.unique(column, return_inverse=True)
    if int(np.char.str_len(unique).max()) >= _OP_WIDTH:
        raise _Fallback  # field may have been truncated to the dtype width
    tokens = np.char.lower(np.char.strip(unique))
    is_read = np.isin(tokens, _READ_TOKENS)
    if not np.all(is_read | np.isin(tokens, _WRITE_TOKENS)):
        raise _Fallback
    return is_read[inverse]


def _check_geometry_bulk(
    lba: np.ndarray, length: np.ndarray, capacity_sectors: Optional[int]
) -> None:
    """Vectorized :func:`repro.trace.errors.check_geometry`; any violation
    needs per-line error accounting, so it falls back wholesale."""
    if len(lba) and int(lba.min()) < 0:
        raise _Fallback
    if capacity_sectors is not None and len(lba):
        if int((lba + length).max()) > capacity_sectors:
            raise _Fallback


def _truncate_at_max_ops(
    accepted: np.ndarray, max_ops: Optional[int]
) -> Optional[int]:
    """Candidate-line count the reference parser consumes under ``max_ops``.

    The reference breaks out of its loop immediately after appending the
    ``max_ops``-th request, so later lines are never counted as records.
    Returns the number of candidate lines consumed, or None for "all".
    (``max_ops <= 0`` behaves like 1: the reference checks the bound only
    *after* an append.)
    """
    if max_ops is None:
        return None
    effective = max(max_ops, 1)
    cumulative = np.cumsum(accepted)
    if not len(cumulative) or int(cumulative[-1]) < effective:
        return None
    return int(np.searchsorted(cumulative, effective, side="left")) + 1


def _finish_report(
    report: ParseReport, records: int, accepted: int, filtered: int = 0
) -> ParseReport:
    """Fold a clean bulk parse into the (possibly pre-made) report."""
    report.records += records
    report.accepted += accepted
    report.filtered += filtered
    return report


# --------------------------------------------------------------------- #
# MSR Cambridge
# --------------------------------------------------------------------- #


def parse_msr_text(
    text: str,
    name: str = "msr",
    disk_number: Optional[int] = None,
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Bulk-parse MSR-format CSV text (see :func:`repro.trace.msr.parse_msr_lines`).

    Clean input returns a lazy :class:`ColumnarTrace`; anything the bulk
    path cannot reproduce exactly is re-parsed by the per-line reference
    parser (identical results, reports and errors either way).
    """
    report = make_report(report, name, policy)
    try:
        return _parse_msr_fast(
            text, name, disk_number, max_ops, capacity_sectors, report
        )
    except _Fallback:
        from repro.trace.msr import parse_msr_lines

        return parse_msr_lines(
            text.split("\n"),
            name=name,
            disk_number=disk_number,
            max_ops=max_ops,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )


def _parse_msr_fast(
    text: str,
    name: str,
    disk_number: Optional[int],
    max_ops: Optional[int],
    capacity_sectors: Optional[int],
    report: ParseReport,
) -> Trace:
    candidates = [
        stripped
        for stripped in (line.strip() for line in text.split("\n"))
        if stripped and not stripped.startswith("#")
    ]
    if not candidates:
        trace = ColumnarTrace(TraceColumns.empty(), name=name)
        trace.parse_report = report
        return trace
    # Columns: ticks, hostname (unused), disk, op, offset_bytes, size_bytes.
    # usecols needs index 5, so any line with fewer than the reference's
    # six fields makes the engine raise -> fallback.
    table = _load_table(
        candidates,
        dtype=[
            ("ticks", np.int64),
            ("disk", np.int64),
            ("op", f"U{_OP_WIDTH}"),
            ("offset", np.int64),
            ("size", np.int64),
        ],
        usecols=(0, 2, 3, 4, 5),
    )
    ticks = table["ticks"]
    disk = table["disk"]
    is_read = _parse_ops(table["op"])
    offset_bytes = table["offset"]
    size_bytes = table["size"]
    if len(size_bytes) and int(size_bytes.min()) <= 0:
        raise _Fallback  # zero/negative sizes need per-line error accounting
    lba = offset_bytes // SECTOR_BYTES
    length = -(-size_bytes // SECTOR_BYTES)  # bytes_to_sectors, vectorized
    _check_geometry_bulk(lba, length, capacity_sectors)

    accepted_mask = (
        disk == disk_number if disk_number is not None else np.ones(len(ticks), bool)
    )
    stop = _truncate_at_max_ops(accepted_mask, max_ops)
    if stop is not None:
        accepted_mask = accepted_mask[:stop]
        ticks, is_read = ticks[:stop], is_read[:stop]
        lba, length = lba[:stop], length[:stop]
    records = len(accepted_mask)
    accepted = int(np.count_nonzero(accepted_mask))

    if accepted:
        first_ticks = int(ticks[accepted_mask.argmax()])
        timestamp = (ticks[accepted_mask] - first_ticks) / _TICKS_PER_SECOND
        columns = TraceColumns(
            timestamp,
            is_read[accepted_mask],
            lba[accepted_mask],
            length[accepted_mask],
        )
    else:
        columns = TraceColumns.empty()
    trace = ColumnarTrace(columns, name=name)
    trace.parse_report = _finish_report(
        report, records, accepted, filtered=records - accepted
    )
    return trace


# --------------------------------------------------------------------- #
# CloudPhysics
# --------------------------------------------------------------------- #


def parse_cloudphysics_text(
    text: str,
    name: str = "cloudphysics",
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Bulk-parse CloudPhysics-style CSV text (see
    :func:`repro.trace.cloudphysics.parse_cloudphysics_lines`)."""
    report = make_report(report, name, policy)
    try:
        return _parse_cloudphysics_fast(
            text, name, max_ops, capacity_sectors, report
        )
    except _Fallback:
        from repro.trace.cloudphysics import parse_cloudphysics_lines

        return parse_cloudphysics_lines(
            text.split("\n"),
            name=name,
            max_ops=max_ops,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )


def _parse_cloudphysics_fast(
    text: str,
    name: str,
    max_ops: Optional[int],
    capacity_sectors: Optional[int],
    report: ParseReport,
) -> Trace:
    candidates = []
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # The reference skips any line whose first field is a header token.
        if stripped.split(",", 1)[0].strip().lower() in _CP_HEADER_TOKENS:
            continue
        candidates.append(stripped)
    if not candidates:
        trace = ColumnarTrace(TraceColumns.empty(), name=name)
        trace.parse_report = report
        return trace
    table = _load_table(candidates, dtype=_TS_OP_LBA_LEN, usecols=(0, 1, 2, 3))
    ts_us = table["ts"]
    is_read = _parse_ops(table["op"])
    lba = table["lba"]
    length = table["length"]
    if len(length) and int(length.min()) <= 0:
        raise _Fallback
    _check_geometry_bulk(lba, length, capacity_sectors)

    stop = _truncate_at_max_ops(np.ones(len(ts_us), bool), max_ops)
    if stop is not None:
        ts_us, is_read = ts_us[:stop], is_read[:stop]
        lba, length = lba[:stop], length[:stop]
    records = len(ts_us)

    timestamp = (ts_us - ts_us[0]) / 1e6
    trace = ColumnarTrace(
        TraceColumns(timestamp, is_read, lba, length), name=name
    )
    trace.parse_report = _finish_report(report, records, records)
    return trace


# --------------------------------------------------------------------- #
# Native CSV
# --------------------------------------------------------------------- #


def parse_csv_text(
    text: str,
    name: str = "trace",
    report_name: Optional[str] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Bulk-parse native-format CSV text (see
    :func:`repro.trace.csvio.read_csv_trace`).

    ``report_name`` overrides the name used in the parse report / error
    messages (the file reader passes the full path there, per the
    reference behaviour).
    """
    report = make_report(report, report_name or name, policy)
    try:
        return _parse_csv_fast(text, name, capacity_sectors, report)
    except _Fallback:
        import csv
        import io

        from repro.trace.csvio import read_csv_rows

        trace = read_csv_rows(
            csv.reader(io.StringIO(text)),
            trace_name=name,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )
        return trace


def _parse_csv_fast(
    text: str,
    name: str,
    capacity_sectors: Optional[int],
    report: ParseReport,
) -> Trace:
    if '"' in text or "\r" in text:
        raise _Fallback  # quoting / exotic newlines: csv.reader territory
    lines = text.split("\n")
    candidates = []
    for line_no, line in enumerate(lines, start=1):
        if not line or line.split(",", 1)[0].startswith("#"):
            continue
        if line_no == 1 and line.split(",", 1)[0].strip().lower() == "timestamp":
            continue
        candidates.append(line)
    if not candidates:
        trace = ColumnarTrace(TraceColumns.empty(), name=name)
        trace.parse_report = report
        return trace
    table = _load_table(candidates, dtype=_TS_OP_LBA_LEN, usecols=(0, 1, 2, 3))
    timestamp = table["ts"]
    is_read = _parse_ops(table["op"])
    lba = table["lba"]
    length = table["length"]
    if len(length) and int(length.min()) <= 0:
        raise _Fallback
    _check_geometry_bulk(lba, length, capacity_sectors)

    trace = ColumnarTrace(
        TraceColumns(timestamp, is_read, lba, length), name=name
    )
    trace.parse_report = _finish_report(report, len(candidates), len(candidates))
    return trace
