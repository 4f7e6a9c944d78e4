"""Columnar bulk trace parsers.

The per-line parsers in :mod:`repro.trace.msr`, :mod:`repro.trace.cloudphysics`
and :mod:`repro.trace.csvio` are easy to audit but slow on real dumps: every
record costs a ``str.split``, five scalar conversions, a handful of
:class:`~repro.trace.errors.ParseReport` method calls and an
:class:`~repro.trace.record.IORequest` construction (with its
``__post_init__`` validation).  On the paper's multi-million-op MSR /
CloudPhysics traces that per-record Python work dominates the whole
pipeline now that replay itself is vectorized (:mod:`repro.core.batch`).

This module parses a trace as a **stream of newline-aligned blocks**, one
driver (:func:`_parse_blocks`) for the three dialects:

1. read ``_BLOCK_CHARS`` characters plus the rest of the line they end in —
   from the open text file (so decoding and newline translation are the
   reference parser's own) or from a slice of an in-memory string;
2. a block that a handful of whole-buffer tests prove to hold candidate
   lines only (ASCII, no comment mark, quote, CR or whitespace other than
   the newlines) goes to numpy's compiled CSV engine (``np.loadtxt``) as
   bytes, no ``str`` per line; any other block is first filtered line by
   line the way the reference parser skips blanks, comments and headers.
   The engine tokenizes and converts the needed columns in C with
   Python-identical ``int``/``float`` semantics (divergences — digit
   separators, non-ASCII digits, out-of-``int64``-range values — all raise
   and trigger the fallback; float conversion is correctly rounded in both);
3. the block is reduced to its final ``(timestamp, is_read, lba, length)``
   slice — op tokens parsed once per distinct 8-byte field — before the
   next block is read, so memory is bounded by the columns, and reading
   stops at the block holding the ``max_ops``-th accepted record.

The result is a :class:`~repro.trace.trace.Trace` built straight from the
columns (:meth:`~repro.trace.trace.Trace.from_columns`): vectorized
consumers (``as_arrays()``, the batch kernels, every
:mod:`repro.analysis.fast` kernel) read the columns and never pay for
per-record objects; the per-request simulator's iteration builds the
``IORequest`` list once, on first use.

**Exactness contract.**  The bulk parsers are *exactly* equivalent to the
per-line reference parsers, enforced by ``tests/differential/``.  They keep
that promise the same way :mod:`repro.core.batch` does — by refusing the
cases they cannot reproduce bit-for-bit: any malformed record, ragged field
counts, unknown op tokens, quoting, out-of-range addresses, anything a
conversion rejects, raises the internal :class:`_Fallback` and the whole
source is re-read by the reference per-line parser (identical errors, line
numbers and :class:`ParseReport` accounting; the report is not touched
before the bulk parse has succeeded).  Clean files — the common case by
far — never touch the fallback.

``COLUMNAR_PARSER_VERSION`` identifies the parse semantics for the
compiled-trace store (:mod:`repro.trace.store`); bump it whenever a bulk
parser's observable output could change.
"""

from __future__ import annotations

import io
from typing import Iterator, List, NamedTuple, Optional, TextIO, Union

import numpy as np

from repro.trace.errors import ParseReport, make_report
from repro.trace.record import OpType
from repro.trace.trace import Trace, TraceColumns
from repro.util.units import SECTOR_BYTES

#: Identity of the bulk-parse semantics, recorded in compiled-trace store
#: headers so a parser change invalidates previously compiled traces.
COLUMNAR_PARSER_VERSION = 1


class _Fallback(Exception):
    """Internal: the input needs the per-line reference parser."""


#: The constructor ``bench/verify.py`` builds its column traces with.
ColumnarTrace = Trace.from_columns


# --------------------------------------------------------------------- #
# The block driver
# --------------------------------------------------------------------- #

#: Characters read per block (each block then runs on to the end of its last
#: line).  Transient parse memory is a few blocks, whatever the file size.
_BLOCK_CHARS = 1 << 18

#: ASCII characters whose presence sends a block through the line filter:
#: the comment mark, the csv quote, CR and everything ``str.strip`` strips
#: apart from the newline itself.
_SUSPECT = '#"\r \t\x0b\x0c\x1c\x1d\x1e\x1f'

#: Op tokens are read into 8-byte fields, deduplicated as integers.  Longer
#: fields are silently truncated by numpy, so a full-width one falls back.
_OP_DTYPE = "S8"

#: What gets parsed: text in memory, or a text-mode file open at its start.
TextSource = Union[str, TextIO]


class _Format(NamedTuple):
    """What the driver needs to know about one dialect."""

    #: ``np.loadtxt`` row dtype — ``stamp``, optionally ``disk``, ``op``,
    #: ``lba``, ``length`` — and the file columns it reads.  ``usecols``
    #: reaches the reference's minimum field count, so a shorter line makes
    #: the engine raise -> fallback.
    dtype: list
    usecols: tuple
    #: Bytes per address unit: ``lba``/``length`` are divided down to sectors.
    unit: int
    #: ``stamp`` units per second, rebased to the first accepted record;
    #: None when stamps are seconds already and are kept as they are.
    ticks_per_second: Optional[float]
    #: First fields (stripped, lowered) that mark a header line, and where
    #: such a line is skipped: anywhere, or — with the csv module's other
    #: habits: lines not stripped, quotes and CR special — on line 1 only.
    header_tokens: tuple
    csv_dialect: bool


_MSR = _Format(
    # ticks, hostname (unused), disk, op, offset_bytes, size_bytes
    dtype=[("stamp", np.int64), ("disk", np.int64), ("op", _OP_DTYPE),
           ("lba", np.int64), ("length", np.int64)],
    usecols=(0, 2, 3, 4, 5),
    unit=SECTOR_BYTES,
    ticks_per_second=10_000_000,  # Windows FILETIME resolution: 100 ns
    header_tokens=(),
    csv_dialect=False,
)
_TS_OP_LBA_LEN = dict(
    dtype=[("stamp", np.float64), ("op", _OP_DTYPE), ("lba", np.int64), ("length", np.int64)],
    usecols=(0, 1, 2, 3),
    unit=1,
)
_CLOUDPHYSICS = _Format(
    ticks_per_second=1e6,
    header_tokens=("timestamp_us", "timestamp", "ts"),
    csv_dialect=False,
    **_TS_OP_LBA_LEN,
)
_CSV = _Format(
    ticks_per_second=None, header_tokens=("timestamp",), csv_dialect=True, **_TS_OP_LBA_LEN
)


def _blocks(source: TextSource) -> Iterator[str]:
    """Cut ``source`` into blocks that end where a line ends."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            cut = source.find("\n", start + _BLOCK_CHARS) + 1 or len(source)
            yield source[start:cut]
            start = cut
        return
    while True:
        block = source.read(_BLOCK_CHARS)
        if not block:
            return
        yield block + source.readline()


def _rewound(source: TextSource) -> TextIO:
    """``source`` from its start again, as the reference parsers read it."""
    if isinstance(source, str):
        return io.StringIO(source)
    source.seek(0)
    return source


def _load_table(lines, fmt: _Format) -> np.ndarray:
    """Parse lines with numpy's compiled CSV engine (the one place it is
    called).  Anything the engine rejects — ragged field counts, malformed
    numbers, int64 overflow — raises :class:`_Fallback`."""
    try:
        return np.loadtxt(
            lines,
            delimiter=",",
            dtype=fmt.dtype,
            usecols=fmt.usecols,
            comments=None,
            ndmin=1,
        )
    except ValueError:
        raise _Fallback from None


def _candidates(block: str, first: bool, fmt: _Format) -> List[str]:
    """The lines of ``block`` the reference parser counts as records."""
    lines = block.split("\n")
    if fmt.csv_dialect:
        if '"' in block or "\r" in block:
            raise _Fallback  # quoting / exotic newlines: csv.reader territory
    else:
        lines = map(str.strip, lines)
    candidates = []
    for index, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        if (first and index == 0) or not fmt.csv_dialect:
            if line.split(",", 1)[0].strip().lower() in fmt.header_tokens:
                continue
        candidates.append(line)
    return candidates


def _block_table(block: str, first: bool, fmt: _Format) -> Optional[np.ndarray]:
    """Tokenize one block (``first``: it starts the source); None if it
    holds no candidate line."""
    if "\0" in block:
        raise _Fallback  # an S-dtype field ends at a NUL: "r\0" would read "r"
    if fmt.csv_dialect and "\r" in block:
        # csv.writer's own line ending; a CR left over is csv.reader's to judge.
        block = block.replace("\r\n", "\n")
    if block.isascii() and not any(ch in block for ch in _SUSPECT):
        # Every line is a candidate or empty (the engine skips those too),
        # bar a header: one opening the source is cut off here, one further
        # down makes the engine raise and the filter below deals with it.
        body = block
        if first and fmt.header_tokens:
            head = block[: block.find("\n") + 1 or len(block)]
            if head.split(",", 1)[0].strip().lower() in fmt.header_tokens:
                body = block[len(head):]
        body = body.lstrip("\n")  # the engine warns when handed no data
        if not body:
            return None
        try:
            return _load_table(io.BytesIO(body.encode()), fmt)
        except _Fallback:
            pass
    candidates = _candidates(block, first, fmt)
    if not candidates:
        return None
    table = _load_table(candidates, fmt)
    if len(table) != len(candidates):
        # The engine skipped a line it considers empty or split one at a
        # CR: either breaks per-line record accounting.
        raise _Fallback
    return table


def _fold_ops(column: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`OpType.parse`: bool is_read column or fallback.

    A trace spells its ops a handful of ways, so the parse itself runs once
    per distinct token, not once per row.
    """
    codes, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    is_read = np.empty(len(codes), dtype=bool)
    for index, token in enumerate(codes.view(_OP_DTYPE).tolist()):
        if len(token) == 8:
            raise _Fallback  # possibly the head of a longer field
        try:
            is_read[index] = OpType.parse(token.decode("latin1")).is_read
        except ValueError:
            raise _Fallback from None
    return is_read[inverse]


def _parse_blocks(
    fmt: _Format,
    source: TextSource,
    name: str,
    report: ParseReport,
    max_ops: Optional[int],
    disk_number: Optional[int],
    capacity_sectors: Optional[int],
) -> Trace:
    """Bulk-parse ``source`` block by block, or raise :class:`_Fallback`
    (``report`` is written only once every block read has parsed clean)."""
    # The reference checks the bound only *after* an append, so
    # ``max_ops <= 0`` behaves like 1.
    limit = None if max_ops is None else max(max_ops, 1)
    records = accepted = 0
    first_stamp = None
    parts = []
    for index, block in enumerate(_blocks(source)):
        table = _block_table(block, index == 0, fmt)
        if table is None:
            continue
        stamp, lba, length = table["stamp"], table["lba"], table["length"]
        if int(length.min()) <= 0:
            raise _Fallback  # zero/negative sizes need per-line error accounting
        is_read = _fold_ops(table["op"])
        if fmt.unit != 1:
            lba = lba // fmt.unit
            length = -(-length // fmt.unit)  # bytes_to_sectors, vectorized
        # Vectorized repro.trace.errors.check_geometry.
        if int(lba.min()) < 0:
            raise _Fallback
        if capacity_sectors is not None and int((lba + length).max()) > capacity_sectors:
            raise _Fallback
        if disk_number is None:
            keep = np.arange(len(table))
        else:
            keep = np.flatnonzero(table["disk"] == disk_number)
        consumed = len(table)
        if limit is not None and accepted + len(keep) >= limit:
            # The reference breaks out right after appending the limit-th
            # request: later lines are never read, let alone counted.
            keep = keep[: limit - accepted]
            consumed = int(keep[-1]) + 1
        records += consumed
        accepted += len(keep)
        if len(keep):
            stamp = stamp[keep]
            if fmt.ticks_per_second is not None:
                if first_stamp is None:
                    first_stamp = stamp[0].item()
                ticks = stamp - first_stamp
                stamp = ticks / fmt.ticks_per_second
                # Past 2**53 the int64 -> float64 cast rounds before the
                # division does; the reference divides Python ints (once).
                wide = np.flatnonzero(np.abs(ticks) >= 1 << 53)
                stamp[wide] = [t / fmt.ticks_per_second for t in ticks[wide].tolist()]
            # Indexing by ``keep`` copies: no part pins its block's table.
            parts.append((stamp, is_read[keep], lba[keep], length[keep]))
        if accepted == limit:
            break
    if parts:
        columns = TraceColumns(*map(np.concatenate, zip(*parts)))
    else:
        columns = TraceColumns((), (), (), ())  # the constructor sets the dtypes
    trace = Trace.from_columns(columns, name=name)
    report.records += records
    report.accepted += accepted
    report.filtered += records - accepted
    trace.parse_report = report
    return trace


# --------------------------------------------------------------------- #
# The three dialects
# --------------------------------------------------------------------- #


def parse_msr_text(
    text: TextSource,
    name: str = "msr",
    disk_number: Optional[int] = None,
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Bulk-parse MSR-format CSV text (see :func:`repro.trace.msr.parse_msr_lines`).

    ``text`` is the text itself or a text-mode file open at its start (how
    :func:`~repro.trace.msr.parse_msr_file` streams a file it never holds
    whole).  Clean input returns a column-built :class:`Trace`; anything the
    bulk path cannot reproduce exactly is re-parsed by the per-line
    reference parser (identical results, reports and errors either way).
    """
    report = make_report(report, name, policy)
    try:
        return _parse_blocks(
            _MSR, text, name, report, max_ops, disk_number, capacity_sectors
        )
    except _Fallback:
        from repro.trace.msr import parse_msr_lines

        return parse_msr_lines(
            _rewound(text),
            name=name,
            disk_number=disk_number,
            max_ops=max_ops,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )


def parse_cloudphysics_text(
    text: TextSource,
    name: str = "cloudphysics",
    max_ops: Optional[int] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Bulk-parse CloudPhysics-style CSV text or open text file (see
    :func:`repro.trace.cloudphysics.parse_cloudphysics_lines`)."""
    report = make_report(report, name, policy)
    try:
        return _parse_blocks(_CLOUDPHYSICS, text, name, report, max_ops, None, capacity_sectors)
    except _Fallback:
        from repro.trace.cloudphysics import parse_cloudphysics_lines

        return parse_cloudphysics_lines(
            _rewound(text),
            name=name,
            max_ops=max_ops,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )


def parse_csv_text(
    text: TextSource,
    name: str = "trace",
    report_name: Optional[str] = None,
    policy: str = "strict",
    capacity_sectors: Optional[int] = None,
    report: Optional[ParseReport] = None,
) -> Trace:
    """Bulk-parse native-format CSV text or open ``newline=""`` text file
    (see :func:`repro.trace.csvio.read_csv_trace`).

    ``report_name`` overrides the name used in the parse report / error
    messages (the file reader passes the full path there, per the
    reference behaviour).
    """
    report = make_report(report, report_name or name, policy)
    try:
        return _parse_blocks(_CSV, text, name, report, None, None, capacity_sectors)
    except _Fallback:
        import csv

        from repro.trace.csvio import read_csv_rows

        return read_csv_rows(
            csv.reader(_rewound(text)),
            trace_name=name,
            policy=policy,
            capacity_sectors=capacity_sectors,
            report=report,
        )
