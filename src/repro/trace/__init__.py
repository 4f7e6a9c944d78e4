"""Block I/O trace infrastructure.

Provides the :class:`~repro.trace.record.IORequest` record type shared by the
whole simulator, an in-memory :class:`~repro.trace.trace.Trace` container,
parsers for the MSR Cambridge and CloudPhysics-style CSV formats the paper
uses, a generic CSV reader/writer, and trace statistics (the Table I columns).
"""

from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace, TraceColumns
from repro.trace.errors import (
    PARSE_ENGINES,
    PARSE_POLICIES,
    ParseIssue,
    ParseReport,
    TraceParseError,
)
from repro.trace.columnar import (
    COLUMNAR_PARSER_VERSION,
    parse_cloudphysics_text,
    parse_csv_text,
    parse_msr_text,
)
from repro.trace.store import TraceStore, file_meta, load_trace, synthetic_meta
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.csvio import read_csv_trace, write_csv_trace
from repro.trace.msr import parse_msr_file, parse_msr_lines
from repro.trace.cloudphysics import parse_cloudphysics_file, parse_cloudphysics_lines
from repro.trace.writers import write_msr_trace, write_cloudphysics_trace

__all__ = [
    "IORequest",
    "OpType",
    "Trace",
    "COLUMNAR_PARSER_VERSION",
    "TraceColumns",
    "TraceStore",
    "parse_msr_text",
    "parse_cloudphysics_text",
    "parse_csv_text",
    "file_meta",
    "synthetic_meta",
    "load_trace",
    "PARSE_ENGINES",
    "PARSE_POLICIES",
    "ParseIssue",
    "ParseReport",
    "TraceParseError",
    "TraceStats",
    "compute_stats",
    "read_csv_trace",
    "write_csv_trace",
    "parse_msr_file",
    "parse_msr_lines",
    "parse_cloudphysics_file",
    "parse_cloudphysics_lines",
    "write_msr_trace",
    "write_cloudphysics_trace",
]
