"""Shared error policy for the trace parsers.

Real trace dumps are dirty: truncated final lines, non-numeric fields,
zero-length I/Os, offsets past the end of the disk.  Every parser in
:mod:`repro.trace` routes malformed records through one of three policies:

* ``strict`` — raise :class:`TraceParseError` on the first bad record
  (the historical behaviour, and the default).
* ``lenient`` — skip bad records, counting them in a :class:`ParseReport`
  and keeping the first few as :class:`ParseIssue` samples.
* ``quarantine`` — like ``lenient``, but additionally capture every bad
  raw line verbatim so it can be inspected or re-parsed later.

A :class:`ParseReport` accounts for every candidate record exactly once::

    report.records == report.accepted + report.skipped
                      + report.quarantined + report.filtered

``filtered`` counts well-formed records dropped on purpose (disk-number
filter); blank lines and ``#`` comments are never counted as records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.util.validation import check_choice

PARSE_POLICIES = ("strict", "lenient", "quarantine")
"""Valid values for the parsers' ``policy`` argument."""

PARSE_ENGINES = ("columnar", "reference")
"""Valid values for the file parsers' ``engine`` argument: ``columnar``
bulk parses via :mod:`repro.trace.columnar` (exactly equivalent, with
wholesale fallback), ``reference`` forces the per-line parsers."""

_MAX_RAW_LINE = 200  # sample/quarantine storage truncates huge raw lines


class TraceParseError(ValueError):
    """A malformed trace record under the ``strict`` policy.

    Attributes:
        source: Trace name the parser was given.
        line_no: 1-based line number of the offending record.
        line: The raw line (truncated to a sane length).
        reason: Human-readable description of the defect.
    """

    def __init__(self, source: str, line_no: int, line: str, reason: str) -> None:
        super().__init__(f"{source}:{line_no}: {reason}")
        self.source = source
        self.line_no = line_no
        self.line = line[:_MAX_RAW_LINE]
        self.reason = reason


@dataclass(frozen=True)
class ParseIssue:
    """One malformed record retained in a :class:`ParseReport`."""

    line_no: int
    reason: str
    line: str


@dataclass
class ParseReport:
    """Accounting of one parse run (see module docstring for the invariant).

    Attributes:
        name: Trace name the parser was given.
        policy: The error policy in force.
        records: Candidate records seen (blank/comment lines excluded).
        accepted: Records converted into requests.
        skipped: Malformed records dropped under ``lenient``.
        quarantined: Malformed records captured under ``quarantine``
            (count; the raw lines are in ``quarantine``).
        filtered: Well-formed records intentionally dropped (e.g. the MSR
            disk-number filter).
        errors: First ``max_error_samples`` malformed records, any policy.
        quarantine: Every malformed raw line, ``quarantine`` policy only.
    """

    name: str = "trace"
    policy: str = "strict"
    records: int = 0
    accepted: int = 0
    skipped: int = 0
    quarantined: int = 0
    filtered: int = 0
    errors: List[ParseIssue] = field(default_factory=list)
    quarantine: List[ParseIssue] = field(default_factory=list)
    max_error_samples: int = 10

    def __post_init__(self) -> None:
        check_choice("policy", self.policy, PARSE_POLICIES)

    @property
    def malformed(self) -> int:
        """Total bad records encountered (skipped + quarantined)."""
        return self.skipped + self.quarantined

    def note_record(self) -> None:
        """Count one candidate (non-blank, non-comment) input record."""
        self.records += 1

    def note_accepted(self) -> None:
        self.accepted += 1

    def note_filtered(self) -> None:
        self.filtered += 1

    def note_error(self, line_no: int, line: str, reason: str) -> None:
        """Account one malformed record per the policy.

        Raises :class:`TraceParseError` under ``strict``; otherwise counts
        the record, samples it into ``errors``, and (under ``quarantine``)
        captures the raw line.
        """
        if self.policy == "strict":
            raise TraceParseError(self.name, line_no, line, reason)
        issue = ParseIssue(line_no=line_no, reason=reason, line=line[:_MAX_RAW_LINE])
        if len(self.errors) < self.max_error_samples:
            self.errors.append(issue)
        if self.policy == "quarantine":
            self.quarantined += 1
            self.quarantine.append(issue)
        else:
            self.skipped += 1


def make_report(
    report: Optional[ParseReport], name: str, policy: str
) -> ParseReport:
    """Return ``report`` or a fresh one; either way validate the policy.

    Parsers call this so a caller may pass a pre-made report (to aggregate
    several files into one accounting) or none at all.
    """
    check_choice("policy", policy, PARSE_POLICIES)
    if report is None:
        return ParseReport(name=name, policy=policy)
    report.policy = policy
    return report


def check_geometry(
    lba: int, length: int, capacity_sectors: Optional[int]
) -> Optional[str]:
    """Validate a record's address range against the disk geometry.

    Returns an error reason string for out-of-range records, or None when
    the record fits (or no capacity was given).  Negative LBAs are always
    out of range.
    """
    if lba < 0:
        return f"lba must be >= 0, got {lba}"
    if capacity_sectors is not None and lba + length > capacity_sectors:
        return (
            f"record [{lba}, {lba + length}) exceeds disk capacity "
            f"{capacity_sectors} sectors"
        )
    return None
