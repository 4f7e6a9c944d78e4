"""Workload taxonomy (paper §I/§III).

The paper sorts workloads into three groups by their response to
log-structured translation: *log-friendly* (a net decrease in seeks),
*log-sensitive* (amplifications of 10x or more in the extreme) and
*log-agnostic* (little change).  This module derives the classification
from replay results, and extracts the trace-level features that predict
it — write intensity (§V's explanation for the MSR group), sequential-read
share (§III's amplification mechanism) and overwrite ratio (what creates
fragments at all).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.trace.trace import Trace
from repro.util.cells import cells, cover, range_min_max


class LogSensitivity(enum.Enum):
    """The paper's three-way workload classification."""

    LOG_FRIENDLY = "log-friendly"
    LOG_AGNOSTIC = "log-agnostic"
    LOG_SENSITIVE = "log-sensitive"


#: Total SAF at or below which a workload is log-friendly, and at or above
#: which it is log-sensitive; between them it is log-agnostic.
FRIENDLY_BELOW, SENSITIVE_ABOVE = 0.9, 1.1


def classify_saf(total_saf: float) -> LogSensitivity:
    """Classify a workload by its total seek amplification factor."""
    if total_saf < 0:
        raise ValueError(f"total_saf must be >= 0, got {total_saf}")
    if total_saf <= FRIENDLY_BELOW:
        return LogSensitivity.LOG_FRIENDLY
    if total_saf >= SENSITIVE_ABOVE:
        return LogSensitivity.LOG_SENSITIVE
    return LogSensitivity.LOG_AGNOSTIC


@dataclass(frozen=True)
class WorkloadCharacter:
    """Trace-level features that predict log sensitivity.

    Attributes:
        write_intensity: Writes per read (high → log-friendly, §V).
        sequential_read_share: Fraction of reads starting exactly where
            the previous read ended (high → scan-heavy → log-sensitive,
            §III).
        overwrite_ratio: Fraction of written sectors that overwrite
            sectors already written in the trace (what fragments the
            logical space).
        mixed_read_share: Fraction of reads that straddle written and
            never-written space — a trace-level proxy for reads that will
            cross physical fragment boundaries under log translation.
        read_fraction: Reads / all ops.
    """

    write_intensity: float
    sequential_read_share: float
    overwrite_ratio: float
    mixed_read_share: float
    read_fraction: float

    def predicted_sensitivity(self) -> LogSensitivity:
        """Heuristic prediction from features alone (no replay).

        Write-dominant workloads benefit from sequential logging
        (§V: back-to-back writes are free); read workloads suffer when
        their reads are ordered scans over overwritten space or straddle
        fragment boundaries.  Validated against actual SAF classes in
        tests/integration.
        """
        if self.write_intensity >= 2.25:
            return LogSensitivity.LOG_FRIENDLY
        scan_pressure = self.sequential_read_share * min(
            1.0, self.overwrite_ratio * 4
        )
        pressure = max(scan_pressure, self.mixed_read_share)
        if self.read_fraction >= 0.4 and pressure >= 0.25:
            return LogSensitivity.LOG_SENSITIVE
        if pressure >= 0.45:
            return LogSensitivity.LOG_SENSITIVE
        return LogSensitivity.LOG_FRIENDLY


def characterize(trace: Trace) -> WorkloadCharacter:
    """Extract the predictive features from a trace's columns.

    Scratch memory is O(requests): never the number of 4 KiB blocks the
    requests span, nor the trace's highest LBA.  The write block ranges cut
    the LBA line into elementary cells, each labelled with the op that
    wrote it first; a read is mixed iff the labels over its cells (an
    uncovered part counting as never written) fall on both sides of it.
    """
    is_read, lba, length = trace.as_arrays()
    reads, writes = trace.read_count, trace.write_count
    first_block = lba // 8
    end_block = (lba + length - 1) // 8 + 1
    read_ops, write_ops = np.flatnonzero(is_read), np.flatnonzero(~is_read)

    read_lba = lba[read_ops]
    read_end = read_lba + length[read_ops]
    sequential_reads = int(np.count_nonzero(read_lba[1:] == read_end[:-1]))

    overwritten = mixed = 0
    if len(write_ops):
        # Rows are the write ops in op order, so the least row covering a
        # cell is its first writer; a cell no write covers gets len(lba),
        # "written" after the trace.
        cuts, first, last = cells(first_block[write_ops], end_block[write_ops])
        row = cover(first, last, len(cuts) - 1, len(write_ops))
        writer = np.append(write_ops, len(lba))[row]
        # A written block overwrites unless it is the first write to it.
        written = int(np.diff(cuts)[row < len(write_ops)].sum())
        overwritten = 8 * (int((end_block - first_block)[write_ops].sum()) - written)

        read_first, read_last = first_block[read_ops], end_block[read_ops]
        lo = np.maximum(np.searchsorted(cuts, read_first, side="right") - 1, 0)
        hi = np.minimum(np.searchsorted(cuts, read_last), len(cuts) - 1)
        inside = np.flatnonzero(lo < hi)  # the other reads see no write at all
        low, high = range_min_max(writer, lo[inside], hi[inside])
        outside = (read_first[inside] < cuts[0]) | (read_last[inside] > cuts[-1])
        high[outside] = len(lba)
        op = read_ops[inside]
        mixed = int(np.count_nonzero((low < op) & (op < high)))
    written_total = int(length[write_ops].sum())
    return WorkloadCharacter(
        write_intensity=(writes / reads) if reads else float("inf"),
        sequential_read_share=(sequential_reads / reads) if reads else 0.0,
        overwrite_ratio=(overwritten / written_total) if written_total else 0.0,
        mixed_read_share=(mixed / reads) if reads else 0.0,
        read_fraction=reads / max(1, reads + writes),
    )
