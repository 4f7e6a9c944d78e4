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

from repro.core.outcomes import SimStats
from repro.trace.trace import Trace


class LogSensitivity(enum.Enum):
    """The paper's three-way workload classification."""

    LOG_FRIENDLY = "log-friendly"
    LOG_AGNOSTIC = "log-agnostic"
    LOG_SENSITIVE = "log-sensitive"


def classify_saf(
    total_saf: float,
    friendly_below: float = 0.9,
    sensitive_above: float = 1.1,
) -> LogSensitivity:
    """Classify a workload by its total seek amplification factor."""
    if total_saf < 0:
        raise ValueError(f"total_saf must be >= 0, got {total_saf}")
    if friendly_below >= sensitive_above:
        raise ValueError("friendly_below must be < sensitive_above")
    if total_saf <= friendly_below:
        return LogSensitivity.LOG_FRIENDLY
    if total_saf >= sensitive_above:
        return LogSensitivity.LOG_SENSITIVE
    return LogSensitivity.LOG_AGNOSTIC


def classify_stats(translated: SimStats, baseline: SimStats) -> LogSensitivity:
    """Classify from two replays (translated vs conventional baseline)."""
    from repro.core.metrics import seek_amplification

    return classify_saf(seek_amplification(translated, baseline).total)


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


#: (op, block) pairs expanded at a time: bounds the scratch arrays whatever
#: the trace's size or its largest request.
_SLAB_PAIRS = 1 << 18


def _block_pairs(ops: np.ndarray, first_block: np.ndarray, n_blocks: np.ndarray):
    """Yield ``(op, block)`` arrays — one pair per 4 KiB block each of ``ops``
    touches, in op order — ``_SLAB_PAIRS`` pairs at a time (a slab boundary
    may fall inside one request)."""
    first_block, n_blocks = first_block[ops], n_blocks[ops]
    ends = np.cumsum(n_blocks)
    for lo in range(0, int(ends[-1]) if len(ends) else 0, _SLAB_PAIRS):
        pair = np.arange(lo, min(lo + _SLAB_PAIRS, int(ends[-1])))
        at = np.searchsorted(ends, pair, side="right")
        yield ops[at], first_block[at] + n_blocks[at] - (ends[at] - pair)


def characterize(trace: Trace) -> WorkloadCharacter:
    """Extract the predictive features from a trace's columns (memory
    follows the blocks the trace writes, never its highest LBA)."""
    is_read, lba, length = trace.as_arrays()
    reads, writes = trace.read_count, trace.write_count
    first_block = lba // 8
    n_blocks = (lba + length - 1) // 8 - first_block + 1
    read_ops, write_ops = np.flatnonzero(is_read), np.flatnonzero(~is_read)

    read_lba = lba[read_ops]
    read_end = read_lba + length[read_ops]
    sequential_reads = int(np.count_nonzero(read_lba[1:] == read_end[:-1]))

    # Every block written, sorted, with the op that wrote it first (pairs come
    # in op order, so the first occurrence is the first writer).  The sentinel
    # sorts last and is "written" after the trace, so a lookup always lands.
    blocks, writers = [np.array([np.iinfo(np.int64).max])], [np.array([len(lba)])]
    for op, block in _block_pairs(write_ops, first_block, n_blocks):
        distinct, at = np.unique(block, return_index=True)
        blocks.append(distinct)
        writers.append(op[at])
    written, at = np.unique(np.concatenate(blocks), return_index=True)
    first_writer = np.concatenate(writers)[at]
    # A write pair overwrites unless it is its block's first.
    overwritten = 8 * (int(n_blocks[write_ops].sum()) - (len(written) - 1))

    written_before = np.zeros(len(lba), dtype=np.int64)  # blocks, per read
    for op, block in _block_pairs(read_ops, first_block, n_blocks):
        at = np.searchsorted(written, block)
        before = (written[at] == block) & (first_writer[at] < op)
        np.add.at(written_before, op[before], 1)
    mixed = (0 < written_before) & (written_before < n_blocks)
    written_total = int(length[write_ops].sum())
    return WorkloadCharacter(
        write_intensity=(writes / reads) if reads else float("inf"),
        sequential_read_share=(sequential_reads / reads) if reads else 0.0,
        overwrite_ratio=(overwritten / written_total) if written_total else 0.0,
        mixed_read_share=(int(mixed.sum()) / reads) if reads else 0.0,
        read_fraction=reads / max(1, reads + writes),
    )
