"""Trace summary statistics — the columns of the paper's Table I.

Table I characterizes each workload by read/write operation counts, read and
written volume in GB, and mean write size in KB.  :func:`compute_stats`
derives all of these (plus a few extras used elsewhere in the analysis) as
reductions over the trace's columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.trace import Trace
from repro.util.units import sectors_to_gib, sectors_to_kib


@dataclass(frozen=True)
class TraceStats:
    """Summary of a trace (Table I columns and friends)."""

    name: str
    read_count: int
    write_count: int
    read_sectors: int
    written_sectors: int
    max_end: int
    duration_s: float

    @property
    def op_count(self) -> int:
        return self.read_count + self.write_count

    @property
    def read_volume_gib(self) -> float:
        """Table I "read volume (GB)" column."""
        return sectors_to_gib(self.read_sectors)

    @property
    def written_volume_gib(self) -> float:
        """Table I "written volume (GB)" column."""
        return sectors_to_gib(self.written_sectors)

    @property
    def mean_write_size_kib(self) -> float:
        """Table I "mean write size" column (KB)."""
        return sectors_to_kib(self.written_sectors) / max(1, self.write_count)

    @property
    def read_fraction(self) -> float:
        """Fraction of operations that are reads (0 for an empty trace)."""
        if self.op_count == 0:
            return 0.0
        return self.read_count / self.op_count


def compute_stats(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace`` from its columns."""
    is_read, _, length = trace.as_arrays()
    stamps = trace.timestamps()
    read_sectors = int(length[is_read].sum())
    return TraceStats(
        name=trace.name,
        read_count=trace.read_count,
        write_count=trace.write_count,
        read_sectors=read_sectors,
        written_sectors=int(length.sum()) - read_sectors,
        max_end=trace.max_end,
        duration_s=float(stamps[-1] - stamps[0]) if len(stamps) else 0.0,
    )
