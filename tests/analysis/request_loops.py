"""Per-request reference loops for the column kernels.

These are the implementations ``characterize`` and ``compute_stats`` had
before they became reductions over a trace's columns; the kernels must
equal them field for field (``test_column_kernels.py``).
"""

from repro.analysis.classify import WorkloadCharacter
from repro.trace.stats import TraceStats


def characterize_loop(trace) -> WorkloadCharacter:
    reads = 0
    writes = 0
    sequential_reads = 0
    mixed_reads = 0
    overwritten = 0
    written_total = 0
    last_read_end = None
    written = set()  # 4 KiB blocks written so far
    for request in trace:
        first = request.lba // 8
        last = (request.end - 1) // 8
        if request.is_read:
            reads += 1
            if last_read_end is not None and request.lba == last_read_end:
                sequential_reads += 1
            last_read_end = request.end
            touches_written = any(
                block in written for block in range(first, last + 1)
            )
            touches_unwritten = any(
                block not in written for block in range(first, last + 1)
            )
            if touches_written and touches_unwritten:
                mixed_reads += 1
        else:
            writes += 1
            written_total += request.length
            for block in range(first, last + 1):
                if block in written:
                    overwritten += 8
                else:
                    written.add(block)
    return WorkloadCharacter(
        write_intensity=(writes / reads) if reads else float("inf"),
        sequential_read_share=(sequential_reads / reads) if reads else 0.0,
        overwrite_ratio=(overwritten / written_total) if written_total else 0.0,
        mixed_read_share=(mixed_reads / reads) if reads else 0.0,
        read_fraction=reads / max(1, reads + writes),
    )


def compute_stats_loop(trace) -> TraceStats:
    read_count = 0
    write_count = 0
    read_sectors = 0
    written_sectors = 0
    first_ts = None
    last_ts = 0.0
    for request in trace:
        if first_ts is None:
            first_ts = request.timestamp
        last_ts = request.timestamp
        if request.is_read:
            read_count += 1
            read_sectors += request.length
        else:
            write_count += 1
            written_sectors += request.length
    duration = (last_ts - first_ts) if first_ts is not None else 0.0
    return TraceStats(
        name=trace.name,
        read_count=read_count,
        write_count=write_count,
        read_sectors=read_sectors,
        written_sectors=written_sectors,
        max_end=trace.max_end,
        duration_s=duration,
    )
