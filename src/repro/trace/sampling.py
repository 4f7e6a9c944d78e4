"""Trace sampling and windowing utilities.

The paper samples its trace collections ("We sample the traces and select
some that represent different I/O behavior", §III) and plots several figures
over operation-index windows (Fig. 3).  These helpers implement the common
slicing operations.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.trace.record import OpType
from repro.trace.trace import Trace


def head_sample(trace: Trace, n_ops: int) -> Trace:
    """Return the first ``n_ops`` operations of ``trace``."""
    if n_ops < 0:
        raise ValueError(f"n_ops must be >= 0, got {n_ops}")
    return trace[:n_ops].renamed(f"{trace.name}.head{n_ops}")


def stride_sample(trace: Trace, stride: int) -> Trace:
    """Keep every ``stride``-th operation (stride 1 = identity).

    Note that stride sampling distorts seek behaviour (it removes the
    requests between the kept ones); it is intended for coarse workload
    characterization, not seek replay.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return trace[::stride].renamed(f"{trace.name}.stride{stride}")


def op_window(trace: Trace, start: int, end: int) -> Trace:
    """Return operations with index in ``[start, end)``."""
    if start < 0 or end < start:
        raise ValueError(f"invalid window [{start}, {end})")
    return trace[start:end].renamed(f"{trace.name}.ops{start}-{end}")


def time_window(trace: Trace, start_s: float, end_s: float) -> Trace:
    """Return operations with ``start_s <= timestamp < end_s``."""
    if end_s < start_s:
        raise ValueError(f"invalid time window [{start_s}, {end_s})")
    return Trace(
        (r for r in trace if start_s <= r.timestamp < end_s),
        name=f"{trace.name}.t{start_s:g}-{end_s:g}",
    )


def split_by_op(trace: Trace) -> Tuple[Trace, Trace]:
    """Split into (reads, writes) sub-traces, preserving relative order."""
    return trace.filter(OpType.READ), trace.filter(OpType.WRITE)


def op_index_buckets(trace: Trace, bucket_ops: int) -> List[Trace]:
    """Chop the trace into consecutive buckets of ``bucket_ops`` operations.

    Used by the Fig. 3 temporal analysis: per-bucket seek counts are
    differenced between translations.
    """
    if bucket_ops < 1:
        raise ValueError(f"bucket_ops must be >= 1, got {bucket_ops}")
    return [
        trace[i : i + bucket_ops].renamed(f"{trace.name}.bucket{i // bucket_ops}")
        for i in range(0, len(trace), bucket_ops)
    ]
