"""Tripwire: the offline kernels keep O(requests) or O(slab) scratch.

``characterize`` works on elementary cells of the written ranges, so a
trace of 64 MiB requests costs what the same trace of 4 KiB requests
costs; ``stream_replay`` serves and seek-classifies the stream a slab at a
time, so beyond its returned ``distances`` / ``distance_is_read`` it
allocates a bounded amount whatever the stream's length.  ``tracemalloc``
sees every Python and numpy allocation, with no timing involved.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.classify import characterize
from repro.core.config import LS_CACHE, LS_PREFETCH
from repro.core.stream import FragmentStream, stream_replay
from repro.trace.columnar import ColumnarTrace, TraceColumns

#: Scratch allowed beyond what a kernel returns: a few slabs' worth.
SLAB_BOUND = 4 << 20


def peak_of(function, *args):
    """``(bytes allocated at the peak of function(*args), its result)``."""
    tracemalloc.start()
    try:
        result = function(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def overlapping_ops(sectors: int, n: int = 256) -> ColumnarTrace:
    """Alternating writes and reads of ``sectors`` each, every request
    overlapping its neighbours, with the columns built up front."""
    rng = np.random.default_rng(7)
    lba = rng.integers(0, 64, n) * (sectors // 4)
    trace = ColumnarTrace(
        TraceColumns(np.zeros(n), np.arange(n) % 2 == 1, lba, np.full(n, sectors)),
        name="overlapping",
    )
    trace.as_arrays(), trace.read_count  # cached before the measurement
    return trace


def test_characterize_peak_does_not_follow_request_size():
    characterize(overlapping_ops(8))  # first-call allocations out of the way
    small_peak, small = peak_of(characterize, overlapping_ops(8))
    large_peak, large = peak_of(characterize, overlapping_ops(64 << 11))  # 64 MiB
    assert large.overwrite_ratio > 0 and large.mixed_read_share > 0
    assert large_peak <= small_peak + (64 << 10)


@pytest.fixture(scope="module")
def long_stream():
    """2**21 accesses; one in 32 is an eligible fragment over a small
    working set (cache and buffer hits), the rest seek almost every time."""
    n = 1 << 21
    pba = (np.arange(n, dtype=np.int64) * 2654435761) % (1 << 30)
    group_start = np.arange(0, n, 64, dtype=np.int64)
    pba[group_start] = (np.arange(len(group_start)) % 512) * 64
    pba[group_start + 1] = pba[group_start] + 16
    return FragmentStream(
        trace_name="long", frontier_base=1 << 31, frontier=1 << 31, layout=None,
        pba=pba, length=np.broadcast_to(np.int64(8), (n,)),
        kind=np.broadcast_to(np.int8(0), (n,)), op_index=np.arange(n, dtype=np.int64),
        group_start=group_start, group_size=np.full(len(group_start), 2, dtype=np.int64),
        reads=n, writes=0, sectors_read=8 * n, sectors_written=0,
        read_fragments=n, fragmented_reads=len(group_start),
    )


@pytest.mark.parametrize("config", [LS_CACHE, LS_PREFETCH], ids=lambda c: c.name)
def test_stream_replay_scratch_is_slab_sized(long_stream, config):
    peak, result = peak_of(stream_replay, long_stream, config)
    stats = result.run_result.stats
    served = stats.cache_fragment_hits + stats.buffer_fragment_hits
    assert served > 0 and len(result.distances) > long_stream.accesses // 2
    assert peak - result.distances.nbytes - result.distance_is_read.nbytes <= SLAB_BOUND
