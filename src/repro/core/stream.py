"""Shared-replay technique kernels over a recorded fragment-access stream.

The batch kernel (:mod:`repro.core.batch`) replays one configuration per
pass, paying the extent-map work every time.  But look-ahead-behind
prefetching (Alg. 2) and selective caching (Alg. 3) **never change the
log layout**: only writes and opportunistic-defrag rewrites (Alg. 1) do,
so under any defrag-free configuration every read resolves to the same
physical fragments as under plain LS, and the techniques merely decide,
per fragment of a fragmented read, whether the disk access happens.

* :func:`record_fragment_stream` replays a trace **once** under plain LS
  and records every would-be disk access (pba, length, read/write kind)
  plus the grouping of fragments into fragmented reads, as flat arrays.
* :func:`stream_replay` evaluates a cache/prefetch configuration against
  the stream without touching the extent map: the fragment-policy kernel
  (:mod:`repro.core.fragment_policy`) serves the fragmented-read
  fragments only, and seek classification of the kept accesses is fully
  vectorized.
* :func:`stream_cache_sweep` evaluates a whole cache-capacity sweep in one
  pass: block-granular LRU caches obey stack inclusion, so one
  Mattson-style stack-distance pass gives each fragment access the least
  capacity at which it hits; each point is then an array threshold.

All three equal the reference :class:`~repro.core.simulator.Simulator`
bit for bit (``tests/differential/test_techniques_vs_reference.py``).
Defrag configurations change the layout and stay on the batch kernel.

Doctest (one recording, two cache sizes, no re-replay)::

    >>> from repro.core.config import TechniqueConfig
    >>> from repro.core.selective_cache import SelectiveCacheConfig
    >>> from repro.core.stream import record_fragment_stream, stream_replay
    >>> from repro.trace.record import IORequest
    >>> from repro.trace.trace import Trace
    >>> trace = Trace(
    ...     [IORequest.write(0, 32), IORequest.write(8, 8)]
    ...     + [IORequest.read(0, 32) for _ in range(3)],
    ...     name="doc",
    ... )
    >>> stream = record_fragment_stream(trace)
    >>> stream.fragmented_reads, stream.accesses
    (3, 11)
    >>> cached = TechniqueConfig(name="c", cache=SelectiveCacheConfig(1.0))
    >>> stream_replay(stream, cached).run_result.stats.cache_fragment_hits
    6
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    DEFAULT_CHUNK_OPS,
    IncrementalBatchReplay,
    _KIND_READ,
    _concat,
    classify_seeks,
)
from repro.core.config import TechniqueConfig
from repro.core.fragment_policy import FragmentPolicies, filter_accesses
from repro.core.outcomes import SimStats
from repro.core.prefetch import LookAheadBehindPrefetcher
from repro.core.selective_cache import SelectiveFragmentCache
from repro.core.simulator import RunResult
from repro.core.translators import LogStructuredTranslator
from repro.extentmap.tiers import (
    DEFAULT_KERNEL_TIER,
    make_address_map,
    resolve_map_tier,
)
from repro.trace.trace import Trace
from repro.util.units import BLOCK_SECTORS

#: Accesses served and seek-classified per step: scratch stays slab-sized
#: whatever the stream's length.
_SLAB = 1 << 14

#: Threshold sentinel for fragments that can never hit (a block was never
#: cached before), larger than any real capacity in blocks.
_NEVER_HITS = np.int64(1) << 62


class StreamUnsupportedError(ValueError):
    """The requested configuration has no stream kernel (e.g. defrag)."""


def supports_stream(config: TechniqueConfig) -> bool:
    """True if :func:`stream_replay` covers this technique configuration.

    The stream kernels require a layout identical to plain LS, so any
    log-structured configuration *without* defrag qualifies: plain LS,
    LS+prefetch, LS+cache and LS+prefetch+cache.  NoLS (different
    layout), defrag configurations (layout-mutating) and multi-frontier
    configurations (per-class placement) do not.
    """
    return (
        isinstance(config, TechniqueConfig)
        and config.log_structured
        and config.defrag is None
        and config.multi_frontier is None
    )


def supports_cache_sweep(config: TechniqueConfig) -> bool:
    """True if the config can join a shared :func:`stream_cache_sweep`.

    Capacity sweeping rides on the LRU stack-inclusion property, which
    holds only when the cache is the sole technique: a prefetch buffer
    would make admissions depend on coverage (and thus on capacity), and
    defrag would change the layout.
    """
    return (
        supports_stream(config)
        and config.cache is not None
        and config.prefetch is None
    )


@dataclass(frozen=True)
class FragmentStream:
    """The fragment-access stream of one plain-LS replay of a trace.

    Attributes:
        trace_name: Name of the recorded trace.
        frontier_base: First log sector (``trace.max_end``).
        frontier: Final write frontier after the replay.
        layout: The plain-LS translator the recording drove, in the
            reference end-state of *every* defrag-free replay.
        pba / length / kind: The access stream a technique-free LS replay
            performs, one entry per physical access (``kind`` is 0 for
            reads, 1 for writes); cache/prefetch serve a subset from RAM.
        op_index: Originating trace request index of each access (int64,
            non-decreasing): a write contributes one entry, a read one per
            fragment.  Lets windowed/temporal analyses attribute stream
            accesses back to trace positions.
        group_start / group_size: One entry per fragmented read: index of
            its first fragment in the access stream, and its fragment
            count.  Only these accesses are policy-eligible (the paper's
            ``FragmentedRead`` guard).
        reads / writes / sectors_read / sectors_written / read_fragments /
            fragmented_reads: Aggregate counters that are invariant across
            every defrag-free configuration (resolution is layout-only).
    """

    trace_name: str
    frontier_base: int
    frontier: int
    layout: LogStructuredTranslator
    pba: np.ndarray
    length: np.ndarray
    kind: np.ndarray
    op_index: np.ndarray
    group_start: np.ndarray
    group_size: np.ndarray
    reads: int
    writes: int
    sectors_read: int
    sectors_written: int
    read_fragments: int
    fragmented_reads: int

    @property
    def accesses(self) -> int:
        """Number of physical accesses in the plain-LS stream."""
        return int(self.pba.shape[0])

    def fragment_access_indices(self) -> np.ndarray:
        """Indices (into the access stream) of all policy-eligible fragments."""
        return _eligible(self, 0, self.accesses)


def _eligible(stream: FragmentStream, lo: int, hi: int) -> np.ndarray:
    """Stream indices in ``[lo, hi)`` of policy-eligible fragments, read
    off the groups that overlap the range (groups are sorted, disjoint)."""
    start, size = stream.group_start, stream.group_size
    g0 = max(int(np.searchsorted(start, lo, side="right")) - 1, 0)
    g1 = int(np.searchsorted(start, hi))
    first = np.maximum(start[g0:g1], lo)
    count = np.maximum(np.minimum(start[g0:g1] + size[g0:g1], hi) - first, 0)
    return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())


@dataclass(frozen=True)
class StreamRunResult:
    """Result of evaluating one configuration against a recorded stream.

    Attributes:
        run_result: Drop-in :class:`~repro.core.simulator.RunResult`
            identical to the reference simulator's.
        distances: Signed distances of every seek, in access order.
        distance_is_read: Parallel bool array (True = read-direction seek).
        frontier: Final write frontier (same as the stream's — defrag-free
            replays never move it differently).
        head_position: Final head position, or None if nothing accessed
            the disk.
        cache: The live cache the evaluation drove (None when no cache is
            configured, or for thresholded sweep points which never build
            one).
        prefetcher: The live prefetcher (None when not configured).
    """

    run_result: RunResult
    distances: np.ndarray
    distance_is_read: np.ndarray
    frontier: int
    head_position: Optional[int]
    cache: Optional[SelectiveFragmentCache]
    prefetcher: Optional[LookAheadBehindPrefetcher]


# --------------------------------------------------------------------- #
# Recording: one plain-LS replay, stream captured
# --------------------------------------------------------------------- #


def record_fragment_stream(
    trace: Trace,
    chunk_ops: int = DEFAULT_CHUNK_OPS,
) -> FragmentStream:
    """Replay ``trace`` once under plain LS and record the access stream.

    The recording is the batch driver itself
    (:class:`~repro.core.batch.IncrementalBatchReplay` on a technique-free
    :class:`LogStructuredTranslator`, kernel extent-map tier — array by
    default, :data:`~repro.extentmap.tiers.ENV_TIER` overrides) with the
    classified access stream retained, so the stream equals what
    :func:`~repro.core.batch.batch_replay` classifies by construction.
    ``chunk_ops`` is the batch size fed to the driver; it bounds working
    memory and is unobservable in the result.  ``op_index`` and the
    fragmented-read groups are a post-pass over the driver's per-op
    fragment counts: under plain LS a write is one access and a read one
    per fragment, so a count is also the stream entries its op added.
    """
    if chunk_ops <= 0:
        raise ValueError(f"chunk_ops must be > 0, got {chunk_ops}")
    translator = LogStructuredTranslator(
        frontier_base=trace.max_end,
        address_map=make_address_map(resolve_map_tier(DEFAULT_KERNEL_TIER)),
    )
    engine = IncrementalBatchReplay(translator, trace_name=trace.name)
    is_read, op_lba, op_len = trace.as_arrays()
    segments: List[tuple] = []
    op_counts: List[np.ndarray] = []
    for start in range(0, len(op_lba), chunk_ops):
        stop = start + chunk_ops
        op_counts.append(
            engine._replay_runs(
                is_read[start:stop], op_lba[start:stop], op_len[start:stop], segments
            )
        )
        engine.drain_distances()  # recording keeps the stream, not the seeks
    pba = _concat([segment[0] for segment in segments], np.int64)
    length = _concat([segment[1] for segment in segments], np.int64)
    kind = _concat([segment[2] for segment in segments], np.int8)
    counts = _concat(op_counts, np.int64)
    op_index = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    for array in (pba, length, kind, op_index):
        array.setflags(write=False)
    fragmented = np.flatnonzero(counts > 1)
    stats = engine.stats()
    return FragmentStream(
        trace_name=trace.name,
        frontier_base=translator.frontier_base,
        frontier=translator.frontier,
        layout=translator,
        pba=pba,
        length=length,
        kind=kind,
        op_index=op_index,
        group_start=(np.cumsum(counts) - counts)[fragmented],
        group_size=counts[fragmented],
        reads=stats.reads,
        writes=stats.writes,
        sectors_read=stats.sectors_read,
        sectors_written=stats.sectors_written,
        read_fragments=stats.read_fragments,
        fragmented_reads=stats.fragmented_reads,
    )


# --------------------------------------------------------------------- #
# Evaluation: one configuration against the recorded stream
# --------------------------------------------------------------------- #


def _result(
    stream: FragmentStream,
    config: TechniqueConfig,
    keep: Optional[Callable[[int, int], Tuple[np.ndarray, int, int]]],
    policies: Optional[FragmentPolicies] = None,
) -> StreamRunResult:
    """Seek-classify the accesses that reach the disk, ``_SLAB`` at a time
    with the head carried across slabs: only ``distances`` and
    ``distance_is_read`` grow with the stream.

    ``keep(lo, hi)`` returns ``(mask, cache_hits, buffer_hits)`` for
    accesses ``[lo, hi)`` and is called once per slab, in stream order;
    ``None`` sends every access to the disk.  ``policies`` (what ``keep``
    serves through) is synced into its objects before they are returned.
    """
    # Grown in place (not chunks joined at the end), so the outputs are
    # never held twice.
    distances, is_read = bytearray(), bytearray()
    head = None  # a fresh head: the first access never seeks
    cache_hits = buffer_hits = 0
    accesses = stream.accesses
    for lo in range(0, accesses, _SLAB):
        hi = min(lo + _SLAB, accesses)
        kept = stream.pba[lo:hi], stream.length[lo:hi], stream.kind[lo:hi]
        if keep is not None:
            mask, slab_cache_hits, slab_buffer_hits = keep(lo, hi)
            cache_hits += slab_cache_hits
            buffer_hits += slab_buffer_hits
            kept = [column[mask] for column in kept]
        _seek, slab_distances, seek_kinds, head = classify_seeks(*kept, head)
        distances.extend(slab_distances)
        is_read.extend(seek_kinds == _KIND_READ)
    distances = np.frombuffer(distances, dtype=np.int64)
    distance_is_read = np.frombuffer(is_read, dtype=bool)
    if policies is not None:
        policies.sync()
    read_seeks = int(np.count_nonzero(distance_is_read))
    stats = SimStats(
        cache_fragment_hits=cache_hits, buffer_fragment_hits=buffer_hits,
        read_seeks=read_seeks, write_seeks=len(distances) - read_seeks,
        **{key: getattr(stream, key) for key in (
            "reads", "writes", "sectors_read", "sectors_written", "read_fragments",
            "fragmented_reads")},
    )
    # The reference translator's description of a defrag-free config.
    techniques = [("prefetch", config.prefetch), ("cache", config.cache)]
    description = "+".join(["LS"] + [name for name, part in techniques if part is not None])
    return StreamRunResult(
        run_result=RunResult(
            trace_name=stream.trace_name, translator=description, stats=stats
        ),
        distances=distances,
        distance_is_read=distance_is_read,
        frontier=stream.frontier,
        head_position=head,
        cache=policies and policies.cache,
        prefetcher=policies and policies.prefetcher,
    )


def stream_replay(
    stream: FragmentStream, config: TechniqueConfig
) -> StreamRunResult:
    """Evaluate one defrag-free configuration against a recorded stream.

    Per slab of the stream: eligible indices → the fragment-policy kernel
    (:mod:`repro.core.fragment_policy`, which holds the reference service
    order) → keep mask → :func:`~repro.core.batch.classify_seeks`.  Only
    the fragments of fragmented reads are eligible; every other access
    reaches the disk unconditionally.  Raises
    :class:`StreamUnsupportedError` for configurations without a stream
    kernel (NoLS, defrag).
    """
    if not supports_stream(config):
        raise StreamUnsupportedError(
            f"no stream kernel for config {config!r}; use repro.core.batch "
            "(defrag / NoLS) or the reference Simulator"
        )
    cache = SelectiveFragmentCache(config.cache) if config.cache else None
    prefetcher = (
        LookAheadBehindPrefetcher(config.prefetch) if config.prefetch else None
    )
    if cache is None and prefetcher is None:
        return _result(stream, config, None)
    policies = FragmentPolicies(cache, prefetcher, None)

    def keep(lo: int, hi: int):
        return filter_accesses(
            policies, stream.pba[lo:hi], stream.length[lo:hi],
            _eligible(stream, lo, hi) - lo,
        )

    return _result(stream, config, keep, policies)


# --------------------------------------------------------------------- #
# Capacity sweep: one stack-distance pass, one threshold per point
# --------------------------------------------------------------------- #


class _Fenwick:
    """Minimal Fenwick (binary indexed) tree for the stack-distance pass."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        tree = self.tree
        while index <= self.size:
            tree[index] += delta
            index += index & (-index)

    def prefix(self, index: int) -> int:
        tree = self.tree
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total


def cache_hit_thresholds(stream: FragmentStream) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum hitting capacity, in blocks, for every policy-eligible fragment.

    One Mattson stack-distance pass over the fragment accesses of the
    recorded stream.  Returns ``(access_indices, min_blocks)``: for the
    fragment at stream index ``access_indices[i]``, a selective cache of
    ``c`` blocks hits **iff**
    ``min_blocks[i] <= c``.  Fragments touching a never-before-cached
    block get a sentinel larger than any real capacity.

    This is sound because the cache's recency timeline is
    capacity-independent: whether a fragment hits (``lookup``) or
    misses (``admit``), all its blocks end up most-recently-used in block
    order, so a capacity-``c`` cache always holds exactly the ``c`` most
    recently touched distinct blocks (LRU stack inclusion) and residency
    reduces to a stack-distance threshold.
    """
    access_indices = stream.fragment_access_indices()
    if access_indices.size == 0:
        return access_indices, np.empty(0, dtype=np.int64)
    pba = stream.pba[access_indices]
    length = stream.length[access_indices]
    first_blocks = pba // BLOCK_SECTORS
    last_blocks = (pba + length - 1) // BLOCK_SECTORS
    total_touches = int((last_blocks - first_blocks + 1).sum())

    fenwick = _Fenwick(total_touches)
    fenwick_add = fenwick.add
    fenwick_prefix = fenwick.prefix
    last_touch: Dict[int, int] = {}
    alive = 0
    clock = 0
    min_blocks = np.empty(access_indices.size, dtype=np.int64)

    firsts = first_blocks.tolist()
    lasts = last_blocks.tolist()
    for position, (first, last) in enumerate(zip(firsts, lasts)):
        # Rank phase: the state is frozen while lookup() checks.
        worst = 0
        for block in range(first, last + 1):
            touched_at = last_touch.get(block)
            if touched_at is None:
                worst = -1
                break
            rank = alive - fenwick_prefix(touched_at - 1)
            if rank > worst:
                worst = rank
        min_blocks[position] = _NEVER_HITS if worst < 0 else worst
        # Touch phase: hit or miss, every block becomes MRU in block order.
        for block in range(first, last + 1):
            touched_at = last_touch.get(block)
            if touched_at is None:
                alive += 1
            else:
                fenwick_add(touched_at, -1)
            clock += 1
            fenwick_add(clock, 1)
            last_touch[block] = clock
    return access_indices, min_blocks


def stream_cache_sweep(
    stream: FragmentStream,
    configs: Sequence[TechniqueConfig],
    thresholds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[StreamRunResult]:
    """Evaluate a selective-cache capacity sweep against one recording.

    Every config must satisfy :func:`supports_cache_sweep`.  The
    stack-distance pass runs once (pass a
    precomputed ``thresholds`` pair to reuse it across calls); each sweep
    point then costs a threshold compare plus the vectorized seek
    classification.  Results are exact and in ``configs`` order; sweep
    results carry ``cache=None`` (no per-point cache object is ever
    built).
    """
    configs = list(configs)
    if not configs:
        return []
    for config in configs:
        if not supports_cache_sweep(config):
            raise StreamUnsupportedError(
                f"config {config.name!r} cannot join a shared cache sweep "
                "(requires log-structured + cache only)"
            )
    # Before the stack-distance pass: an undersized point fails fast.
    capacities = [SelectiveFragmentCache(c.cache).capacity_blocks for c in configs]
    if thresholds is None:
        thresholds = cache_hit_thresholds(stream)

    return [
        _result(stream, config, partial(_hits_at, *thresholds, capacity_blocks))
        for config, capacity_blocks in zip(configs, capacities)
    ]


def _hits_at(access_indices, min_blocks, capacity_blocks: int, lo: int, hi: int):
    """A sweep point's ``keep`` for accesses ``[lo, hi)``: the eligible ones
    whose threshold ``capacity_blocks`` reaches are cache hits."""
    i0, i1 = np.searchsorted(access_indices, (lo, hi))
    hits = access_indices[i0:i1][min_blocks[i0:i1] <= capacity_blocks]
    mask = np.ones(hi - lo, dtype=bool)
    mask[hits - lo] = False
    return mask, len(hits), 0


# --------------------------------------------------------------------- #
# Derived analyses over the recorded stream (no re-replay)
# --------------------------------------------------------------------- #


def stream_windowed_long_seeks(stream: FragmentStream, window_ops: int = 1000) -> List[int]:
    """Per-window long-seek counts of the plain-LS replay (Fig. 3's LS side).

    Exactly :class:`~repro.analysis.temporal.WindowedSeekRecorder` attached
    to a plain-LS reference replay: windows are ``op_index // window_ops``
    over the *trace* request index, a seek is an access whose pba differs
    from the previous access's end, and only ``|distance| >=
    kib_to_sectors(LONG_SEEK_KIB)`` counts.  The series is dense over every
    window the trace touches (the recorder observes all requests, seeking
    or not), so its length is ``(n_requests - 1) // window_ops + 1``.
    """
    from repro.analysis.fast import windowed_long_seeks

    def seeks():  # slab by slab, the head carried across
        head = None
        for lo in range(0, stream.accesses, _SLAB):
            hi = lo + _SLAB
            seek, distances, _kinds, head = classify_seeks(
                stream.pba[lo:hi], stream.length[lo:hi], stream.kind[lo:hi], head
            )
            yield stream.op_index[lo:hi][seek], distances

    return windowed_long_seeks(seeks(), stream.reads + stream.writes, window_ops)


def stream_fragment_stats(stream: FragmentStream) -> List[Tuple[int, int]]:
    """Per-fragment ``(access_count, size_sectors)`` pairs (Fig. 10's input).

    Exactly :meth:`~repro.analysis.popularity.FragmentPopularityRecorder.
    fragment_stats` under a plain-LS replay: fragments are keyed by pba
    (stable — the infinite log never rewrites a physical extent), counts
    tally every policy-eligible access, sizes take the maximum observed
    access length, and the order is first-access order (the recorder's
    dict insertion order), which is the tie-break
    :func:`~repro.analysis.fast.popularity_curve_fast` relies on.
    """
    indices = stream.fragment_access_indices()
    pbas = stream.pba[indices]
    lengths = stream.length[indices]
    _, first_seen, inverse = np.unique(
        pbas, return_index=True, return_inverse=True
    )
    counts = np.bincount(inverse)
    sizes = np.zeros(first_seen.size, dtype=np.int64)
    np.maximum.at(sizes, inverse, lengths)
    order = np.argsort(first_seen, kind="stable")
    return [
        (int(count), int(size))
        for count, size in zip(counts[order], sizes[order])
    ]
