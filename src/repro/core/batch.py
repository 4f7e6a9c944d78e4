"""Vectorized (numpy) batch replay: one driver, placement the only variable.

The reference replay path — :class:`~repro.core.simulator.Simulator`
driving :meth:`Translator.submit` — materializes an
:class:`~repro.core.outcomes.IOOutcome` (plus one access object per
fragment and head movement) for every operation; that per-op object
traffic, not the extent-map arithmetic, is what makes it slow.  This
module replays the same translators over numpy op columns with the
paper's model written once: place each write, resolve each read into
fragments, count a seek whenever an access does not start where the last
one ended.

**The driver** (:class:`IncrementalBatchReplay`) owns what the
translators share: column coercion and the range pre-scan (ops ahead of
the first request crossing into the log apply, then the reference's
error is raised); splitting a batch into maximal write runs and read
runs; one order-preserving access buffer; read runs — one
:meth:`~repro.extentmap.array_map.ArrayExtentMap.lookup_pieces_batch`
call, or ``lookup_pieces`` per read for a tiny run or a non-array map —
then cache and prefetch once over the run's fragments, through the
fragment-policy kernel (:mod:`repro.core.fragment_policy`); the stat
fold, the pure seek classifier :func:`classify_seeks`, and the head sync.
With opportunistic defrag, which runs on the single frontier only, a
batch is not split into runs: the compiled Algorithm 1 loop
(:meth:`~repro.core.fragment_policy.FragmentPolicies.replay`) replays whole windows
of ops, writes and rewrites being the same frontier append.

**Placement** is what is left per translator family — *where the next
write run's sectors go*: the frontier plus one exclusive cumsum (plain
LS); a sequential cold/hot classification loop with one running frontier
per class (:class:`~repro.core.multifrontier.MultiFrontierTranslator`);
batched prefixes laid out over the zone queue, split at each cleaning
episode, which runs through the translator's own ``_ensure_room``
(:class:`~repro.core.cleaning.ZonedCleaningTranslator`).  NoLS has no
placement at all (PBA = LBA): its op columns are the access stream.

Everything is **exact**: seek counts, the seek-distance log, aggregate
statistics and the final translator state equal the reference path's bit
for bit (``tests/differential/`` is the oracle), whatever the batch size,
run shape or extent-map tier.  A translator type without a placement
raises :class:`BatchUnsupportedError`.

:class:`IncrementalBatchReplay` is **chunk-resumable with explicit
serializable state**: feed ops in arbitrary batches, snapshot the kernel
state at any batch boundary, restore it in another process and continue
bit-identically to a one-shot replay
(``tests/differential/test_incremental_vs_oneshot.py``) — what the
streaming service (:mod:`repro.service`) checkpoints and recovers.
:func:`batch_replay` is a one-shot wrapper over the same engine, and
:func:`repro.core.stream.record_fragment_stream` the same driver with
the classified access stream retained.

Doctest (a write then a fragmenting overwrite-and-read)::

    >>> from repro.core.batch import batch_replay
    >>> from repro.core.config import LS
    >>> from repro.trace.record import IORequest
    >>> from repro.trace.trace import Trace
    >>> trace = Trace([
    ...     IORequest.write(0, 8, 0.0),     # maps [0, 8) at the frontier
    ...     IORequest.write(4, 4, 0.001),   # splits the first extent
    ...     IORequest.read(0, 8, 0.002),    # now a two-fragment read
    ... ], name="doc")
    >>> result = batch_replay(trace, LS)
    >>> result.stats.fragmented_reads, result.stats.read_seeks
    (1, 2)
    >>> list(result.distances)              # doctest: +ELLIPSIS
    [np.int64(-12), np.int64(4)]
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cleaning import ZonedCleaningTranslator
from repro.core.config import TechniqueConfig, build_translator
from repro.core.fragment_policy import FragmentPolicies, filter_accesses
from repro.core.multifrontier import FRONTIERS, MultiFrontierTranslator
from repro.core.outcomes import SimStats
from repro.core.simulator import RunResult
from repro.core.translators import InPlaceTranslator, LogStructuredTranslator, Translator
from repro.extentmap.array_map import ArrayExtentMap
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, resolve_map_tier
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.util.bulkstate import hist_to_pairs, pairs_to_hist
from repro.util.units import BLOCK_SECTORS

#: Operations swept per chunk by the log-structured kernel.  The result is
#: chunk-size independent (head position carries across chunks); the value
#: only bounds peak buffer memory and amortizes numpy call overhead.
DEFAULT_CHUNK_OPS = 8192

# Access-stream kind codes (mirror the reference seek attribution).
_KIND_READ = 0
_KIND_WRITE = 1
_KIND_DEFRAG = 2

# Run-length cutoffs below which the scalar per-op path beats the batch
# entry points (a batch call's numpy work arrays cost more than a few
# scalar calls; tests/core/test_stream_call_count.py has the measured
# crossovers).  Purely perf constants: both paths are exact.
_MIN_BATCH_WRITE_RUN = 8
_MIN_BATCH_READ_RUN = 4

#: Ops the compiled defrag loop replays per window: its reads cost one
#: ``lookup_pieces_batch`` and its writes and rewrites one ``map_range_batch``,
#: so larger is faster (hm_1's LS+defrag on a 2-core box: 0.6 M op/s at 512,
#: 1.9 M at 8192; docs/PERFORMANCE.md Layer 2): a default chunk is one window.
_DEFRAG_WINDOW = 8192


class BatchUnsupportedError(ValueError):
    """The translator type has no batch kernel (replay it with the
    reference :class:`~repro.core.simulator.Simulator`)."""


@dataclass(frozen=True)
class BatchRunResult:
    """Result of one batch replay: the reference summary plus array extras.

    Attributes:
        run_result: Drop-in :class:`~repro.core.simulator.RunResult`
            identical to what the reference simulator returns.
        distances: Signed distances of every seek, in access order —
            element-for-element what ``SeekLogRecorder.distances`` records.
        distance_is_read: Parallel bool array: True where the seek was
            charged in the read direction (False for host and defrag
            writes), matching ``SeekRecord.is_read``.
        translator: The translator the kernel drove; its extent map,
            frontier, head position and technique state are left exactly as
            a reference replay would leave them.
    """

    run_result: RunResult
    distances: np.ndarray
    distance_is_read: np.ndarray
    translator: Translator

    @property
    def stats(self) -> SimStats:
        return self.run_result.stats

    @property
    def read_distances(self) -> np.ndarray:
        """Distances of read-direction seeks only (Fig. 4's input)."""
        return self.distances[self.distance_is_read]


def batch_replay(
    trace: Trace,
    config: TechniqueConfig,
    chunk_ops: int = DEFAULT_CHUNK_OPS,
) -> BatchRunResult:
    """Replay ``trace`` under ``config`` with the vectorized kernels.

    Builds a fresh translator exactly like
    :func:`~repro.core.config.build_translator` and drives it through
    :func:`batch_replay_translator`; the returned ``run_result`` equals the
    reference ``replay(trace, build_translator(trace, config))`` result.
    Every :class:`TechniqueConfig` has a kernel: NoLS, plain LS, the three
    seek-reduction techniques in any combination, and multi-frontier
    placement.
    """
    translator = build_translator(
        trace, config, address_map_tier=resolve_map_tier(DEFAULT_KERNEL_TIER)
    )
    return batch_replay_translator(trace, translator, chunk_ops)


def batch_replay_translator(
    trace: Trace,
    translator: Translator,
    chunk_ops: int = DEFAULT_CHUNK_OPS,
) -> BatchRunResult:
    """Drive an existing translator with the matching batch kernel.

    The translator must be freshly constructed (or in the exact state a
    previous batch/reference replay left it — the kernel continues from
    the current head/frontier/map state).  Raises
    :class:`BatchUnsupportedError` for translator types without a kernel.
    """
    if chunk_ops <= 0:
        raise ValueError(f"chunk_ops must be > 0, got {chunk_ops}")
    engine = IncrementalBatchReplay(translator, trace_name=trace.name)
    is_read, lba, length = trace.as_arrays()
    for start in range(0, len(lba), chunk_ops):
        stop = start + chunk_ops
        engine.feed_arrays(is_read[start:stop], lba[start:stop], length[start:stop])
    return engine.result()


# --------------------------------------------------------------------- #
# The shared pipeline pieces: seek classification and the access buffer
# --------------------------------------------------------------------- #


def classify_seeks(
    pba: np.ndarray,
    length: np.ndarray,
    kind: np.ndarray,
    head_position: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[int]]:
    """Seek classification of an access stream (the paper's §II metric).

    An access seeks when it does not start where the previous one ended;
    the first access of a stream starts from ``head_position`` (``None``:
    a fresh head, which positions freely).  Returns ``(seek, distances,
    seek_kinds, end_position)``: the per-access seek mask, then the signed
    distance and kind code of each seeking access in access order, and the
    head position after the stream (``head_position`` when it is empty).
    Pure: every replay path — the batch driver, stream evaluation and the
    stream-derived analyses — classifies through this one function.
    """
    if pba.shape[0] == 0:
        return (
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
            head_position,
        )
    prev_end = np.empty_like(pba)
    prev_end[0] = pba[0] if head_position is None else head_position
    np.add(pba[:-1], length[:-1], out=prev_end[1:])
    seek = pba != prev_end
    return seek, (pba - prev_end)[seek], kind[seek], int(pba[-1] + length[-1])


def _concat(chunks: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)


class _AccessBuffer:
    """Order-preserving access-stream buffer (disk accesses only).

    Vectorized runs :meth:`extend` it with whole arrays, scalar paths with
    lists, which go to a spill that is drained into an array chunk
    whenever a vector chunk must follow it, so the stream stays in access
    order.
    """

    __slots__ = ("_chunks", "_pba", "_len", "_kind")

    def __init__(self) -> None:
        self._chunks: List[tuple] = []
        self._pba: List[int] = []
        self._len: List[int] = []
        self._kind: List[int] = []

    def _drain_spill(self) -> None:
        if self._pba:
            self._chunks.append((np.asarray(self._pba, np.int64), np.asarray(self._len, np.int64),
                                 np.asarray(self._kind, np.int8)))
            self._pba, self._len, self._kind = [], [], []

    def extend(self, pba, length, kind) -> None:
        """Append one run of accesses: lists to the spill, arrays as a
        chunk; ``kind`` is one code per access, or the code they share."""
        if isinstance(pba, list):
            self._pba += pba
            self._len += length
            self._kind += kind
            return
        self._drain_spill()
        self._chunks.append((pba, length, np.full(len(pba), kind, np.int8)))

    def take(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Remove and return everything buffered as ``(pba, length, kind)``
        arrays, or ``None`` when nothing is."""
        self._drain_spill()
        chunks, self._chunks = self._chunks, []
        if len(chunks) < 2:
            return chunks[0] if chunks else None
        return tuple(
            np.concatenate([chunk[column] for chunk in chunks])
            for column in range(3)
        )


# --------------------------------------------------------------------- #
# Write placement: the one part of replay that varies per translator
# --------------------------------------------------------------------- #


class _Placement:
    """Where the next write run's sectors go, for one translator family.

    One instance lives for one :meth:`IncrementalBatchReplay.feed_arrays`
    call.  :meth:`write_run` places a maximal write run, appends its
    accesses to the shared buffer, maps it, and leaves the translator's
    placement state where the reference per-op loop would — after every
    run, on success or on error.  The rest is the driver's.
    """

    #: The range pre-scan rejects writes too, not only reads.
    checks_writes = False
    #: Seek-reduction techniques the read path replays (single frontier only).
    defrag = prefetcher = cache = None

    def __init__(self, translator, buffer: _AccessBuffer, flush) -> None:
        self.translator = translator
        self.amap = translator._map
        self.batched = isinstance(self.amap, ArrayExtentMap)
        self.buffer = buffer
        #: Driver hook: seek-classify what is buffered and sync the head
        #: onto the translator *now* (used at cleaning-episode boundaries).
        self.flush = flush

    def range_error(self, lba: int, length: int) -> str:
        """The reference's message for a request crossing into the log."""
        raise NotImplementedError

    def write_run(self, run_lba: np.ndarray, run_len: np.ndarray) -> None:
        raise NotImplementedError


class _SingleFrontier(_Placement):
    """Plain LS: every write goes to the one frontier, so a run's PBAs are
    the frontier plus an exclusive cumsum (with defrag the driver replays
    the batch through the compiled loop instead)."""

    def __init__(self, translator, buffer, flush) -> None:
        super().__init__(translator, buffer, flush)
        self.defrag, self.prefetcher = translator.defrag, translator.prefetcher
        self.cache = translator.cache

    def range_error(self, lba: int, length: int) -> str:
        return (
            f"request [{lba}, {lba + length}) crosses the frontier base "
            f"{self.translator.frontier_base}; size the log above the "
            "workload's LBA space"
        )

    def write_run(self, run_lba: np.ndarray, run_len: np.ndarray) -> None:
        run_ops = len(run_len)
        if self.batched and run_ops >= _MIN_BATCH_WRITE_RUN:
            run_pba = np.empty(run_ops, dtype=np.int64)
            run_pba[0] = 0
            np.cumsum(run_len[:-1], out=run_pba[1:])
            run_pba += self.translator._frontier
            self.translator._frontier = int(run_pba[-1] + run_len[-1])
            self.amap.map_range_batch(run_lba, run_pba, run_len)
            self.buffer.extend(run_pba, run_len, _KIND_WRITE)
            return
        lengths, map_range = run_len.tolist(), self.amap.map_range
        pbas = list(accumulate(lengths, initial=self.translator._frontier))
        self.translator._frontier = pbas.pop()
        for row in zip(run_lba.tolist(), pbas, lengths):
            map_range(*row)
        self.buffer.extend(pbas, lengths, [_KIND_WRITE] * run_ops)


class _MultiFrontier(_Placement):
    """One running frontier per write class.

    Classification is inherently sequential — each write's verdict depends
    on the recent-block set exactly as *its* predecessors left it — so the
    loop stays scalar, with the
    :class:`~repro.core.multifrontier.RecencyClassifier` LRU update
    inlined (no method dispatch, no per-op objects).  Nothing in it reads
    the map, so the run then maps in one call, in op order.
    """

    def range_error(self, lba: int, length: int) -> str:
        return (
            f"read end {lba + length} crosses the log base "
            f"{self.translator.frontier_base}"
        )

    def write_run(self, run_lba: np.ndarray, run_len: np.ndarray) -> None:
        translator = self.translator
        recent = translator.classifier._recent
        window = translator.classifier._window
        frontier_base = translator.frontier_base
        region_sectors = translator.region_sectors
        frontiers = translator._frontiers
        frontier_writes = translator._frontier_writes
        switches = translator.frontier_switches
        last_idx = translator._last_frontier
        pba_list: List[int] = []
        exhausted: Optional[int] = None
        for op_lba, op_length in zip(run_lba.tolist(), run_len.tolist()):
            first_block = op_lba // BLOCK_SECTORS
            last_block = (op_lba + op_length - 1) // BLOCK_SECTORS
            hot = False
            for block in range(first_block, last_block + 1):
                if block in recent:
                    hot = True
                    break
            for block in range(first_block, last_block + 1):
                if block in recent:
                    recent.move_to_end(block)
                else:
                    recent[block] = None
            while len(recent) > window:
                recent.popitem(last=False)
            index = 1 if hot else 0
            frontier_writes[index] += 1
            frontier = frontiers[index]
            if frontier + op_length > frontier_base + (index + 1) * region_sectors:
                # As the per-op loop leaves it: the violating op is
                # classified and counted, but its frontier does not advance.
                exhausted = index
                break
            frontiers[index] = frontier + op_length
            if last_idx is not None and last_idx != index:
                switches += 1
            last_idx = index
            pba_list.append(frontier)
        applied = len(pba_list)
        self.amap.map_range_batch(run_lba[:applied], np.asarray(pba_list, np.int64),
                                  run_len[:applied])
        self.buffer.extend(pba_list, run_len[:applied].tolist(), [_KIND_WRITE] * applied)
        translator.frontier_switches = switches
        translator._last_frontier = last_idx
        if exhausted is not None:
            raise ValueError(
                f"{FRONTIERS[exhausted]} log region exhausted; "
                "enlarge region_sectors"
            )


class _ZonedWithEpisodes(_Placement):
    """Zone-frontier appends, split at cleaning episodes.

    Between episodes a write run batches: three vectorized compares over
    the run's length cumsum find the first op that is oversized, outruns
    the ``writable`` tally or trips the clean trigger, and every op before
    it is laid out over the zone queue in one shot.  That op (if any) takes
    the scalar body: the driver's ``flush`` hook seek-classifies what is
    buffered and syncs the head, then the episode runs through the
    translator's own ``_ensure_room`` — victim selection, relocation and
    cleaning-seek accounting are the reference code itself, so episodes are
    exact by construction — after which the tallies resync and batching
    resumes from the post-episode head position.  Episode relocations
    never enter the access stream (the reference produces no ``IOOutcome``
    for them either; they count only in ``cleaning_stats``).
    """

    checks_writes = True  # submit() range-checks every request first

    def __init__(self, translator, buffer, flush) -> None:
        super().__init__(translator, buffer, flush)
        # O(zones) to compute, so carried across the feed's write runs.
        self.writable = translator._writable_sectors()
        self.free = translator.free_zones()

    def range_error(self, lba: int, length: int) -> str:
        return (
            f"request end {lba + length} crosses the identity/log boundary "
            f"{self.translator._base}"
        )

    def write_run(self, run_lba: np.ndarray, run_len: np.ndarray) -> None:
        translator = self.translator
        amap = self.amap
        batched = self.batched
        lookup_pieces = amap.lookup_pieces
        map_range = amap.map_range
        buffer = self.buffer

        base = translator._base
        reserve = translator._reserve
        half_capacity = translator._zones.capacity_sectors // 2
        zone_sectors = translator._zones.zone_sectors
        zones_list = translator._zones.zones
        open_order = translator._open_order
        live = translator._live
        entries = translator._entries
        cleaning_stats = translator.cleaning_stats
        writable = self.writable
        free = self.free
        host_written = 0
        too_large: Optional[int] = None

        run_ops = len(run_len)
        run_lba_list = run_lba.tolist()
        run_len_list = run_len.tolist()
        i = 0
        while i < run_ops:
            if batched and run_ops - i >= _MIN_BATCH_WRITE_RUN:
                # ---- batched prefix: every op strictly before the first
                # that is oversized, outruns the writable tally, or trips
                # the clean trigger.  That op (if any) falls through to the
                # scalar body, which runs the episode exactly; batching
                # resumes after it.
                seg_len = run_len[i:]
                cum = np.cumsum(seg_len)
                before = cum - seg_len
                j = translator._open_idx
                while j < len(open_order) and zones_list[open_order[j]].is_full:
                    j += 1
                m = 0
                if j < len(open_order):
                    # Zones turning non-empty strictly before each op: the
                    # frontier's remaining r0, then whole zones.  Every zone
                    # queued past the frontier is empty: a zone is queued
                    # again only once reset, and the frontier zone always
                    # holds a live piece, whose relocation moves it on.
                    frontier = zones_list[open_order[j]]
                    r0 = frontier.end - frontier.write_pointer
                    opened = (before - r0 + zone_sectors - 1) // zone_sectors
                    np.maximum(opened, 0, out=opened)
                    if frontier.write_pointer == frontier.start:
                        opened += before > 0
                    bad = (
                        (seg_len > half_capacity)
                        | (writable - before < seg_len)
                        | (free - opened < reserve)
                    )
                    m = int(bad.argmax()) if bad.any() else run_ops - i
                if m:
                    # Lay the prefix out over the zone queue.
                    total = int(cum[m - 1])
                    zone_caps: List[int] = []
                    zone_phys: List[int] = []
                    zone_pos: List[int] = []
                    covered = 0
                    jj = j
                    while covered < total:
                        zone = zones_list[open_order[jj]]
                        zone_caps.append(zone.end - zone.write_pointer)
                        zone_phys.append(zone.write_pointer)
                        zone_pos.append(jj)
                        covered += zone_caps[-1]
                        jj += 1
                    # Split ops at zone boundaries (virtual offsets
                    # 0..total over the laid-out capacity).
                    lens = seg_len[:m]
                    op_start = before[:m]
                    op_end = cum[:m]
                    caps = np.asarray(zone_caps, dtype=np.int64)
                    zone_ends = np.cumsum(caps)
                    zone_starts = zone_ends - caps
                    first_region = np.searchsorted(zone_ends, op_start, side="right")
                    last_region = np.searchsorted(zone_ends, op_end - 1, side="right")
                    reps = last_region - first_region + 1
                    n_pieces = int(reps.sum())
                    if n_pieces == m:
                        piece_region = first_region
                        piece_v = op_start
                        piece_len = lens
                        piece_lba = run_lba[i : i + m]
                    else:
                        offs = np.zeros(m, dtype=np.int64)
                        np.cumsum(reps[:-1], out=offs[1:])
                        intra = np.arange(n_pieces, dtype=np.int64) - offs.repeat(reps)
                        piece_region = first_region.repeat(reps) + intra
                        op_start_rep = op_start.repeat(reps)
                        piece_v = np.maximum(op_start_rep, zone_starts[piece_region])
                        piece_len = (
                            np.minimum(op_end.repeat(reps), zone_ends[piece_region])
                            - piece_v
                        )
                        piece_lba = run_lba[i : i + m].repeat(reps) + (
                            piece_v - op_start_rep
                        )
                    phys = np.asarray(zone_phys, dtype=np.int64)
                    piece_pba = base + phys[piece_region] + (
                        piece_v - zone_starts[piece_region]
                    )
                    # Map and access stream, in op order (the map applies
                    # rows in order, so intra-prefix overwrites land
                    # exactly as scalar would).
                    amap.map_range_batch(piece_lba, piece_pba, piece_len)
                    buffer.extend(piece_pba, piece_len, _KIND_WRITE)
                    # Ledger and zone pointers per zone.
                    region_counts = np.bincount(
                        piece_region, minlength=len(caps)
                    ).tolist()
                    pba_list = piece_pba.tolist()
                    lba_list = piece_lba.tolist()
                    len_list = piece_len.tolist()
                    pos = 0
                    for region, count in enumerate(region_counts):  # none is empty
                        zone = zones_list[open_order[zone_pos[region]]]
                        if zone.write_pointer == zone.start:
                            free -= 1
                        entries[zone.zone_id].extend(
                            zip(
                                pba_list[pos : pos + count],
                                lba_list[pos : pos + count],
                                len_list[pos : pos + count],
                            )
                        )
                        zone.write_pointer += (
                            min(total, int(zone_ends[region]))
                            - int(zone_starts[region])
                        )
                        pos += count
                    writable -= total
                    translator._open_idx = zone_pos[int(piece_region[-1])]
                    host_written += total
                    # Live counts: superseding and crediting net out to the
                    # mapped-live invariant, so rebuild the counts wholesale
                    # from the post-prefix map instead of invalidating per
                    # op.
                    _, map_pba_arr, map_len_arr = amap.extent_arrays()
                    in_log = map_pba_arr >= base
                    live.recompute_from_extents(
                        map_pba_arr[in_log] - base, map_len_arr[in_log]
                    )
                    i += m
                    continue
            op_lba = run_lba_list[i]
            op_length = run_len_list[i]
            i += 1
            host_written += op_length
            if op_length > half_capacity:
                # As the per-op loop leaves it: the violating op is counted
                # as host-written, nothing else of it is applied.
                too_large = op_length
                break
            if writable < op_length or free < reserve:
                # Episode boundary: close the buffered stream and sync the
                # head, run the episode via the translator's own cleaning
                # code, resync.
                self.flush()
                cleaning_stats.host_written_sectors += host_written
                host_written = 0
                translator._ensure_room(op_length)
                writable = translator._writable_sectors()
                free = translator.free_zones()
            # Invalidate what this write supersedes (against the pre-write
            # map, as _invalidate does).
            pieces = lookup_pieces(op_lba, op_length)
            if len(pieces) == 1:
                s_pba, s_len, s_hole = pieces[0]
                if not s_hole and s_pba >= base:
                    live.decrement_range(s_pba - base, s_len)
            else:
                dec_pba = [p - base for p, _l, h in pieces if not h and p >= base]
                if dec_pba:
                    dec_len = [
                        piece_len
                        for p, piece_len, h in pieces
                        if not h and p >= base
                    ]
                    live.decrement_ranges(
                        np.asarray(dec_pba, dtype=np.int64),
                        np.asarray(dec_len, dtype=np.int64),
                    )
            # Append at the zone frontier, splitting per zone (inline
            # ZonedAddressSpace.write — its validations hold by
            # construction here).
            remaining = op_length
            cursor = op_lba
            while remaining:
                zone = translator._current_zone()
                zone_remaining = zone.end - zone.write_pointer
                take = remaining if remaining < zone_remaining else zone_remaining
                pba = zone.write_pointer
                zone.write_pointer = pba + take
                if pba == zone.start:
                    free -= 1
                buffer.extend([base + pba], [take], [_KIND_WRITE])
                map_range(cursor, base + pba, take)
                zone_id = zone.zone_id
                live.add(zone_id, take)
                entries[zone_id].append((base + pba, cursor, take))
                writable -= take
                cursor += take
                remaining -= take

        cleaning_stats.host_written_sectors += host_written
        self.writable = writable
        self.free = free
        if too_large is not None:
            raise ValueError(
                f"write of {too_large} sectors too large for the configured log"
            )


# --------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------- #

_PLACEMENTS = {
    InPlaceTranslator: None,  # stateless: PBA = LBA, no placement at all
    LogStructuredTranslator: _SingleFrontier,
    MultiFrontierTranslator: _MultiFrontier,
    ZonedCleaningTranslator: _ZonedWithEpisodes,
}

# state_dict() counter key -> SimStats field, in snapshot order.
_COUNTERS = (
    ("reads", "reads"),
    ("writes", "writes"),
    ("sectors_read", "sectors_read"),
    ("sectors_written", "sectors_written"),
    ("read_fragments", "read_fragments"),
    ("fragmented_reads", "fragmented_reads"),
    ("cache_hits", "cache_fragment_hits"),
    ("buffer_hits", "buffer_fragment_hits"),
    ("defrag_rewrites", "defrag_rewrites"),
    ("defrag_sectors", "defrag_rewritten_sectors"),
    ("read_seeks", "read_seeks"),
    ("write_seeks", "write_seeks"),
    ("defrag_write_seeks", "defrag_write_seeks"),
)


class IncrementalBatchReplay:
    """Chunk-resumable exact replay with explicit serializable state.

    Feed operations in arbitrary batches (:meth:`feed_arrays`): the result
    equals a one-shot :func:`batch_replay` of the concatenated stream.  At
    any boundary the complete kernel state can be exported
    (:meth:`state_dict`) and restored (:meth:`from_state`), possibly in
    another process, to continue bit-identically.

    Args:
        translator: A fresh (or restored) :class:`InPlaceTranslator`,
            :class:`LogStructuredTranslator`,
            :class:`MultiFrontierTranslator` or
            :class:`ZonedCleaningTranslator`.  Other translator types
            raise :class:`BatchUnsupportedError`.
        trace_name: Label used in :meth:`result`'s ``RunResult``.
        track_fragments: Maintain a per-read fragment-count histogram
            (``{fragment_count: reads}``) alongside the counters.  The
            streaming service derives the live Fig. 5 fragment CDF from
            it; off by default so one-shot replays don't pay for it.
    """

    def __init__(
        self,
        translator: Translator,
        trace_name: str = "stream",
        track_fragments: bool = False,
    ) -> None:
        try:
            self._placement = _PLACEMENTS[type(translator)]
        except KeyError:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(translator).__name__}; "
                "use the reference Simulator"
            ) from None
        self._translator = translator
        self.trace_name = trace_name
        self.ops_applied = 0
        self._track_fragments = track_fragments
        self.fragment_hist: Dict[int, int] = {}
        self._counters: Dict[str, int] = {key: 0 for key, _field in _COUNTERS}
        # The techniques' state, owned by the fragment-policy kernel once a
        # run needs it; synced back wherever the translator is handed out.
        self._policies: Optional[FragmentPolicies] = None

        # Undrained seek-distance log, in access order.
        self._distance_chunks: List[np.ndarray] = []
        self._read_flag_chunks: List[np.ndarray] = []

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    @property
    def translator(self) -> Translator:
        self._sync_policies()
        return self._translator

    def _sync_policies(self) -> None:
        if self._policies is not None:
            self._policies.sync()

    def _kernel(self, placement: _Placement) -> FragmentPolicies:
        if self._policies is None:
            techniques = placement.cache, placement.prefetcher, placement.defrag
            self._policies = FragmentPolicies(*techniques)
        return self._policies

    # ----------------------------------------------------------------- #
    # Feeding
    # ----------------------------------------------------------------- #

    def feed_arrays(self, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray) -> None:
        """Replay one batch already in column form (any translator).

        A mid-batch error (e.g. a read crossing the frontier base) leaves
        the engine partially advanced — discard it and restore from the
        last snapshot, as the service's recovery path does.  Columns are
        coerced to contiguous bool / int64 / int64, so wire payloads
        (``uint8`` flags) and plain lists replay identically; columns of
        unequal length raise ``ValueError``.
        """
        is_read = np.ascontiguousarray(is_read, dtype=bool)
        lba = np.ascontiguousarray(lba, dtype=np.int64)
        length = np.ascontiguousarray(length, dtype=np.int64)
        if not len(is_read) == len(lba) == len(length):
            raise ValueError(
                "op columns differ in length: "
                f"is_read={len(is_read)}, lba={len(lba)}, length={len(length)}"
            )
        if len(lba) == 0:
            return
        if self._placement is None:
            # NoLS: every request is one access at PBA = LBA, so the
            # columns *are* the access stream.
            self._fold_ops(is_read, length, np.ones(len(lba), dtype=np.int64))
            self._log_accesses(lba, length, (~is_read).view(np.int8))
        else:
            self._replay_runs(is_read, lba, length)

    def _replay_runs(
        self,
        is_read: np.ndarray,
        lba: np.ndarray,
        length: np.ndarray,
        retain: Optional[List[tuple]] = None,
    ) -> np.ndarray:
        """The log-structured driver: run-split replay of one batch.

        The batch is cut into maximal write runs, which go to the
        translator family's :class:`_Placement`, and read runs
        (:meth:`_read_run`) — or, with defrag, into windows of ops
        (:meth:`_defrag_ops`).  All append to one access buffer,
        seek-classified once at the end (and at cleaning-episode
        boundaries, through the placement's ``flush`` hook).

        Ops ahead of the first request crossing into the log still apply,
        then the reference's ``ValueError`` is raised — like any placement
        error, with the translator left as the per-op loop leaves it and
        the engine partially advanced (discard it; restore a snapshot).

        Returns the per-op fragment counts (1 for writes).  ``retain``
        collects the classified ``(pba, length, kind)`` stream segments
        for :func:`repro.core.stream.record_fragment_stream`.
        """
        n = len(lba)
        buffer = _AccessBuffer()

        def flush() -> None:
            accesses = buffer.take()
            if accesses is not None:
                self._log_accesses(*accesses)
                if retain is not None:
                    retain.append(accesses)

        placement = self._placement(self._translator, buffer, flush)
        violation = lba + length > self._translator.frontier_base
        if not placement.checks_writes:
            violation &= is_read
        stop = int(violation.argmax()) if violation.any() else n

        fragments = np.ones(n, dtype=np.int64)
        run_bounds = [0]
        if placement.defrag is not None:
            fragments[:stop] = self._defrag_ops(
                placement, is_read[:stop], lba[:stop], length[:stop]
            )
        elif stop:
            edges = np.flatnonzero(np.diff(is_read[:stop].view(np.int8))) + 1
            run_bounds = [0, *edges.tolist(), stop]
        for run_start, run_stop in zip(run_bounds[:-1], run_bounds[1:]):
            run_lba = lba[run_start:run_stop]
            run_len = length[run_start:run_stop]
            if is_read[run_start]:
                fragments[run_start:run_stop] = self._read_run(
                    placement, run_lba, run_len
                )
            else:
                placement.write_run(run_lba, run_len)
        if stop < n:
            raise ValueError(
                placement.range_error(int(lba[stop]), int(length[stop]))
            )
        self._fold_ops(is_read, length, fragments)
        flush()
        return fragments

    def _read_run(self, placement: _Placement, run_lba, run_len):
        """Resolve one read run into the buffer (:meth:`_serve`); returns
        the per-read fragment counts."""
        if placement.batched and len(run_lba) >= _MIN_BATCH_READ_RUN:
            pba, length, _hole, offsets = placement.amap.lookup_pieces_batch(run_lba, run_len)
            kind, counts = np.zeros(len(pba), dtype=np.int8), np.diff(offsets)
        else:  # tiny: lists, which the buffer spills without numpy calls
            reads = list(map(placement.amap.lookup_pieces, run_lba.tolist(), run_len.tolist()))
            pba, length, _hole = map(list, zip(*chain.from_iterable(reads)))
            kind, counts = [_KIND_READ] * len(pba), list(map(len, reads))
        self._serve(placement, pba, length, kind, counts)
        return counts

    def _defrag_ops(self, placement: _Placement, is_read, lba, length) -> np.ndarray:
        """Replay ops under opportunistic defrag (Alg. 1) in windows of
        ``_DEFRAG_WINDOW``; returns their fragment counts (1 for writes).

        On the single frontier a write and a defrag rewrite are the same
        append, so the compiled loop replays a whole window at once, its
        appends laid over its reads; they reach the map before the next.
        """
        kernel, translator, amap = self._kernel(placement), placement.translator, placement.amap
        counts: List[np.ndarray] = []
        start = 0
        while start < len(lba):
            window = slice(start, start + _DEFRAG_WINDOW)
            done, fragments, accesses, appends, progress = kernel.replay(
                translator._frontier, amap, is_read[window], lba[window], length[window]
            )
            translator._frontier = progress["frontier"]
            amap.map_range_batch(*appends)
            self._counters["defrag_rewrites"] += progress["rewrites"]
            self._counters["defrag_sectors"] += progress["rewritten"]
            self._serve(placement, *accesses, fragments[is_read[start : start + done]])
            counts.append(fragments)
            start += done
        return _concat(counts, np.int64)

    def _serve(self, placement: _Placement, pba, length, kind, counts) -> None:
        """Append resolved ``(pba, length, kind)`` accesses to the buffer,
        ``counts`` being each read's fragment count, once cache and prefetch
        served the fragments of fragmented reads (``FragmentedRead``): exact
        after resolution, as neither the map nor defrag reads their state.
        """
        policies = placement.cache is not None or placement.prefetcher is not None
        if policies and np.sum(counts) > len(counts):  # some read is fragmented
            pba, length, kind, counts = map(np.asarray, (pba, length, kind, counts))
            eligible = np.flatnonzero(kind == _KIND_READ)[np.repeat(counts > 1, counts)]
            keep, cache_hits, buffer_hits = filter_accesses(self._kernel(placement), pba, length,
                                                            eligible)
            pba, length, kind = pba[keep], length[keep], kind[keep]
            self._counters["cache_hits"] += cache_hits
            self._counters["buffer_hits"] += buffer_hits
        placement.buffer.extend(pba, length, kind)

    def _fold_ops(
        self, is_read: np.ndarray, length: np.ndarray, fragments: np.ndarray
    ) -> None:
        """Fold one applied batch into the request-side counters.

        ``fragments`` is per op — the read's fragment count, 1 for a write
        — so the read-fragment total is its sum less the writes.
        """
        n = len(is_read)
        reads = int(np.count_nonzero(is_read))
        sectors_read = int(length[is_read].sum())
        counters = self._counters
        counters["reads"] += reads
        counters["writes"] += n - reads
        counters["sectors_read"] += sectors_read
        counters["sectors_written"] += int(length.sum()) - sectors_read
        counters["read_fragments"] += int(fragments.sum()) - (n - reads)
        counters["fragmented_reads"] += int(np.count_nonzero(fragments > 1))
        if self._track_fragments:
            hist = np.bincount(fragments, minlength=2)
            hist[1] -= n - reads
            fragment_hist = self.fragment_hist
            for value in np.flatnonzero(hist).tolist():
                fragment_hist[value] = fragment_hist.get(value, 0) + int(hist[value])
        self.ops_applied += n

    def _log_accesses(
        self, pba: np.ndarray, length: np.ndarray, kind: np.ndarray
    ) -> None:
        """Seek-classify one access-stream segment from the current head
        position, fold the seeks, and sync the head onto the translator."""
        head = self._translator.head
        _seek, distances, seek_kinds, end = classify_seeks(
            pba, length, kind, head.position
        )
        is_read_seek = seek_kinds == _KIND_READ
        read_seeks = int(np.count_nonzero(is_read_seek))
        defrag_seeks = int(np.count_nonzero(seek_kinds == _KIND_DEFRAG))
        counters = self._counters
        counters["read_seeks"] += read_seeks
        counters["write_seeks"] += len(seek_kinds) - read_seeks - defrag_seeks
        counters["defrag_write_seeks"] += defrag_seeks
        if len(distances):
            self._distance_chunks.append(distances)
            self._read_flag_chunks.append(is_read_seek)
        head.restore_position(end)

    # ----------------------------------------------------------------- #
    # Results
    # ----------------------------------------------------------------- #

    def stats(self) -> SimStats:
        """Cumulative counters over everything fed so far."""
        stats = SimStats()
        for key, field in _COUNTERS:
            setattr(stats, field, self._counters[key])
        return stats

    def _distance_log(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            _concat(self._distance_chunks, np.int64),
            _concat(self._read_flag_chunks, bool),
        )

    def drain_distances(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return and clear the seek distances logged since the last drain.

        Returns ``(distances, distance_is_read)`` in access order.  The
        streaming service drains after every batch and folds the arrays
        into bounded incremental summaries
        (:class:`~repro.analysis.incremental.IncrementalDistances`), so a
        long-lived session never accumulates an unbounded distance log.
        Counters are unaffected; a later :meth:`result` only carries
        distances logged after the drain.
        """
        log = self._distance_log()
        self._distance_chunks = []
        self._read_flag_chunks = []
        return log

    def result(self) -> BatchRunResult:
        """Package the cumulative state as a :class:`BatchRunResult`.

        Equals the one-shot :func:`batch_replay` result for the
        concatenation of every batch fed (provided :meth:`drain_distances`
        was never called — draining moves distances out of the engine).
        """
        distances, dist_is_read = self._distance_log()
        self._sync_policies()
        return BatchRunResult(
            run_result=RunResult(
                trace_name=self.trace_name,
                translator=self._translator.description,
                stats=self.stats(),
            ),
            distances=distances,
            distance_is_read=dist_is_read,
            translator=self._translator,
        )

    # ----------------------------------------------------------------- #
    # Serializable kernel state
    # ----------------------------------------------------------------- #

    def state_dict(self) -> dict:
        """The complete kernel state at the current batch boundary.

        Scalars are plain Python values; the translator's extent map, the
        fragment histogram (``(n, 2)`` ``[fragments, reads]``, sorted) and
        the undrained distance log are int64/bool numpy arrays — exactly
        the split :mod:`repro.util.npystore` persists.  Restoring the
        snapshot with :meth:`from_state` resumes the replay bit-identically.
        """
        distances, dist_is_read = self._distance_log()
        # Concatenating is also a normalization — keep the merged arrays
        # so repeated snapshots don't re-concatenate ever-growing lists.
        self._distance_chunks = [distances]
        self._read_flag_chunks = [dist_is_read]
        self._sync_policies()
        return {
            "trace_name": self.trace_name,
            "ops_applied": self.ops_applied,
            "track_fragments": self._track_fragments,
            "fragment_hist": hist_to_pairs(self.fragment_hist),
            "head_position": self._translator.head.position,
            "counters": dict(self._counters),
            "translator": self._translator.state_dict(),
            "distances": distances,
            "distance_is_read": dist_is_read,
        }

    @classmethod
    def from_state(cls, translator: Translator, state: dict) -> "IncrementalBatchReplay":
        """Rebuild an engine from :meth:`state_dict` output.

        ``translator`` must be freshly built from the same configuration
        as the snapshotted one (e.g. via
        :func:`~repro.core.config.build_translator_for_base`); its state
        is overwritten from the snapshot.
        """
        engine = cls(
            translator,
            trace_name=state["trace_name"],
            track_fragments=bool(state["track_fragments"]),
        )
        translator.load_state(state["translator"])
        engine.ops_applied = int(state["ops_applied"])
        engine.fragment_hist = pairs_to_hist(state["fragment_hist"])
        engine._counters = {
            key: int(state["counters"][key]) for key, _field in _COUNTERS
        }
        engine._distance_chunks = [np.asarray(state["distances"], dtype=np.int64)]
        engine._read_flag_chunks = [np.asarray(state["distance_is_read"], dtype=bool)]
        return engine
