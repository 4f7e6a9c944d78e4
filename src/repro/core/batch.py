"""Vectorized (numpy) batch replay kernels for the translators.

The reference replay path — :class:`~repro.core.simulator.Simulator`
driving :meth:`Translator.submit` — materializes an
:class:`~repro.core.outcomes.IOOutcome` (plus one
:class:`~repro.core.outcomes.SegmentAccess` per fragment and one
:class:`~repro.disk.head.AccessEvent` per head movement) for every
operation.  That per-op object traffic is what makes multi-million-op
replays slow, not the extent-map arithmetic.  This module replays the same
translators over numpy op arrays instead:

* **NoLS** is stateless, so each batch collapses to array expressions over
  the op columns — no Python loop at all.
* **Log-structured** replay is stateful (the extent map evolves with every
  write), so the kernel sweeps the ops in *chunks*: a tight Python loop
  per chunk performs only the stateful work (extent-map lookups via
  :meth:`~repro.extentmap.base.AddressMap.lookup_pieces`, frontier
  appends, technique-policy calls), appending bare integers to flat
  access-stream buffers; seek classification and distance accumulation
  over each chunk's access stream are then fully vectorized.

All kernels are **exact**, not approximate: they reproduce the reference
path's seek counts, seek-distance log, aggregate statistics and final
extent-map state bit for bit (the differential suite under
``tests/differential/`` is the oracle).  The finite-log translators are
covered too:

* **Multi-frontier** replay keeps one running frontier per class;
  classification (:class:`~repro.core.multifrontier.RecencyClassifier`)
  is inherently sequential (each write's verdict depends on the recent
  set as *its* predecessors left it), so the write loop stays scalar but
  inlined, while mapping (:meth:`~ArrayExtentMap.map_range_batch` per
  run), read resolution and seek classification are vectorized.
* **Zoned-cleaning** replay maintains per-zone live-sector counts in a
  :class:`~repro.extentmap.live_counts.ZoneLiveCounts` array (scatter-add
  invalidation), checks the clean trigger with two integer compares per
  write, and on trigger *splits the chunk at the episode boundary*: the
  buffered access stream is seek-classified up to the boundary, the head
  is synced onto the translator, and the cleaning episode runs through
  the translator's own ``_ensure_room`` — exact by construction — before
  batching resumes.

Translator features with no kernel — fault injection, retry policies,
recorders — fall back to the reference simulator when selected through
:func:`repro.experiments.common.replay_with`, which now reports *why*
via :class:`BatchSupport` / :attr:`BatchUnsupportedError.reason` instead
of silently downgrading.

Resumable replay
----------------

The kernels live in :class:`IncrementalBatchReplay`, a **chunk-resumable
engine with explicit serializable state**: feed ops in arbitrary batches,
snapshot the complete kernel state at any batch boundary
(:meth:`~IncrementalBatchReplay.state_dict`), restore it into a fresh
process (:meth:`~IncrementalBatchReplay.from_state`) and continue —
the final stats, seek-distance log and translator state are bit-identical
to a one-shot replay of the same op stream (Hypothesis-tested in
``tests/differential/test_incremental_vs_oneshot.py``).  This is what
lets the streaming service (:mod:`repro.service`) keep per-tenant replay
state resident, checkpoint it, and recover from a ``kill -9`` — and what
bounds replay memory for arbitrarily long op streams.
:func:`batch_replay` is a thin one-shot wrapper over the same engine.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cleaning import ZonedCleaningTranslator
from repro.core.config import TechniqueConfig, build_translator
from repro.core.multifrontier import (
    MultiFrontierTranslator,
    RecencyClassifier,
    _frontier_label,
)
from repro.core.outcomes import SimStats
from repro.core.simulator import RunResult
from repro.core.translators import (
    InPlaceTranslator,
    LogStructuredTranslator,
    Translator,
)
from repro.extentmap.array_map import ArrayExtentMap
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, resolve_map_tier
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.util.bulkstate import hist_to_pairs, pairs_to_hist

#: Operations swept per chunk by the log-structured kernel.  The result is
#: chunk-size independent (head position carries across chunks); the value
#: only bounds peak buffer memory and amortizes numpy call overhead.
DEFAULT_CHUNK_OPS = 8192

# Access-stream kind codes (mirror the reference seek attribution).
_KIND_READ = 0
_KIND_WRITE = 1
_KIND_DEFRAG = 2

# Run-length cutoffs below which the scalar per-op path beats the
# vectorized batch entry points (fixed numpy-call overhead dominates on
# tiny runs).  Purely perf knobs: both paths are exact.
_MIN_BATCH_WRITE_RUN = 8
_MIN_BATCH_READ_RUN = 16

#: Reads resolved per ``lookup_pieces_batch`` call on technique
#: configurations; a defrag rewrite invalidates the resolved window, so
#: windowing bounds the work thrown away when one fires.
_READ_RESOLVE_WINDOW = 512


class BatchUnsupportedError(ValueError):
    """The requested translator/configuration has no batch kernel.

    Attributes:
        reason: Short structured tag naming the feature that forced the
            reference fallback (e.g. ``"translator FaultyTranslator"``);
            surfaced in exhibit manifests and the CLI ``--fast`` summary
            so fallbacks are visible rather than silent.
    """

    def __init__(self, message: str, reason: Optional[str] = None) -> None:
        super().__init__(message)
        self.reason = reason if reason is not None else message


@dataclass(frozen=True)
class BatchSupport:
    """Whether the batch kernels cover a configuration, and if not, why.

    Attributes:
        supported: True if :func:`batch_replay` covers the configuration.
        reason: ``None`` when supported; otherwise the feature that forces
            the reference-simulator fallback.
    """

    supported: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.supported


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


def batch_support(config: TechniqueConfig) -> BatchSupport:
    """Coverage verdict (with fallback reason) for a configuration.

    Every :class:`TechniqueConfig` is covered — NoLS, plain LS, the three
    seek-reduction techniques in any combination, and multi-frontier
    placement (``multi_frontier``).  Only objects outside the config
    system (and translator features like fault injection, recorders or
    retry policies, which never reach this check) force the reference
    simulator; the returned :class:`BatchSupport` names the culprit.
    """
    if not isinstance(config, TechniqueConfig):
        return BatchSupport(
            False, f"config type {type(config).__name__} has no batch kernel"
        )
    return BatchSupport(True)


def supports_batch(config: TechniqueConfig) -> bool:
    """True if :func:`batch_replay` covers this technique configuration.

    Boolean shorthand for :func:`batch_support`, which also reports *why*
    an unsupported configuration falls back.
    """
    return batch_support(config).supported


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
    """
    support = batch_support(config)
    if not support:
        raise BatchUnsupportedError(
            f"no batch kernel for config {config!r}; use the reference Simulator",
            reason=support.reason,
        )
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
    :class:`BatchUnsupportedError` for translator types without a kernel
    (fault wrappers, the media-cache STL).
    """
    if chunk_ops <= 0:
        raise ValueError(f"chunk_ops must be > 0, got {chunk_ops}")
    engine = IncrementalBatchReplay(translator, trace_name=trace.name)
    if engine.log_structured:
        is_read, lba, length = trace.as_arrays()
        for start in range(0, len(lba), chunk_ops):
            stop = start + chunk_ops
            engine.feed_arrays(is_read[start:stop], lba[start:stop], length[start:stop])
    else:
        # NoLS needs no chunking: one fully vectorized pass over the
        # trace's cached column arrays.
        engine.feed_arrays(*trace.as_arrays())
    return engine.result()


class IncrementalBatchReplay:
    """Chunk-resumable exact replay with explicit serializable state.

    Feed operations in arbitrary batches (:meth:`feed` /
    :meth:`feed_arrays`); counters, the seek-distance log and the
    translator state advance exactly as a one-shot :func:`batch_replay`
    of the concatenated stream would — batch boundaries are invisible in
    the result.  At any boundary the complete kernel state can be
    exported (:meth:`state_dict`), persisted, and later restored
    (:meth:`from_state`) to continue the replay bit-identically, possibly
    in a different process.

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
            it; off by default so one-shot replays don't pay the extra
            dict update per read.
    """

    def __init__(
        self,
        translator: Translator,
        trace_name: str = "stream",
        track_fragments: bool = False,
    ) -> None:
        self._ls: Optional[LogStructuredTranslator] = None
        self._mf: Optional[MultiFrontierTranslator] = None
        self._zc: Optional[ZonedCleaningTranslator] = None
        if type(translator) is LogStructuredTranslator:
            self._ls = translator
        elif type(translator) is MultiFrontierTranslator:
            self._mf = translator
        elif type(translator) is ZonedCleaningTranslator:
            self._zc = translator
        elif type(translator) is not InPlaceTranslator:
            raise BatchUnsupportedError(
                f"no batch kernel for {type(translator).__name__}; "
                "use the reference Simulator",
                reason=f"translator {type(translator).__name__}",
            )
        self._translator = translator
        self.trace_name = trace_name
        self.ops_applied = 0
        self._track_fragments = track_fragments
        self.fragment_hist: Dict[int, int] = {}
        self._head_position = translator.head.position

        # Scalar accumulators (folded into a SimStats by result()).
        self._reads = 0
        self._writes = 0
        self._sectors_read = 0
        self._sectors_written = 0
        self._read_fragments = 0
        self._fragmented_reads = 0
        self._cache_hits = 0
        self._buffer_hits = 0
        self._defrag_rewrites = 0
        self._defrag_sectors = 0
        self._read_seeks = 0
        self._write_seeks = 0
        self._defrag_write_seeks = 0

        # Undrained seek-distance log, in access order.
        self._distance_chunks: List[np.ndarray] = []
        self._read_flag_chunks: List[np.ndarray] = []

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    @property
    def translator(self) -> Translator:
        return self._translator

    @property
    def log_structured(self) -> bool:
        """True for stateful (chunked) kernels: LS, multi-frontier, cleaning."""
        return self._ls is not None or self._mf is not None or self._zc is not None

    # ----------------------------------------------------------------- #
    # Feeding
    # ----------------------------------------------------------------- #

    def feed(self, requests: Sequence[IORequest]) -> None:
        """Replay one batch of requests, advancing the resident state.

        A mid-batch error (e.g. a read crossing the frontier base) leaves
        the engine partially advanced — discard it and restore from the
        last snapshot; this is exactly what the service's recovery path
        does.
        """
        n = len(requests)
        if n == 0:
            return
        packed = np.fromiter(
            ((r.is_read, r.lba, r.length) for r in requests),
            dtype=[("is_read", "?"), ("lba", "<i8"), ("length", "<i8")],
            count=n,
        )
        self.feed_arrays(packed["is_read"], packed["lba"], packed["length"])

    def feed_arrays(
        self, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        """Replay one batch already in column form (any kernel).

        The zero-conversion entry point: the NoLS kernel is one array
        expression over the columns, and the log-structured kernel splits
        the batch into write/read runs and drives the address map's batch
        entry points directly (:meth:`feed` is a thin packing wrapper
        over this).
        """
        if self.log_structured:
            columns = (
                np.ascontiguousarray(is_read, dtype=bool),
                np.ascontiguousarray(lba, dtype=np.int64),
                np.ascontiguousarray(length, dtype=np.int64),
            )
            if self._ls is not None:
                self._feed_ls_arrays(*columns)
            elif self._mf is not None:
                self._feed_mf_arrays(*columns)
            else:
                self._feed_cleaning_arrays(*columns)
            return
        n = len(lba)
        if n == 0:
            return
        prev_end = np.empty(n, dtype=np.int64)
        prev_end[0] = lba[0] if self._head_position is None else self._head_position
        np.add(lba[:-1], length[:-1], out=prev_end[1:])
        seek = lba != prev_end
        distances = (lba - prev_end)[seek]
        dist_is_read = np.ascontiguousarray(is_read[seek])
        reads = int(np.count_nonzero(is_read))
        read_seeks = int(np.count_nonzero(dist_is_read))
        sectors_read = int(length[is_read].sum())
        self._reads += reads
        self._writes += n - reads
        self._read_seeks += read_seeks
        self._write_seeks += int(distances.size) - read_seeks
        self._read_fragments += reads
        self._sectors_read += sectors_read
        self._sectors_written += int(length.sum()) - sectors_read
        if self._track_fragments and reads:
            self.fragment_hist[1] = self.fragment_hist.get(1, 0) + reads
        if distances.size:
            self._distance_chunks.append(np.ascontiguousarray(distances))
            self._read_flag_chunks.append(dist_is_read)
        self._head_position = int(lba[-1] + length[-1])
        self._translator.head.restore_position(self._head_position)
        self.ops_applied += n

    def _feed_ls_arrays(
        self, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        """The log-structured kernel: run-split, batch-mapped replay.

        The batch is cut into maximal write runs and read runs.  On an
        :class:`ArrayExtentMap` a write run maps in one call with a
        single batched frontier reservation (the run's PBAs are one
        cumulative sum — valid because host writes are the only frontier
        consumers inside a write run), and a plain-LS read run resolves
        in one :meth:`~ArrayExtentMap.lookup_pieces_batch` call.
        Technique configurations resolve reads in windows, replaying the
        per-read policy decisions (cache/prefetch/defrag) in order; a
        defrag rewrite moves both the map and the frontier, so it
        invalidates the resolved window.  Tiny runs and non-array maps
        take the scalar per-op path — all paths are exact and produce
        identical access streams, so results are independent of run
        shape and chunk size.
        """
        n = len(lba)
        if n == 0:
            return
        translator = self._ls
        amap = translator.address_map
        batch_map = isinstance(amap, ArrayExtentMap)
        lookup_pieces = amap.lookup_pieces
        map_range = amap.map_range
        defrag = translator.defrag
        prefetcher = translator.prefetcher
        cache = translator.cache
        plain = defrag is None and prefetcher is None and cache is None
        track_fragments = self._track_fragments
        fragment_hist = self.fragment_hist

        frontier = translator.frontier
        frontier_base = translator.frontier_base
        head_position = self._head_position

        # Stop before the first read crossing the frontier base: ops ahead
        # of it still apply (the engine ends partially advanced, exactly
        # like the per-op loop), then the same ValueError is raised.
        violation = is_read & (lba + length > frontier_base)
        stop = n
        bad_op = None
        if violation.any():
            stop = int(violation.argmax())
            bad_op = (int(lba[stop]), int(length[stop]))

        # Access-stream chunks (disk accesses only, in access order).
        # Vectorized runs append arrays; scalar paths spill into lists
        # that are drained into a chunk whenever the order requires it.
        chunks: List[tuple] = []
        pba_buf: List[int] = []
        len_buf: List[int] = []
        kind_buf: List[int] = []
        append_pba = pba_buf.append
        append_len = len_buf.append
        append_kind = kind_buf.append

        def drain_scalar() -> None:
            if pba_buf:
                chunks.append(
                    (
                        np.asarray(pba_buf, dtype=np.int64),
                        np.asarray(len_buf, dtype=np.int64),
                        np.asarray(kind_buf, dtype=np.int8),
                    )
                )
                del pba_buf[:]
                del len_buf[:]
                del kind_buf[:]

        # Scalar accumulators kept in locals for speed, folded in after.
        reads = writes = 0
        sectors_read = sectors_written = 0
        read_fragments = fragmented_reads = 0
        cache_hits = buffer_hits = 0
        defrag_rewrites = defrag_sectors = 0

        if stop:
            flags = is_read[:stop]
            edges = np.flatnonzero(np.diff(flags.view(np.int8))) + 1
            bounds = [0, *edges.tolist(), stop]
        else:
            bounds = [0]
        for run_start, run_stop in zip(bounds[:-1], bounds[1:]):
            run_ops = run_stop - run_start
            if not flags[run_start]:
                # ---------------------------- write run
                writes += run_ops
                run_len = length[run_start:run_stop]
                if batch_map and run_ops >= _MIN_BATCH_WRITE_RUN:
                    total = int(run_len.sum())
                    run_pba = np.empty(run_ops, dtype=np.int64)
                    run_pba[0] = frontier
                    np.cumsum(run_len[:-1], out=run_pba[1:])
                    run_pba[1:] += frontier
                    amap.map_range_batch(lba[run_start:run_stop], run_pba, run_len)
                    drain_scalar()
                    chunks.append(
                        (run_pba, run_len, np.full(run_ops, _KIND_WRITE, np.int8))
                    )
                    frontier += total
                    sectors_written += total
                else:
                    for op_lba, op_length in zip(
                        lba[run_start:run_stop].tolist(), run_len.tolist()
                    ):
                        append_pba(frontier)
                        append_len(op_length)
                        append_kind(_KIND_WRITE)
                        map_range(op_lba, frontier, op_length)
                        frontier += op_length
                        sectors_written += op_length
                continue

            # -------------------------------- read run
            run_lba = lba[run_start:run_stop]
            run_len = length[run_start:run_stop]
            if plain and batch_map and run_ops >= _MIN_BATCH_READ_RUN:
                piece_pba, piece_len, _hole, offsets = amap.lookup_pieces_batch(
                    run_lba, run_len
                )
                counts = np.diff(offsets)
                reads += run_ops
                sectors_read += int(run_len.sum())
                read_fragments += int(offsets[-1])
                fragmented_reads += int(np.count_nonzero(counts > 1))
                if track_fragments:
                    values, repeats = np.unique(counts, return_counts=True)
                    for value, repeat in zip(values.tolist(), repeats.tolist()):
                        fragment_hist[value] = fragment_hist.get(value, 0) + repeat
                drain_scalar()
                chunks.append(
                    (piece_pba, piece_len, np.full(len(piece_pba), _KIND_READ, np.int8))
                )
                continue
            if not plain and batch_map and run_ops >= _MIN_BATCH_READ_RUN:
                # Windowed batch resolution + per-read technique replay.
                # A defrag rewrite moves the map, but only for the range
                # it rewrote — instead of re-resolving the whole window,
                # remember the stale ranges and re-resolve just the ops
                # that overlap one (scalar, against the live map).
                lba_list = run_lba.tolist()
                len_list = run_len.tolist()
                window_base = window_stop = 0
                p_list: List[int] = []
                l_list: List[int] = []
                off_list: List[int] = []
                stale: List[tuple] = []
                for j in range(run_ops):
                    if j >= window_stop:
                        window_base = j
                        window_stop = min(j + _READ_RESOLVE_WINDOW, run_ops)
                        p_arr, l_arr, _h, off = amap.lookup_pieces_batch(
                            run_lba[window_base:window_stop],
                            run_len[window_base:window_stop],
                        )
                        p_list = p_arr.tolist()
                        l_list = l_arr.tolist()
                        off_list = off.tolist()
                        stale = []
                    req_lba = lba_list[j]
                    req_length = len_list[j]
                    req_end = req_lba + req_length
                    op_p = p_list
                    op_l = l_list
                    lo = off_list[j - window_base]
                    fragments = off_list[j - window_base + 1] - lo
                    for stale_start, stale_end in stale:
                        if stale_start < req_end and req_lba < stale_end:
                            pieces = lookup_pieces(req_lba, req_length)
                            op_p = [piece[0] for piece in pieces]
                            op_l = [piece[1] for piece in pieces]
                            lo = 0
                            fragments = len(pieces)
                            break
                    reads += 1
                    sectors_read += req_length
                    read_fragments += fragments
                    if track_fragments:
                        fragment_hist[fragments] = (
                            fragment_hist.get(fragments, 0) + 1
                        )
                    if fragments == 1:
                        # Unfragmented reads bypass every technique (the
                        # paper's FragmentedRead guard).
                        append_pba(op_p[lo])
                        append_len(op_l[lo])
                        append_kind(_KIND_READ)
                        continue
                    fragmented_reads += 1
                    for piece in range(lo, lo + fragments):
                        pba = op_p[piece]
                        piece_length = op_l[piece]
                        if cache is not None and cache.lookup(pba, piece_length):
                            cache_hits += 1
                            continue
                        if prefetcher is not None and prefetcher.covers(
                            pba, piece_length
                        ):
                            buffer_hits += 1
                            continue
                        append_pba(pba)
                        append_len(piece_length)
                        append_kind(_KIND_READ)
                        if prefetcher is not None:
                            prefetcher.note_fragment_read(pba, piece_length)
                        if cache is not None:
                            cache.admit(pba, piece_length)
                    if defrag is not None and defrag.should_defragment(
                        req_lba, req_length, fragments
                    ):
                        append_pba(frontier)
                        append_len(req_length)
                        append_kind(_KIND_DEFRAG)
                        map_range(req_lba, frontier, req_length)
                        frontier += req_length
                        defrag_rewrites += 1
                        defrag_sectors += req_length
                        defrag.note_defragmented(req_lba, req_length)
                        stale.append((req_lba, req_end))
                continue
            # Scalar read path (non-array maps and tiny runs) — the
            # original per-op logic, shared by every tier.
            for req_lba, req_length in zip(run_lba.tolist(), run_len.tolist()):
                pieces = lookup_pieces(req_lba, req_length)
                fragments = len(pieces)
                reads += 1
                sectors_read += req_length
                read_fragments += fragments
                if track_fragments:
                    fragment_hist[fragments] = fragment_hist.get(fragments, 0) + 1
                if plain or fragments == 1:
                    for pba, piece_length, _hole in pieces:
                        append_pba(pba)
                        append_len(piece_length)
                        append_kind(_KIND_READ)
                    if fragments > 1:
                        fragmented_reads += 1
                    continue
                fragmented_reads += 1
                for pba, piece_length, _hole in pieces:
                    if cache is not None and cache.lookup(pba, piece_length):
                        cache_hits += 1
                        continue
                    if prefetcher is not None and prefetcher.covers(
                        pba, piece_length
                    ):
                        buffer_hits += 1
                        continue
                    append_pba(pba)
                    append_len(piece_length)
                    append_kind(_KIND_READ)
                    if prefetcher is not None:
                        prefetcher.note_fragment_read(pba, piece_length)
                    if cache is not None:
                        cache.admit(pba, piece_length)
                if defrag is not None and defrag.should_defragment(
                    req_lba, req_length, fragments
                ):
                    append_pba(frontier)
                    append_len(req_length)
                    append_kind(_KIND_DEFRAG)
                    map_range(req_lba, frontier, req_length)
                    frontier += req_length
                    defrag_rewrites += 1
                    defrag_sectors += req_length
                    defrag.note_defragmented(req_lba, req_length)

        if bad_op is not None:
            # Match the per-op loop's error contract: the prefix mutated
            # the map/techniques, but nothing is folded or classified —
            # the engine must be discarded (restore from a snapshot).
            raise ValueError(
                f"request [{bad_op[0]}, {bad_op[0] + bad_op[1]}) crosses the "
                f"frontier base {frontier_base}; size the log above the "
                "workload's LBA space"
            )

        self._fold_scalars(
            reads, writes, sectors_read, sectors_written, read_fragments,
            fragmented_reads, cache_hits, buffer_hits, defrag_rewrites,
            defrag_sectors,
        )
        self.ops_applied += n
        drain_scalar()

        self._head_position = self._classify_access_stream(chunks, head_position)

        # Leave the translator in the exact state a reference replay
        # produces after the same ops.
        translator._frontier = frontier
        translator.head.restore_position(self._head_position)

    def _classify_access_stream(
        self, chunks: List[tuple], head_position: Optional[int]
    ) -> Optional[int]:
        """Vectorized seek classification over a buffered access stream.

        Folds seek counts and distances into the engine counters and
        returns the head position after the stream (``head_position``
        unchanged when the stream is empty).  Shared by every stateful
        kernel; the zoned-cleaning kernel also calls it mid-batch at each
        cleaning-episode boundary.
        """
        if not chunks:
            return head_position
        pba_arr = np.concatenate([chunk[0] for chunk in chunks])
        len_arr = np.concatenate([chunk[1] for chunk in chunks])
        kind_arr = np.concatenate([chunk[2] for chunk in chunks])
        prev_end = np.empty_like(pba_arr)
        prev_end[0] = pba_arr[0] if head_position is None else head_position
        np.add(pba_arr[:-1], len_arr[:-1], out=prev_end[1:])
        seek = pba_arr != prev_end
        seek_kinds = kind_arr[seek]
        self._read_seeks += int(np.count_nonzero(seek_kinds == _KIND_READ))
        self._write_seeks += int(np.count_nonzero(seek_kinds == _KIND_WRITE))
        self._defrag_write_seeks += int(
            np.count_nonzero(seek_kinds == _KIND_DEFRAG)
        )
        self._distance_chunks.append((pba_arr - prev_end)[seek])
        self._read_flag_chunks.append(seek_kinds == _KIND_READ)
        return int(pba_arr[-1] + len_arr[-1])

    def _feed_mf_arrays(
        self, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        """The multi-frontier kernel: inline classification, batched mapping.

        Write classification is inherently sequential — each op's verdict
        depends on the recent-block set exactly as *its* predecessors left
        it — so the write loop stays scalar, but with the classifier's LRU
        update inlined (no method dispatch, no per-op objects) while it
        maintains every per-class running frontier.  A write run then maps
        in one :meth:`~ArrayExtentMap.map_range_batch` call (the per-op
        PBA assignment the loop produced *is* the N-frontier exclusive
        cumsum, applied in op order so overlapping writes resolve exactly
        like the reference).  Read runs and seek classification are fully
        vectorized, identical to the plain-LS paths.  Exact for any
        classifier: non-stock classifiers fall back to
        ``classify_and_note`` per op.
        """
        n = len(lba)
        if n == 0:
            return
        translator = self._mf
        amap = translator.address_map
        batch_map = isinstance(amap, ArrayExtentMap)
        lookup_pieces = amap.lookup_pieces
        map_range = amap.map_range
        classifier = translator.classifier
        inline_classify = type(classifier) is RecencyClassifier
        if inline_classify:
            recent = classifier._recent
            window = classifier._window
            block_sectors = classifier._block
        track_fragments = self._track_fragments
        fragment_hist = self.fragment_hist

        frontier_base = translator.frontier_base
        region_sectors = translator.region_sectors
        frontiers = list(translator._frontiers)
        frontier_writes = list(translator._frontier_writes)
        switches = translator.frontier_switches
        last_idx = translator._last_frontier
        head_position = self._head_position

        # Stop before the first read crossing the frontier base, exactly
        # like the per-op loop (writes are classified, not range-checked).
        violation = is_read & (lba + length > frontier_base)
        stop = n
        bad_read = None
        if violation.any():
            stop = int(violation.argmax())
            bad_read = (int(lba[stop]), int(length[stop]))

        chunks: List[tuple] = []
        pba_buf: List[int] = []
        len_buf: List[int] = []
        kind_buf: List[int] = []
        append_pba = pba_buf.append
        append_len = len_buf.append
        append_kind = kind_buf.append

        def drain_scalar() -> None:
            if pba_buf:
                chunks.append(
                    (
                        np.asarray(pba_buf, dtype=np.int64),
                        np.asarray(len_buf, dtype=np.int64),
                        np.asarray(kind_buf, dtype=np.int8),
                    )
                )
                del pba_buf[:]
                del len_buf[:]
                del kind_buf[:]

        reads = writes = 0
        sectors_read = sectors_written = 0
        read_fragments = fragmented_reads = 0
        exhausted: Optional[int] = None

        if stop:
            flags = is_read[:stop]
            edges = np.flatnonzero(np.diff(flags.view(np.int8))) + 1
            bounds = [0, *edges.tolist(), stop]
        else:
            bounds = [0]
        for run_start, run_stop in zip(bounds[:-1], bounds[1:]):
            run_ops = run_stop - run_start
            if not flags[run_start]:
                # ---------------------------- write run
                run_lba = lba[run_start:run_stop]
                run_len = length[run_start:run_stop]
                batch_run = batch_map and run_ops >= _MIN_BATCH_WRITE_RUN
                pba_list: List[int] = []
                applied = 0
                for op_lba, op_length in zip(run_lba.tolist(), run_len.tolist()):
                    if inline_classify:
                        first_block = op_lba // block_sectors
                        last_block = (op_lba + op_length - 1) // block_sectors
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
                    else:
                        index = int(classifier.classify_and_note(op_lba, op_length))
                    frontier_writes[index] += 1
                    frontier = frontiers[index]
                    if (
                        frontier + op_length
                        > frontier_base + (index + 1) * region_sectors
                    ):
                        exhausted = index
                        break
                    frontiers[index] = frontier + op_length
                    if last_idx is not None and last_idx != index:
                        switches += 1
                    last_idx = index
                    writes += 1
                    sectors_written += op_length
                    if batch_run:
                        pba_list.append(frontier)
                    else:
                        append_pba(frontier)
                        append_len(op_length)
                        append_kind(_KIND_WRITE)
                        map_range(op_lba, frontier, op_length)
                    applied += 1
                if batch_run and applied:
                    run_pba = np.asarray(pba_list, dtype=np.int64)
                    amap.map_range_batch(
                        run_lba[:applied], run_pba, run_len[:applied]
                    )
                    drain_scalar()
                    chunks.append(
                        (
                            run_pba,
                            run_len[:applied],
                            np.full(applied, _KIND_WRITE, np.int8),
                        )
                    )
                if exhausted is not None:
                    break
                continue

            # -------------------------------- read run (plain-LS logic)
            run_lba = lba[run_start:run_stop]
            run_len = length[run_start:run_stop]
            if batch_map and run_ops >= _MIN_BATCH_READ_RUN:
                piece_pba, piece_len, _hole, offsets = amap.lookup_pieces_batch(
                    run_lba, run_len
                )
                counts = np.diff(offsets)
                reads += run_ops
                sectors_read += int(run_len.sum())
                read_fragments += int(offsets[-1])
                fragmented_reads += int(np.count_nonzero(counts > 1))
                if track_fragments:
                    values, repeats = np.unique(counts, return_counts=True)
                    for value, repeat in zip(values.tolist(), repeats.tolist()):
                        fragment_hist[value] = fragment_hist.get(value, 0) + repeat
                drain_scalar()
                chunks.append(
                    (piece_pba, piece_len, np.full(len(piece_pba), _KIND_READ, np.int8))
                )
                continue
            for req_lba, req_length in zip(run_lba.tolist(), run_len.tolist()):
                pieces = lookup_pieces(req_lba, req_length)
                fragments = len(pieces)
                reads += 1
                sectors_read += req_length
                read_fragments += fragments
                if fragments > 1:
                    fragmented_reads += 1
                if track_fragments:
                    fragment_hist[fragments] = fragment_hist.get(fragments, 0) + 1
                for pba, piece_length, _h in pieces:
                    append_pba(pba)
                    append_len(piece_length)
                    append_kind(_KIND_READ)

        if exhausted is not None or bad_read is not None:
            # Match the per-op error contract: the prefix is applied on
            # the translator (for exhaustion, including the violating
            # op's classification and per-frontier counter but not its
            # advance), nothing is folded or classified — the engine must
            # be discarded (restore from a snapshot).
            translator._frontiers = frontiers
            translator._frontier_writes = frontier_writes
            translator.frontier_switches = switches
            translator._last_frontier = last_idx
            if exhausted is not None:
                raise ValueError(
                    f"{_frontier_label(exhausted)} log region exhausted; "
                    "enlarge region_sectors"
                )
            raise ValueError(
                f"read end {bad_read[0] + bad_read[1]} crosses the log base "
                f"{frontier_base}"
            )

        self._fold_scalars(
            reads, writes, sectors_read, sectors_written, read_fragments,
            fragmented_reads, 0, 0, 0, 0,
        )
        self.ops_applied += n
        drain_scalar()
        self._head_position = self._classify_access_stream(chunks, head_position)
        translator._frontiers = frontiers
        translator._frontier_writes = frontier_writes
        translator.frontier_switches = switches
        translator._last_frontier = last_idx
        translator.head.restore_position(self._head_position)

    def _feed_cleaning_arrays(
        self, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        """The zoned-cleaning kernel: batched I/O between exact episodes.

        Between cleaning episodes everything batches: read runs resolve in
        one :meth:`~ArrayExtentMap.lookup_pieces_batch` call, writes keep
        the zone frontier and the per-zone live counts
        (:class:`~repro.extentmap.live_counts.ZoneLiveCounts`) in locals,
        and the clean trigger is two integer compares per write against
        running ``writable``/``free`` tallies.  When the trigger fires the
        chunk *splits at the episode boundary*: the buffered access stream
        is seek-classified, the head position is synced onto the
        translator, and the episode runs through the translator's own
        ``_ensure_room`` — victim selection, relocation and cleaning-seek
        accounting are the reference code itself, so episodes are exact by
        construction — after which the tallies resync and batching resumes
        from the post-episode head position.  Episode relocations never
        enter the engine's access stream (the reference produces no
        ``IOOutcome`` for them either; they count only in
        ``cleaning_stats``).
        """
        n = len(lba)
        if n == 0:
            return
        translator = self._zc
        amap = translator.address_map()
        batch_map = isinstance(amap, ArrayExtentMap)
        lookup_pieces = amap.lookup_pieces
        map_range = amap.map_range
        map_range_batch = amap.map_range_batch if batch_map else None
        extent_arrays = amap.extent_arrays if batch_map else None
        track_fragments = self._track_fragments
        fragment_hist = self.fragment_hist

        base = translator._base
        reserve = translator._reserve
        half_capacity = translator._zones.capacity_sectors // 2
        zone_sectors = translator._zones.zone_sectors
        zones_list = translator._zones.zones
        open_order = translator._open_order
        live = translator._live
        entries = translator._entries
        zone_write_seq = translator._zone_write_seq
        cleaning_stats = translator.cleaning_stats
        write_seq = translator._write_seq
        writable = translator._writable_sectors()
        free = translator.free_zones()
        head_position = self._head_position

        # Stop before the first op (read OR write) crossing into the log
        # region — submit() range-checks every request first.
        violation = lba + length > base
        stop = n
        bad_op = None
        if violation.any():
            stop = int(violation.argmax())
            bad_op = (int(lba[stop]), int(length[stop]))

        chunks: List[tuple] = []
        pba_buf: List[int] = []
        len_buf: List[int] = []
        kind_buf: List[int] = []
        append_pba = pba_buf.append
        append_len = len_buf.append
        append_kind = kind_buf.append

        def drain_scalar() -> None:
            if pba_buf:
                chunks.append(
                    (
                        np.asarray(pba_buf, dtype=np.int64),
                        np.asarray(len_buf, dtype=np.int64),
                        np.asarray(kind_buf, dtype=np.int8),
                    )
                )
                del pba_buf[:]
                del len_buf[:]
                del kind_buf[:]

        reads = writes = 0
        sectors_read = sectors_written = 0
        read_fragments = fragmented_reads = 0
        host_written = 0
        too_large: Optional[int] = None

        if stop:
            flags = is_read[:stop]
            edges = np.flatnonzero(np.diff(flags.view(np.int8))) + 1
            bounds = [0, *edges.tolist(), stop]
        else:
            bounds = [0]
        for run_start, run_stop in zip(bounds[:-1], bounds[1:]):
            run_ops = run_stop - run_start
            run_lba = lba[run_start:run_stop]
            run_len = length[run_start:run_stop]
            if not flags[run_start]:
                # ---------------------------- write run
                run_lba_list = run_lba.tolist()
                run_len_list = run_len.tolist()
                i = 0
                while i < run_ops:
                    if batch_map and run_ops - i >= _MIN_BATCH_WRITE_RUN:
                        # ---- batched prefix: every op strictly before the
                        # first that is oversized, outruns the writable
                        # tally, or trips the clean trigger.  That op (if
                        # any) falls through to the scalar body, which runs
                        # the episode exactly; batching resumes after it.
                        seg_len = run_len[i:]
                        cum = np.cumsum(seg_len)
                        before = cum - seg_len
                        j = translator._open_idx
                        while (
                            j < len(open_order)
                            and zones_list[open_order[j]].is_full
                        ):
                            j += 1
                        m = 0
                        if j < len(open_order):
                            # Zones turning non-empty strictly before each
                            # op: the frontier's remaining r0, then whole
                            # (empty, by queue construction) zones.
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
                                if jj > j and zone.write_pointer != zone.start:
                                    m = 0  # queue invariant broken: go scalar
                                    break
                                zone_caps.append(zone.end - zone.write_pointer)
                                zone_phys.append(zone.write_pointer)
                                zone_pos.append(jj)
                                covered += zone_caps[-1]
                                jj += 1
                        if m:
                            # Split ops at zone boundaries (virtual offsets
                            # 0..total over the laid-out capacity).
                            lens = seg_len[:m]
                            op_start = before[:m]
                            op_end = cum[:m]
                            caps = np.asarray(zone_caps, dtype=np.int64)
                            bounds = np.cumsum(caps)
                            starts_v = bounds - caps
                            first_region = np.searchsorted(
                                bounds, op_start, side="right"
                            )
                            last_region = np.searchsorted(
                                bounds, op_end - 1, side="right"
                            )
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
                                intra = (
                                    np.arange(n_pieces, dtype=np.int64)
                                    - offs.repeat(reps)
                                )
                                piece_region = first_region.repeat(reps) + intra
                                op_start_rep = op_start.repeat(reps)
                                piece_v = np.maximum(
                                    op_start_rep, starts_v[piece_region]
                                )
                                piece_len = (
                                    np.minimum(
                                        op_end.repeat(reps), bounds[piece_region]
                                    )
                                    - piece_v
                                )
                                piece_lba = run_lba[i : i + m].repeat(reps) + (
                                    piece_v - op_start_rep
                                )
                            phys = np.asarray(zone_phys, dtype=np.int64)
                            piece_pba = base + phys[piece_region] + (
                                piece_v - starts_v[piece_region]
                            )
                            # Map and access stream, in op order (the map
                            # applies rows in order, so intra-prefix
                            # overwrites land exactly as scalar would).
                            map_range_batch(piece_lba, piece_pba, piece_len)
                            drain_scalar()
                            chunks.append(
                                (
                                    piece_pba,
                                    piece_len,
                                    np.full(n_pieces, _KIND_WRITE, np.int8),
                                )
                            )
                            # Ledger, write stamps, zone pointers per zone.
                            region_counts = np.bincount(
                                piece_region, minlength=len(caps)
                            ).tolist()
                            pba_list = piece_pba.tolist()
                            lba_list = piece_lba.tolist()
                            len_list = piece_len.tolist()
                            pos = 0
                            for region, count in enumerate(region_counts):
                                if not count:
                                    continue
                                zone = zones_list[open_order[zone_pos[region]]]
                                if zone.write_pointer == zone.start:
                                    free -= 1
                                zone_id = zone.zone_id
                                entries[zone_id].extend(
                                    zip(
                                        pba_list[pos : pos + count],
                                        lba_list[pos : pos + count],
                                        len_list[pos : pos + count],
                                    )
                                )
                                zone_write_seq[zone_id] = write_seq + pos + count - 1
                                zone.write_pointer += (
                                    min(total, int(bounds[region]))
                                    - int(starts_v[region])
                                )
                                pos += count
                            write_seq += n_pieces
                            writable -= total
                            translator._open_idx = zone_pos[int(piece_region[-1])]
                            host_written += total
                            writes += m
                            sectors_written += total
                            # Live counts: superseding and crediting net out
                            # to the mapped-live invariant, so rebuild the
                            # counts wholesale from the post-prefix map
                            # instead of invalidating per op.
                            _, map_pba_arr, map_len_arr = extent_arrays()
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
                        too_large = op_length
                        break
                    if writable < op_length or free < reserve:
                        # Episode boundary: close the buffered stream,
                        # sync the head, run the episode via the
                        # translator's own cleaning code, resync.
                        drain_scalar()
                        head_position = self._classify_access_stream(
                            chunks, head_position
                        )
                        del chunks[:]
                        translator._head.restore_position(head_position)
                        translator._write_seq = write_seq
                        cleaning_stats.host_written_sectors += host_written
                        host_written = 0
                        translator._ensure_room(op_length)
                        write_seq = translator._write_seq
                        head_position = translator._head.position
                        writable = translator._writable_sectors()
                        free = translator.free_zones()
                    # Invalidate what this write supersedes (against the
                    # pre-write map, as _invalidate does).
                    pieces = lookup_pieces(op_lba, op_length)
                    if len(pieces) == 1:
                        s_pba, s_len, s_hole = pieces[0]
                        if not s_hole and s_pba >= base:
                            live.decrement_range(s_pba - base, s_len)
                    else:
                        dec_pba = [
                            p - base for p, _l, h in pieces if not h and p >= base
                        ]
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
                    # Append at the zone frontier, splitting per zone
                    # (inline ZonedAddressSpace.write — its validations
                    # hold by construction here).
                    writes += 1
                    sectors_written += op_length
                    remaining = op_length
                    cursor = op_lba
                    while remaining:
                        zone = translator._current_zone()
                        zone_remaining = zone.end - zone.write_pointer
                        take = (
                            remaining
                            if remaining < zone_remaining
                            else zone_remaining
                        )
                        pba = zone.write_pointer
                        zone.write_pointer = pba + take
                        if pba == zone.start:
                            free -= 1
                        append_pba(base + pba)
                        append_len(take)
                        append_kind(_KIND_WRITE)
                        map_range(cursor, base + pba, take)
                        zone_id = zone.zone_id
                        live.add(zone_id, take)
                        entries[zone_id].append((base + pba, cursor, take))
                        zone_write_seq[zone_id] = write_seq
                        write_seq += 1
                        writable -= take
                        cursor += take
                        remaining -= take
                if too_large is not None:
                    break
                continue

            # -------------------------------- read run (plain-LS logic)
            if batch_map and run_ops >= _MIN_BATCH_READ_RUN:
                piece_pba, piece_len, _hole, offsets = amap.lookup_pieces_batch(
                    run_lba, run_len
                )
                counts = np.diff(offsets)
                reads += run_ops
                sectors_read += int(run_len.sum())
                read_fragments += int(offsets[-1])
                fragmented_reads += int(np.count_nonzero(counts > 1))
                if track_fragments:
                    values, repeats = np.unique(counts, return_counts=True)
                    for value, repeat in zip(values.tolist(), repeats.tolist()):
                        fragment_hist[value] = fragment_hist.get(value, 0) + repeat
                drain_scalar()
                chunks.append(
                    (piece_pba, piece_len, np.full(len(piece_pba), _KIND_READ, np.int8))
                )
                continue
            for req_lba, req_length in zip(run_lba.tolist(), run_len.tolist()):
                pieces = lookup_pieces(req_lba, req_length)
                fragments = len(pieces)
                reads += 1
                sectors_read += req_length
                read_fragments += fragments
                if fragments > 1:
                    fragmented_reads += 1
                if track_fragments:
                    fragment_hist[fragments] = fragment_hist.get(fragments, 0) + 1
                for pba, piece_length, _h in pieces:
                    append_pba(pba)
                    append_len(piece_length)
                    append_kind(_KIND_READ)

        if too_large is not None or bad_op is not None:
            # Error contract as elsewhere: the prefix (and, for the
            # too-large case, the violating op's host-written accounting)
            # is applied on the translator; engine counters stay unfolded
            # and the engine must be discarded.
            translator._write_seq = write_seq
            cleaning_stats.host_written_sectors += host_written
            if too_large is not None:
                raise ValueError(
                    f"write of {too_large} sectors too large for the "
                    "configured log"
                )
            raise ValueError(
                f"request end {bad_op[0] + bad_op[1]} crosses the "
                f"identity/log boundary {base}"
            )

        self._fold_scalars(
            reads, writes, sectors_read, sectors_written, read_fragments,
            fragmented_reads, 0, 0, 0, 0,
        )
        self.ops_applied += n
        drain_scalar()
        self._head_position = self._classify_access_stream(chunks, head_position)
        translator._write_seq = write_seq
        cleaning_stats.host_written_sectors += host_written
        translator._head.restore_position(self._head_position)

    def _fold_scalars(
        self, reads, writes, sectors_read, sectors_written, read_fragments,
        fragmented_reads, cache_hits, buffer_hits, defrag_rewrites,
        defrag_sectors,
    ) -> None:
        self._reads += reads
        self._writes += writes
        self._sectors_read += sectors_read
        self._sectors_written += sectors_written
        self._read_fragments += read_fragments
        self._fragmented_reads += fragmented_reads
        self._cache_hits += cache_hits
        self._buffer_hits += buffer_hits
        self._defrag_rewrites += defrag_rewrites
        self._defrag_sectors += defrag_sectors

    # ----------------------------------------------------------------- #
    # Results
    # ----------------------------------------------------------------- #

    def stats(self) -> SimStats:
        """Cumulative counters over everything fed so far."""
        stats = SimStats()
        stats.reads = self._reads
        stats.writes = self._writes
        stats.sectors_read = self._sectors_read
        stats.sectors_written = self._sectors_written
        stats.read_fragments = self._read_fragments
        stats.fragmented_reads = self._fragmented_reads
        stats.cache_fragment_hits = self._cache_hits
        stats.buffer_fragment_hits = self._buffer_hits
        stats.defrag_rewrites = self._defrag_rewrites
        stats.defrag_rewritten_sectors = self._defrag_sectors
        stats.read_seeks = self._read_seeks
        stats.write_seeks = self._write_seeks
        stats.defrag_write_seeks = self._defrag_write_seeks
        return stats

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
        distances, dist_is_read = _concat_distance_chunks(
            self._distance_chunks, self._read_flag_chunks
        )
        self._distance_chunks = []
        self._read_flag_chunks = []
        return distances, dist_is_read

    def result(self, trace_name: Optional[str] = None) -> BatchRunResult:
        """Package the cumulative state as a :class:`BatchRunResult`.

        Equals the one-shot :func:`batch_replay` result for the
        concatenation of every batch fed (provided :meth:`drain_distances`
        was never called — draining moves distances out of the engine).
        """
        distances, dist_is_read = _concat_distance_chunks(
            self._distance_chunks, self._read_flag_chunks
        )
        return BatchRunResult(
            run_result=RunResult(
                trace_name=trace_name or self.trace_name,
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
        distances, dist_is_read = _concat_distance_chunks(
            self._distance_chunks, self._read_flag_chunks
        )
        # Concatenating is also a normalization — keep the merged arrays
        # so repeated snapshots don't re-concatenate ever-growing lists.
        if distances.size:
            self._distance_chunks = [distances]
            self._read_flag_chunks = [dist_is_read]
        return {
            "trace_name": self.trace_name,
            "ops_applied": self.ops_applied,
            "track_fragments": self._track_fragments,
            "fragment_hist": hist_to_pairs(self.fragment_hist),
            "head_position": self._head_position,
            "counters": {
                "reads": self._reads,
                "writes": self._writes,
                "sectors_read": self._sectors_read,
                "sectors_written": self._sectors_written,
                "read_fragments": self._read_fragments,
                "fragmented_reads": self._fragmented_reads,
                "cache_hits": self._cache_hits,
                "buffer_hits": self._buffer_hits,
                "defrag_rewrites": self._defrag_rewrites,
                "defrag_sectors": self._defrag_sectors,
                "read_seeks": self._read_seeks,
                "write_seeks": self._write_seeks,
                "defrag_write_seeks": self._defrag_write_seeks,
            },
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
        engine._head_position = translator.head.position
        engine.ops_applied = int(state["ops_applied"])
        engine.fragment_hist = pairs_to_hist(state["fragment_hist"])
        counters = state["counters"]
        engine._reads = int(counters["reads"])
        engine._writes = int(counters["writes"])
        engine._sectors_read = int(counters["sectors_read"])
        engine._sectors_written = int(counters["sectors_written"])
        engine._read_fragments = int(counters["read_fragments"])
        engine._fragmented_reads = int(counters["fragmented_reads"])
        engine._cache_hits = int(counters["cache_hits"])
        engine._buffer_hits = int(counters["buffer_hits"])
        engine._defrag_rewrites = int(counters["defrag_rewrites"])
        engine._defrag_sectors = int(counters["defrag_sectors"])
        engine._read_seeks = int(counters["read_seeks"])
        engine._write_seeks = int(counters["write_seeks"])
        engine._defrag_write_seeks = int(counters["defrag_write_seeks"])
        distances = np.asarray(state["distances"], dtype=np.int64)
        dist_is_read = np.asarray(state["distance_is_read"], dtype=bool)
        if distances.size:
            engine._distance_chunks = [distances]
            engine._read_flag_chunks = [dist_is_read]
        return engine


def _concat_distance_chunks(
    distance_chunks: List[np.ndarray],
    read_flag_chunks: List[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    distances = (
        np.concatenate(distance_chunks)
        if distance_chunks
        else np.empty(0, dtype=np.int64)
    )
    dist_is_read = (
        np.concatenate(read_flag_chunks)
        if read_flag_chunks
        else np.empty(0, dtype=bool)
    )
    return distances, dist_is_read
