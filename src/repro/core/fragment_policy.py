"""The fragment-policy kernel: Algorithms 1, 2 and 3 over columns.

Opportunistic defragmentation decides once per fragmented read whether to
rewrite it at the log head; prefetching and selective caching are tiny
state machines (a FIFO of windows, an LRU of blocks) consulted once per
fragment of a fragmented read, in the paper's service order.  The
per-call methods (``should_defragment`` / ``note_defragmented``,
``lookup`` / ``covers`` / ``note_fragment_read`` / ``admit``) are the
reference translator's and the oracle; the fast paths
(:func:`repro.core.stream.stream_replay` and the batch driver) run
compiled loops over a window of ops or a fragment list
(``_fragment_policy.c``, built and loaded by :mod:`repro.util.native`)
through a :class:`FragmentPolicies`.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

import numpy as np

from repro.core.defrag import OpportunisticDefrag
from repro.core.prefetch import LookAheadBehindPrefetcher
from repro.core.selective_cache import SelectiveFragmentCache
from repro.util.native import LIBRARY as _LIBRARY
from repro.util.units import BLOCK_SECTORS

#: Per-fragment outcome codes returned by :meth:`FragmentPolicies.serve`.
DISK, CACHE_HIT, BUFFER_HIT = 0, 1, 2

#: Header fields of the state arrays, in the C structs' order.
_TABLE_FIELDS = ("capacity", "shift", "table_size", "count", "head", "tail")
_LRU_FIELDS = _TABLE_FIELDS + ("block_sectors", "hits", "misses", "evictions")
_RING_FIELDS = ("capacity", "ahead", "behind", "size", "first", "count", "used", "window_reads")
_DEFRAG_FIELDS = _TABLE_FIELDS + ("used", "min_fragments", "min_accesses")
_PROGRESS_FIELDS = ("frontier", "accesses", "appends", "rewrites", "rewritten", "rows")
#: int64 words per table node: key, length, value, prev, next.
_NODE_WORDS = 5

_LIBRARY.fp_serve.restype = ctypes.c_int64
_LIBRARY.fp_serve.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                              ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
_LIBRARY.fp_defrag.restype = ctypes.c_int64
_LIBRARY.fp_defrag.argtypes = (ctypes.c_void_p, ctypes.c_void_p, *[ctypes.c_int64] * 3)
_LIBRARY.fp_load.argtypes = (ctypes.c_void_p, ctypes.c_int64)
_LIBRARY.fp_order.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)


def _table(fields: Tuple[str, ...], capacity: int, rows: np.ndarray) -> np.ndarray:
    """A ``fields`` header (zero past the table's own), a hash table, and
    ``capacity`` nodes holding ``(key[, length, value])`` ``rows`` in order."""
    table = 1 << (2 * capacity - 1).bit_length()  # at most half full
    state = np.zeros(len(fields) + table + _NODE_WORDS * capacity, np.int64)
    state[: len(_TABLE_FIELDS)] = capacity, 65 - table.bit_length(), table, len(rows), -1, -1
    nodes = state[len(fields) + table :].reshape(capacity, _NODE_WORDS)
    nodes[: len(rows), : rows.shape[1]] = rows
    return state


def _rows(state: np.ndarray, fields: Tuple[str, ...]) -> np.ndarray:
    """A table's ``(key, length, value)`` rows, oldest first."""
    rows = np.empty((int(state[_TABLE_FIELDS.index("count")]), 3), dtype=np.int64)
    _LIBRARY.fp_order(state.ctypes.data, len(fields), rows.ctypes.data)
    return rows


class FragmentPolicies:
    """The techniques' state, owned by the compiled kernel: Algorithm 1's
    access counts, the cache and the prefetcher (any may be None).

    Loads the objects' ``state_dict()``\\ s into preallocated arrays —
    O(state), never O(stream) — which every :meth:`replay` and
    :meth:`serve` then advance in place; the count table grows without a
    cap, as the counts do.  :meth:`sync` writes them back through the
    objects' ``load_state``; until it runs the objects are stale, so an
    owner syncs before anyone reads them.
    """

    def __init__(
        self,
        cache: Optional[SelectiveFragmentCache],
        prefetcher: Optional[LookAheadBehindPrefetcher],
        defrag: Optional[OpportunisticDefrag],
    ) -> None:
        self.cache, self.prefetcher, self.defrag = cache, prefetcher, defrag
        self._lru = self._ring = None
        if defrag is not None:
            rows = defrag.state_dict()["access_counts"]
            self._count_table(rows, max(4, 2 * len(rows)))
        if cache is not None:
            state = cache.state_dict()
            blocks = np.asarray(state["blocks"], dtype=np.int64)[:, None]
            self._lru = _table(_LRU_FIELDS, cache.capacity_blocks, blocks)
            header = BLOCK_SECTORS, state["hits"], state["misses"], state["evictions"]
            self._lru[len(_TABLE_FIELDS) : len(_LRU_FIELDS)] = header
            _LIBRARY.fp_load(self._lru.ctypes.data, len(_LRU_FIELDS))
        if prefetcher is not None:
            state = prefetcher.state_dict()
            windows = np.asarray(state["windows"], dtype=np.int64).reshape(-1, 2)
            # A window holds >= 1 sector: `capacity` fit, plus one mid-insert.
            capacity = prefetcher.capacity_sectors
            self._ring = np.empty(len(_RING_FIELDS) + 2 * (capacity + 1), np.int64)
            self._ring[: len(_RING_FIELDS)] = (
                capacity, prefetcher.ahead_sectors, prefetcher.behind_sectors, capacity + 1,
                0, len(windows), np.sum(windows[:, 1] - windows[:, 0]), state["window_reads"],
            )
            self._ring[len(_RING_FIELDS) :][: windows.size] = windows.ravel()
        self._addresses = tuple(
            None if array is None else array.ctypes.data for array in (self._lru, self._ring)
        )

    def _count_table(self, rows: np.ndarray, capacity: int) -> None:
        config, self._counts = self.defrag.config, _table(_DEFRAG_FIELDS, capacity, rows)
        self._counts[len(_TABLE_FIELDS) : len(_DEFRAG_FIELDS)] = (
            len(rows), config.min_fragments, config.min_accesses)
        _LIBRARY.fp_load(self._counts.ctypes.data, len(_DEFRAG_FIELDS))

    def replay(self, frontier: int, amap, is_read, lba, length):
        """Replay a window of ops on the single-frontier log under
        opportunistic defrag, writes and chosen rewrites appending at
        ``frontier``: the reference translator's per-op sequence, its reads
        resolved by one ``amap.lookup_pieces_batch`` as the window starts.

        Returns ``(replayed, fragments, (pba, length, kind), (lba, pba,
        length), progress)``: the ops replayed (fewer when a new window must
        resume), each one's fragment count, their accesses, the map rows to
        apply in order, and ``frontier``, ``rewrites`` and ``rewritten``.
        """
        reads = np.flatnonzero(is_read)
        pba, piece_length, hole, read_offsets = amap.lookup_pieces_batch(lba[reads], length[reads])
        n, pieces = len(lba), len(pba)
        inputs, progress = 3 * (n + pieces) + 1, len(_PROGRESS_FIELDS)
        work = np.empty(28 * n + 6 * pieces + 1 + progress, dtype=np.int64)
        work[:n], work[n : 2 * n], work[2 * n : 3 * n + 1] = lba, length, 0
        work[-progress:] = frontier, 0, 0, 0, 0, 0
        offsets = work[2 * n : 3 * n + 1]  # into the pieces; none for a write
        offsets[reads + 1] = np.diff(read_offsets)
        np.cumsum(offsets, out=offsets)
        triples = work[3 * n + 1 : inputs].reshape(pieces, 3)
        triples[:, 0], triples[:, 1], triples[:, 2] = pba, piece_length, hole
        replayed = 0
        while True:
            replayed = _LIBRARY.fp_defrag(self._counts.ctypes.data, work.ctypes.data, n, pieces,
                                          replayed)
            table = dict(zip(_DEFRAG_FIELDS, self._counts[: len(_DEFRAG_FIELDS)].tolist()))
            if table["used"] < table["capacity"]:
                break  # else compact, grow and resume the window
            rows = _rows(self._counts, _DEFRAG_FIELDS)
            self._count_table(rows, max(table["capacity"], 2 * len(rows)))
        done = dict(zip(_PROGRESS_FIELDS, work[-progress:].tolist()))
        m, r, capacity = done["accesses"], done["appends"], pieces + 5 * n
        out = work[inputs + n :]  # copied, so that the window's scratch is freed
        accesses = out[: 3 * capacity].reshape(3, capacity)[:, :m].copy()
        appends = out[3 * capacity : 3 * (capacity + n)].reshape(3, n)[:, :r].copy()
        return replayed, work[inputs : inputs + replayed].copy(), accesses, appends, done

    def serve(self, pba, length) -> np.ndarray:
        """Serve the fragments ``(pba[i], length[i])`` of fragmented reads in
        order; returns one uint8 outcome code per fragment.

        Equivalent to the per-call sequence on each fragment in turn.  The
        first fragment that sequence would reject raises its
        ``ValueError``, the fragments ahead of it applied and synced.
        """
        pba = np.ascontiguousarray(pba, dtype=np.int64)
        length = np.ascontiguousarray(length, dtype=np.int64)
        if len(pba) != len(length):
            raise ValueError(f"{len(pba)} pbas but {len(length)} lengths")
        codes = np.empty(len(pba), dtype=np.uint8)
        stop = _LIBRARY.fp_serve(pba.ctypes.data, length.ctypes.data, len(pba),
                                 codes.ctypes.data, *self._addresses)
        if stop < len(pba):
            # The per-call API raises for it; which check fires is its business.
            self.sync()
            rejected = int(pba[stop]), int(length[stop])
            if self.cache is not None:
                self.cache.lookup(*rejected)
            self.prefetcher.covers(*rejected)
            self.prefetcher.note_fragment_read(*rejected)
        return codes

    def sync(self) -> None:
        """Write the kernel's state back into the policy objects."""
        if self.defrag is not None:
            self.defrag.load_state({"access_counts": _rows(self._counts, _DEFRAG_FIELDS)})
        if self.cache is not None:
            header = dict(zip(_LRU_FIELDS, self._lru[: len(_LRU_FIELDS)].tolist()))
            self.cache.load_state(
                {key: header[key] for key in ("hits", "misses", "evictions")}
                | {"blocks": _rows(self._lru, _LRU_FIELDS)[:, 0]}
            )
        if self.prefetcher is not None:
            header = dict(zip(_RING_FIELDS, self._ring[: len(_RING_FIELDS)].tolist()))
            ring = self._ring[len(_RING_FIELDS):].reshape(-1, 2)
            order = (header["first"] + np.arange(header["count"])) % header["size"]
            self.prefetcher.load_state(
                {"windows": ring[order].tolist(), "window_reads": header["window_reads"]}
            )


def filter_accesses(
    policies: FragmentPolicies,
    pba: np.ndarray,
    length: np.ndarray,
    eligible: np.ndarray,
) -> Tuple[np.ndarray, int, int]:
    """Run the policies over the ``eligible`` accesses of a stream.

    ``eligible`` indexes the fragments of fragmented reads (the paper's
    ``FragmentedRead`` guard) in access order.  Returns ``(keep,
    cache_hits, buffer_hits)``: the mask of accesses that still reach the
    disk, and how many were served from the cache and from the buffer.
    """
    served = policies.serve(pba[eligible], length[eligible])
    keep = np.ones(len(pba), dtype=bool)
    keep[eligible[served != DISK]] = False
    return (
        keep,
        int(np.count_nonzero(served == CACHE_HIT)),
        int(np.count_nonzero(served == BUFFER_HIT)),
    )
