"""The fragment-policy kernel: Algorithms 2 and 3 over columns.

Look-ahead-behind prefetching and selective caching are tiny state
machines — a FIFO of a few windows, an LRU of block ids — consulted once
per fragment of every fragmented read, in the paper's service order:
selective-cache lookup, then prefetch-buffer cover, then the disk access
followed by the window insert and the cache admit.  The per-call methods
(``lookup`` / ``covers`` / ``note_fragment_read`` / ``admit``) spell that
order out for the reference translator; :func:`serve_fragments` holds it
once for the fast paths (:func:`repro.core.stream.stream_replay` and the
batch driver's read runs) and runs it over a whole fragment list.

The list is served in slabs of ``_SLAB`` fragments, so scratch stays
slab-sized whatever the list's length.  Everything that is a pure
function of a slab — block ids, fragment ends, clipped and truncated
window bounds, the ``length > 0`` / ``pba >= 0`` checks — is computed
vectorised; the sequential residue is one loop over the slab's plain ints
that mutates the policy objects' own ``OrderedDict`` / ``deque`` in
place; the counters are folded back at the end.  The objects are left
exactly as the per-call sequence leaves them (``state_dict()``,
checkpoints), which ``tests/property/test_fragment_policy_kernel.py``
checks with the per-call API as oracle.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Tuple

import numpy as np

from repro.core.prefetch import LookAheadBehindPrefetcher
from repro.core.selective_cache import SelectiveFragmentCache

#: Per-fragment outcome codes returned by :func:`serve_fragments`.
DISK, CACHE_HIT, BUFFER_HIT = 0, 1, 2

_SLAB = 1 << 14


def serve_fragments(
    cache: Optional[SelectiveFragmentCache],
    prefetcher: Optional[LookAheadBehindPrefetcher],
    pba,
    length,
) -> np.ndarray:
    """Serve the fragments ``(pba[i], length[i])`` of fragmented reads in
    order; returns one uint8 outcome code per fragment.

    At least one of ``cache`` and ``prefetcher`` is given.  Equivalent to —
    and leaves both exactly as — the per-call sequence on each fragment in
    turn.  The first fragment that sequence would reject raises its
    ``ValueError``, the fragments ahead of it applied.
    """
    pba = np.asarray(pba, dtype=np.int64)
    length = np.asarray(length, dtype=np.int64)
    if cache is not None:
        lru = cache._lru
        blocks = lru._blocks
        capacity_blocks, block_sectors = lru.capacity_blocks, lru.block_sectors
        touch = blocks.move_to_end
        evict = blocks.popitem
        evictions = 0
    if prefetcher is not None:
        buffer = prefetcher._buffer
        windows = buffer._windows
        capacity = buffer.capacity_sectors
        used = buffer.used_sectors
        ahead, behind = prefetcher.ahead_sectors, prefetcher.behind_sectors

    stop = len(pba)
    served = bytearray(stop)
    for base in range(0, len(pba), _SLAB):
        slab_pba = pba[base : base + _SLAB]
        slab_len = length[base : base + _SLAB]
        slab_end = slab_pba + slab_len
        invalid = slab_len <= 0
        columns = [slab_pba, slab_end, None, None, None, None]
        if cache is not None:
            invalid |= slab_pba < 0
            columns[2] = slab_pba // block_sectors
            columns[3] = (slab_end - 1) // block_sectors
        if prefetcher is not None:
            # add_window's clip at pba 0 and truncation to the buffer's size.
            w_end = slab_end + ahead
            w_start = np.maximum(slab_pba - behind, w_end - capacity)
            np.maximum(w_start, 0, out=w_start)
            invalid |= w_end <= w_start
            columns[4:] = w_start, w_end
        if invalid.any():
            stop = base + int(invalid.argmax())
        slab = [range(base, min(base + _SLAB, stop))]
        for column in columns:
            slab.append(repeat(0) if column is None else column[: stop - base].tolist())
        for i, start, stop_at, block, last_block, fetch_start, fetch_end in zip(*slab):
            if cache is not None:
                if block == last_block:  # most fragments: no range to walk
                    if block in blocks:
                        touch(block)
                        served[i] = CACHE_HIT
                        continue
                else:
                    for covering in range(block, last_block + 1):
                        if covering not in blocks:
                            break
                    else:
                        for covering in range(block, last_block + 1):
                            touch(covering)
                        served[i] = CACHE_HIT
                        continue
            if prefetcher is not None:
                for window_start, window_end in windows:
                    if window_start <= start and stop_at <= window_end:
                        served[i] = BUFFER_HIT
                        break
                if served[i]:
                    continue
                windows.append((fetch_start, fetch_end))
                used += fetch_end - fetch_start
                while used > capacity:
                    window_start, window_end = windows.popleft()
                    used -= window_end - window_start
            if cache is not None:
                for admitted in range(block, last_block + 1):
                    if admitted in blocks:
                        touch(admitted)
                    else:
                        blocks[admitted] = None
                while len(blocks) > capacity_blocks:
                    evict(last=False)
                    evictions += 1
        if stop < len(pba):
            break

    outcome = np.frombuffer(served, dtype=np.uint8)
    if cache is not None:
        hits = int(np.count_nonzero(outcome == CACHE_HIT))
        cache.hits += hits
        cache.misses += stop - hits
        lru.evictions += evictions
    if prefetcher is not None:
        buffer._used = used
        prefetcher.window_reads += int(np.count_nonzero(outcome[:stop] == DISK))
    if stop < len(pba):
        # The per-call API raises for it; which check fires is its business.
        rejected = int(pba[stop]), int(length[stop])
        if cache is not None:
            cache.lookup(*rejected)
        prefetcher.covers(*rejected)
        prefetcher.note_fragment_read(*rejected)
    return outcome


def filter_accesses(
    cache: Optional[SelectiveFragmentCache],
    prefetcher: Optional[LookAheadBehindPrefetcher],
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
    served = serve_fragments(cache, prefetcher, pba[eligible], length[eligible])
    keep = np.ones(len(pba), dtype=bool)
    keep[eligible[served != DISK]] = False
    return (
        keep,
        int(np.count_nonzero(served == CACHE_HIT)),
        int(np.count_nonzero(served == BUFFER_HIT)),
    )
