"""The fragment-policy kernel: Algorithms 2 and 3 over columns.

Look-ahead-behind prefetching and selective caching are tiny state
machines — a FIFO of a few windows, an LRU of block ids — consulted once
per fragment of every fragmented read, in the paper's service order:
selective-cache lookup, then prefetch-buffer cover, then the disk access
followed by the window insert and the cache admit.  The per-call methods
(``lookup`` / ``covers`` / ``note_fragment_read`` / ``admit``) spell that
order out for the reference translator and are the oracle; the fast paths
(:func:`repro.core.stream.stream_replay` and the batch driver's read runs)
hold it once, in one compiled loop over a whole fragment list
(``_fragment_policy.c``), through a :class:`FragmentPolicies`.

The C source is built at import time with the system ``cc`` into
``__pycache__`` (a fresh temporary directory if that is not writable),
named by a hash of the source, the flags and the interpreter's extension
suffix, and loaded with :mod:`ctypes`.  Without ``cc`` the import fails.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.core.prefetch import LookAheadBehindPrefetcher
from repro.core.selective_cache import SelectiveFragmentCache
from repro.util.units import BLOCK_SECTORS

#: Per-fragment outcome codes returned by :meth:`FragmentPolicies.serve`.
DISK, CACHE_HIT, BUFFER_HIT = 0, 1, 2

#: Header fields of the two state arrays, in the C structs' order.
_LRU_FIELDS = ("capacity", "block_sectors", "shift", "table_size", "count",
               "head", "tail", "hits", "misses", "evictions")
_RING_FIELDS = ("capacity", "ahead", "behind", "size", "first", "count", "used",
                "window_reads")

_FLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv")


def _load_library() -> ctypes.CDLL:
    """Build ``_fragment_policy.c`` once per source and interpreter; load it."""
    source = Path(__file__).with_name("_fragment_policy.c")
    key = source.read_bytes() + " ".join(_FLAGS).encode()
    key += sysconfig.get_config_var("EXT_SUFFIX").encode()
    name = f"_fragment_policy-{hashlib.sha256(key).hexdigest()[:16]}.so"
    for directory in (source.parent / "__pycache__", None):
        directory = directory or Path(tempfile.mkdtemp(prefix="repro-kernel-"))
        target = directory / name
        if target.is_file():
            return ctypes.CDLL(str(target))
        try:
            directory.mkdir(exist_ok=True)
            handle, partial = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(handle)
        except OSError:
            continue  # not writable: build in a fresh temporary directory
        try:
            subprocess.run(["cc", *_FLAGS, "-o", partial, str(source)],
                           check=True, capture_output=True, text=True)
            os.replace(partial, target)  # atomic: concurrent importers are safe
        except FileNotFoundError:
            raise ImportError(
                "repro needs a C compiler on PATH as `cc` to build its "
                "fragment-policy kernel"
            ) from None
        except subprocess.CalledProcessError as error:
            raise ImportError(f"`cc` failed to build {source}:\n{error.stderr}") from None
        finally:
            Path(partial).unlink(missing_ok=True)
        return ctypes.CDLL(str(target))


_LIBRARY = _load_library()
_LIBRARY.fp_serve.restype = ctypes.c_int64
_LIBRARY.fp_serve.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                              ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
_LIBRARY.fp_load.argtypes = (ctypes.c_void_p,)
_LIBRARY.fp_order.argtypes = (ctypes.c_void_p, ctypes.c_void_p)


class FragmentPolicies:
    """A cache and a prefetcher whose state the compiled kernel owns.

    Loads the objects' ``state_dict()``\\ s into preallocated arrays —
    O(cache blocks + buffer sectors), never O(stream) — which every
    :meth:`serve` then advances in place.  :meth:`sync` writes them back
    through the objects' ``load_state``; until it runs the objects are
    stale, so an owner syncs before anyone reads them.  At least one of
    ``cache`` and ``prefetcher`` is given.
    """

    def __init__(
        self,
        cache: Optional[SelectiveFragmentCache],
        prefetcher: Optional[LookAheadBehindPrefetcher],
    ) -> None:
        self.cache, self.prefetcher = cache, prefetcher
        self._lru = self._ring = None
        if cache is not None:
            state = cache.state_dict()
            capacity, blocks = cache.capacity_blocks, state["blocks"]
            table = 1 << (2 * capacity - 1).bit_length()  # at most half full
            self._lru = np.zeros(len(_LRU_FIELDS) + table + 3 * capacity, np.int64)
            self._lru[: len(_LRU_FIELDS)] = (
                capacity, BLOCK_SECTORS, 65 - table.bit_length(), table,
                len(blocks), -1, -1, state["hits"], state["misses"], state["evictions"],
            )
            self._lru[len(_LRU_FIELDS) + table :: 3][: len(blocks)] = blocks
            _LIBRARY.fp_load(self._lru.ctypes.data)
        if prefetcher is not None:
            state = prefetcher.state_dict()
            windows = np.asarray(state["windows"], dtype=np.int64).reshape(-1, 2)
            # A window holds >= 1 sector: `capacity` fit, plus one mid-insert.
            capacity = prefetcher._buffer.capacity_sectors
            self._ring = np.empty(len(_RING_FIELDS) + 2 * (capacity + 1), np.int64)
            self._ring[: len(_RING_FIELDS)] = (
                capacity, prefetcher.ahead_sectors, prefetcher.behind_sectors, capacity + 1,
                0, len(windows), np.sum(windows[:, 1] - windows[:, 0]), state["window_reads"],
            )
            self._ring[len(_RING_FIELDS) :][: windows.size] = windows.ravel()
        self._addresses = tuple(
            None if array is None else array.ctypes.data for array in (self._lru, self._ring)
        )

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
        """Write the kernel's state back into the cache and prefetcher."""
        if self.cache is not None:
            header = dict(zip(_LRU_FIELDS, self._lru[: len(_LRU_FIELDS)].tolist()))
            blocks = np.empty(header["count"], dtype=np.int64)
            _LIBRARY.fp_order(self._lru.ctypes.data, blocks.ctypes.data)
            self.cache.load_state(
                {key: header[key] for key in ("hits", "misses", "evictions")}
                | {"blocks": blocks}
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
