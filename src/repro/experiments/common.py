"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Optional, Tuple

from repro.trace.trace import Trace
from repro.util.io import atomic_write_json
from repro.workloads import synthesize_workload

#: Column bytes (25 an op) the trace LRU may hold: all of Table I at any
#: default scale (16.5 MB at 1.0), since the exhibits cycle through the 21 in
#: one order and a smaller LRU then misses every time; a larger run evicts.
_TRACE_CACHE_BYTES = 64 << 20
_trace_cache: "OrderedDict[Tuple[str, int, float], Trace]" = OrderedDict()

_trace_store = None


def set_trace_store(root: Optional[str]) -> None:
    """Process-wide compiled-trace store for :func:`workload_trace`.

    Wired to the experiment CLI's ``--trace-store DIR`` flag (and forwarded
    to each parallel worker).  With a store set, synthesized workload
    traces are compiled to page-aligned ``.npy`` columns on first use and
    mapped back on later runs — the in-memory LRU stays in front, so the
    store only pays off across processes/runs.  ``None`` disables.
    """
    global _trace_store
    if root is None:
        _trace_store = None
        return
    from repro.trace.store import TraceStore

    _trace_store = root if isinstance(root, TraceStore) else TraceStore(root)


def trace_store():
    """The active :class:`~repro.trace.store.TraceStore`, or None."""
    return _trace_store


def workload_trace(name: str, seed: int, scale: float) -> Trace:
    """Memoized synthetic trace for a Table I workload.

    Several exhibits replay the same workloads; generating each trace once
    per (name, seed, scale) keeps a full ``all`` run fast and guarantees
    every exhibit sees the identical trace.  The cache is an LRU bounded by
    column bytes (``_TRACE_CACHE_BYTES``) so a large-scale ``all`` run doesn't
    accumulate every workload it ever touched in memory.  When a compiled
    store is active (:func:`set_trace_store`), misses consult it before
    synthesizing and compile what they synthesize.
    """
    key = (name, seed, scale)
    if key in _trace_cache:
        _trace_cache.move_to_end(key)
        return _trace_cache[key]
    trace = None
    meta = None
    if _trace_store is not None:
        from repro.trace.store import synthetic_meta

        meta = synthetic_meta(name, seed, scale)
        trace = _trace_store.load(meta)  # the entry keeps the trace's name
    if trace is None:
        trace = synthesize_workload(name, seed=seed, scale=scale)
        if _trace_store is not None:
            _trace_store.store(trace, meta)
    _trace_cache[key] = trace
    while (
        len(_trace_cache) > 1
        and 25 * sum(map(len, _trace_cache.values())) > _TRACE_CACHE_BYTES
    ):
        _trace_cache.popitem(last=False)
    return trace


_stream_store = None


def set_stream_store(root: Optional[str]) -> None:
    """Process-wide persistent stream store for the :class:`SweepEngine`.

    Wired to the experiment CLI's ``--stream-store DIR`` flag (and
    forwarded to each parallel worker).  With a store set, each workload's
    plain-LS fragment stream is recorded by whichever process gets there
    first and memory-mapped (zero-copy) by everyone else.  ``None``
    disables.
    """
    global _stream_store
    if root is None:
        _stream_store = None
        return
    from repro.core.stream_store import StreamStore

    _stream_store = root if isinstance(root, StreamStore) else StreamStore(root)


def stream_store():
    """The active :class:`~repro.core.stream_store.StreamStore`, or None."""
    return _stream_store


def save_json(exhibit: str, data: dict, out_dir: Optional[str]) -> Optional[Path]:
    """Dump exhibit data as ``<out_dir>/<exhibit>.json``; None disables.

    The write is atomic (tmp file + rename), so a run killed mid-dump
    never leaves a truncated JSON behind — at worst a stale ``.tmp`` file
    sits next to the previous complete version.
    """
    if out_dir is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return atomic_write_json(out / f"{exhibit}.json", data)


def downsample(series: Iterable[float]) -> list:
    """Thin a long series to 200 points for JSON output, keeping the
    first and last."""
    values = list(series)
    if len(values) <= 200:
        return values
    stride = len(values) / 200
    picked = [values[int(i * stride)] for i in range(200)]
    picked[-1] = values[-1]
    return picked
