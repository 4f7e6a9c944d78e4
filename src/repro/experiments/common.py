"""Shared plumbing for the experiment modules: the workload-trace memo,
the process-wide compiled-trace store, and JSON dumps."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro.trace.trace import Trace
from repro.util.io import atomic_write_json
from repro.workloads import synthesize_workload

#: The last workload trace asked for, keyed ``(name, seed, scale)``: the
#: runner fills the result table one trace per task, so one entry serves
#: every ask of a task.
_trace_cache: Dict[Tuple[str, int, float], Trace] = {}

_trace_store = None


def set_trace_store(root: Optional[str]) -> None:
    """Process-wide compiled-trace store for :func:`workload_trace`.

    Wired to the experiment CLI's ``--trace-store DIR`` flag (and forwarded
    to each fill task).  With a store set, synthesized workload traces are
    compiled to page-aligned ``.npy`` columns on first use and mapped back
    on later runs — the in-memory memo stays in front, so the store only
    pays off across processes/runs.  ``None`` disables.
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

    Several exhibits replay the same workloads; the runner asks for each
    trace in one fill task, so generating it once there keeps a full
    ``all`` run fast and every exhibit sees the identical trace.  The memo
    holds one trace: asking for another drops it first.  When a compiled
    store is active (:func:`set_trace_store`), misses consult it before
    synthesizing and compile what they synthesize.
    """
    key = (name, seed, scale)
    trace = _trace_cache.get(key)
    if trace is not None:
        return trace
    _trace_cache.clear()
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
    return trace


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
