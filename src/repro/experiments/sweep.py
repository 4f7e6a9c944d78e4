"""Shared-replay sweep engine for (workload x technique x parameter) grids.

Every headline exhibit replays each workload several times: fig11 runs a
NoLS baseline plus four technique configs per workload, and the ablations
revisit those points beside a fresh full replay per parameter point.  The
replays are highly redundant — the NoLS baseline is shared by every grid
point, and all defrag-free configurations resolve reads against the
*identical* plain-LS layout (see :mod:`repro.core.stream`).
:class:`SweepEngine` plans a grid so the expensive work happens once:

* every **result** is kept in one table, ``(trace.content_key(),
  technique, kernels on?) -> RunResult``, consulted before a replay and
  filled after it: an engine simulates no point twice, whichever exhibit
  or report label asks, and the **NoLS baseline** is its NoLS row;
* the **fragment-access stream** is recorded once per trace
  (:func:`~repro.core.stream.record_fragment_stream`) and every
  cache/prefetch grid point is evaluated against the recording, one
  LRU pass a point (a capacity grid of nine or more points is cheaper in
  one :func:`~repro.core.stream.stream_cache_sweep` pass over the same
  stream, called directly: no exhibit sweeps more than four);
* **defrag** grid points (layout-mutating) run through the chunked batch
  kernel (:mod:`repro.core.batch`), NoLS/unknown configs likewise.

All paths are exact, so exhibit JSON is byte-identical to the reference
pipeline; replays that attach recorders or a retry policy fall back to
the reference simulator automatically (the kernels cannot observe
per-request events or inject faults) and bypass the table.  The engine
defers to the process-wide ``--fast`` switch (:func:`~repro.experiments.
common.set_fast_replay`): with fast replay off, every call routes through
the reference path, answered only from rows that path computed.

Engines are memoized per ``(seed, scale)`` via :func:`sweep_engine`, so
exhibits running in one process (serial ``all`` runs, one pool worker
handling several exhibits) share results and recorded streams.  Traces
themselves still come from :func:`~repro.experiments.common.
workload_trace`, which consults the compiled-trace store — parallel
workers therefore stop re-parsing once the store is primed.  When a
persistent :class:`~repro.core.stream_store.StreamStore` is active
(:func:`~repro.experiments.common.set_stream_store` or the constructor
argument), recorded streams are shared **across processes** too: the
first worker to need a stream records and publishes it, everyone else
memory-maps the published arrays zero-copy.  The in-memory LRU — keyed by
:meth:`~repro.trace.trace.Trace.content_key`, so logically identical
traces from different load paths share one entry — stays in front of the
store; no result is ever written to disk (the NoLS row costs ~0.2 ms a
trace to compute, less than a file to publish).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import batch_replay, batch_support
from repro.core.config import NOLS, TechniqueConfig
from repro.core.metrics import SeekAmplification, seek_amplification
from repro.core.outcomes import SimStats
from repro.core.recorders import Recorder
from repro.core.simulator import RunResult
from repro.core.stream import (
    FragmentStream,
    record_fragment_stream,
    stream_replay,
    supports_stream,
)
from repro.experiments.common import (
    fast_replay_default,
    note_reference_fallback,
    replay_with,
    workload_trace,
)
from repro.trace.trace import Trace

#: Recorded fragment streams an engine keeps alive (LRU).  A stream is a
#: few arrays the size of the access stream, so two in flight covers
#: exhibits that interleave a couple of workloads; 32 measured flat op/s
#: for +11.6 % peak RSS (PR 19).
_MAX_STREAMS = 2


class SweepEngine:
    """Plans and executes a replay grid with per-workload shared state.

    One engine is scoped to a ``(seed, scale)`` pair (the identity of a
    synthesized workload trace, together with its name).  ``fast=None``
    defers to the process-wide fast-replay default *per call*, so a single
    engine behaves correctly even when the CLI flag flips between runs.

    Args:
        seed / scale: Workload synthesis parameters.
        fast: Force the kernels on (True) / off (False), or defer (None).
        stream_store: Persistent stream store to share recordings across
            processes, or None to defer to the process-wide store
            (:func:`~repro.experiments.common.set_stream_store`).
    """

    def __init__(
        self,
        seed: int = 42,
        scale: float = 1.0,
        fast: Optional[bool] = None,
        stream_store=None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self._fast = fast
        self._stream_store_override = stream_store
        # trace.content_key() -> stream; the content key survives
        # re-loads of the same workload, so a trace reaching this engine
        # through a different path (fresh synthesis vs compiled-store
        # mmap) still hits the same entry.
        self._streams: "OrderedDict[str, FragmentStream]" = OrderedDict()
        # _result_key(trace, config) -> the RunResult computed for it; the
        # table owns its rows (SimStats is mutable): answers are copies.
        # About 1 KB a row (an ``all`` run fills ~160), freed with the engine.
        self._results: Dict[tuple, RunResult] = {}
        self.streams_recorded = 0
        self.results_computed = 0  # points simulated (each one a new row)
        self.results_shared = 0  # answers read from the table

    # ----------------------------------------------------------------- #
    # Shared state
    # ----------------------------------------------------------------- #

    def fast_enabled(self) -> bool:
        """Whether this call should use the kernels (mirrors replay_with)."""
        return fast_replay_default() if self._fast is None else self._fast

    def trace(self, name: str) -> Trace:
        """The workload trace (memoized + compiled-store-backed)."""
        return workload_trace(name, self.seed, self.scale)

    def stream_store(self):
        """The effective :class:`StreamStore` (constructor override wins)."""
        if self._stream_store_override is not None:
            return self._stream_store_override
        from repro.experiments import common

        return common.stream_store()

    def stream_for(self, trace: Trace) -> FragmentStream:
        """The recorded fragment-access stream of ``trace`` (memoized).

        Lookup order: in-memory LRU, then the persistent stream store
        (zero-copy mmap hit), then a fresh recording — which is published
        to the store so no other process pays it again.
        """
        key = trace.content_key()
        stream = self._streams.get(key)
        if stream is not None:
            self._streams.move_to_end(key)
            return stream
        store = self.stream_store()
        stream = store.load_stream(trace) if store is not None else None
        if stream is None:
            stream = record_fragment_stream(trace)
            self.streams_recorded += 1
            if store is not None:
                store.store_stream(trace, stream)
        self._streams[key] = stream
        while len(self._streams) > _MAX_STREAMS:
            self._streams.popitem(last=False)
        return stream

    def _result_key(self, trace: Trace, config: TechniqueConfig) -> tuple:
        """Result-table key of a point.  The report label changes no
        simulated number; which path answers is in the key so that a
        reference run is served reference results only."""
        return trace.content_key(), replace(config, name=""), self.fast_enabled()

    def baseline(self, name: str) -> SimStats:
        """The workload's NoLS baseline stats (the result table's NoLS row)."""
        return self.workload_replay(name, NOLS).stats

    # ----------------------------------------------------------------- #
    # Replay dispatch
    # ----------------------------------------------------------------- #

    def replay(
        self,
        trace: Trace,
        config: TechniqueConfig,
        recorders: Sequence[Recorder] = (),
    ) -> RunResult:
        """Replay via the cheapest exact path for ``config``, once.

        Dispatch: recorders or a config no kernel covers force the
        reference simulator (through :func:`replay_with`'s own
        fallback) and bypass the result table.  Otherwise a point already
        in the table, under any name, is answered from it; defrag-free
        configs evaluate against the recorded stream, and everything else
        (NoLS, defrag combinations) uses the batch kernel.  The
        reference path (fast off) never touches the stream store, so
        reference runs stay purely reference.
        """
        if recorders:
            return replay_with(trace, config, recorders)
        fast = self.fast_enabled()
        support = batch_support(config)
        if not support:
            if fast:
                note_reference_fallback(support.reason)
            return replay_with(trace, config, fast=False)
        key = self._result_key(trace, config)
        result = self._results.get(key)
        if result is not None:
            self.results_shared += 1
            return replace(result, stats=replace(result.stats))
        if not fast:
            result = replay_with(trace, config, fast=False)
        elif supports_stream(config):
            result = stream_replay(self.stream_for(trace), config).run_result
        else:
            result = batch_replay(trace, config).run_result
        self.results_computed += 1
        self._results[key] = result
        return replace(result, stats=replace(result.stats))

    def sweep(
        self, trace: Trace, configs: Sequence[TechniqueConfig]
    ) -> List[RunResult]:
        """Replay ``trace`` under every config, in ``configs`` order, each
        via :meth:`replay` (a point met twice, even under two names, is
        computed once)."""
        return [self.replay(trace, config) for config in configs]

    # ----------------------------------------------------------------- #
    # Workload-level conveniences (what the exhibits call)
    # ----------------------------------------------------------------- #

    def workload_replay(self, name: str, config: TechniqueConfig) -> RunResult:
        return self.replay(self.trace(name), config)

    def workload_sweep(
        self, name: str, configs: Sequence[TechniqueConfig]
    ) -> List[RunResult]:
        return self.sweep(self.trace(name), configs)

    def saf(self, name: str, config: TechniqueConfig) -> SeekAmplification:
        """Seek amplification of ``config`` on ``name`` vs the NoLS baseline."""
        stats = self.workload_replay(name, config).stats
        return seek_amplification(stats, self.baseline(name))


# --------------------------------------------------------------------- #
# Process-wide engine registry
# --------------------------------------------------------------------- #

_ENGINES_MAX = 4
_engines: "OrderedDict[Tuple[int, float], SweepEngine]" = OrderedDict()


def sweep_engine(seed: int = 42, scale: float = 1.0) -> SweepEngine:
    """The shared engine for ``(seed, scale)`` (bounded LRU registry).

    Exhibits fetch their engine here so a serial ``all`` run — or one pool
    worker handling several exhibits — shares results (the NoLS baselines
    among them) and recorded streams across exhibits.  Engines defer to
    the process-wide fast default and key results by it, so the registry
    is safe to share between fast and reference runs.
    """
    key = (seed, scale)
    engine = _engines.get(key)
    if engine is not None:
        _engines.move_to_end(key)
        return engine
    engine = SweepEngine(seed=seed, scale=scale)
    _engines[key] = engine
    while len(_engines) > _ENGINES_MAX:
        _engines.popitem(last=False)
    return engine


def reset_sweep_engines() -> None:
    """Drop every memoized engine (tests; frees streams and results)."""
    _engines.clear()
