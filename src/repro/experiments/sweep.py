"""The per-trace result table every exhibit is a view over.

Every headline exhibit reads the same 21 workloads several times: fig11
runs a NoLS baseline plus four technique configs per workload, and the
ablations revisit those points beside fresh parameter points.  The
replays are highly redundant — the NoLS baseline is shared by every grid
point, and all defrag-free configurations resolve reads against the
*identical* plain-LS layout (see :mod:`repro.core.stream`).
:class:`SweepEngine` keeps one table so the expensive work happens once:

* a **point row** is ``(trace.content_key(), technique) -> RunResult``,
  consulted before a replay and filled after it: an engine simulates no
  point twice, whichever exhibit or report label asks, and the **NoLS
  baseline** is its NoLS row;
* an **analysis row** is what a module-level ``f(engine, trace)`` returns
  for one workload (an exhibit's series, rate or sample): filled ahead of
  the exhibit by the runner's per-trace task (:meth:`fill` in the task,
  :meth:`absorb` in the run) and handed out once, else computed on demand
  and not kept;
* the **fragment-access stream** is recorded once per trace
  (:func:`~repro.core.stream.record_fragment_stream`) and every
  cache/prefetch grid point is evaluated against the recording, one LRU
  pass a point (a capacity grid of nine or more points is cheaper in one
  :func:`~repro.core.stream.stream_cache_sweep` pass over the same stream,
  called directly: no exhibit sweeps more than four);
* **defrag** grid points (layout-mutating) and NoLS run through the
  chunked batch kernel (:mod:`repro.core.batch`).

All paths are exact, so exhibit JSON is byte-identical to the reference
simulator's.  ``SweepEngine(fast=False)`` answers every point through the
reference :class:`~repro.core.simulator.Simulator` instead — the oracle
the differential tests compare the kernels against, never a run mode.

A run builds one engine and hands it to every exhibit it renders.  The
runner fills it trace by trace, so an engine keeps only the last trace it
loaded and the last stream it recorded, the stream keyed by
:meth:`~repro.trace.trace.Trace.content_key` (logically identical traces
from different load paths share it); a trace comes from the engine's
compiled-trace store when it has one, else from synthesis.  No result is
ever written to disk (the NoLS row costs ~0.2 ms a trace to compute, less
than a file to publish).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.batch import batch_replay
from repro.core.config import NOLS, TechniqueConfig, build_translator
from repro.core.metrics import SeekAmplification, seek_amplification
from repro.core.outcomes import SimStats
from repro.core.simulator import RunResult, replay
from repro.core.stream import (
    FragmentStream,
    record_fragment_stream,
    stream_replay,
    supports_stream,
)
from repro.trace.store import TraceStore, synthetic_meta
from repro.trace.trace import Trace
from repro.workloads import synthesize_workload


class SweepEngine:
    """The result table of one ``(seed, scale)`` workload set.

    Args:
        seed / scale: Workload synthesis parameters.
        fast: Compute points with the kernels (True) or the reference
            :class:`~repro.core.simulator.Simulator` (False, the oracle).
        trace_store: Directory of a compiled-trace store
            (:mod:`repro.trace.store`): workload traces are loaded from it
            and compiled into it on a miss.  ``None``: synthesis only.
    """

    def __init__(
        self,
        seed: int = 42,
        scale: float = 1.0,
        fast: bool = True,
        trace_store: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.fast = fast
        self.trace_store = None if trace_store is None else TraceStore(trace_store)
        # (workload name, trace) of the last trace asked for: a fill task
        # asks for one trace, so one entry serves every ask of a task.
        self._trace: Tuple[Optional[str], Optional[Trace]] = (None, None)
        # (trace.content_key(), stream) of the last recording; the content
        # key survives re-loads of the same workload, so a trace reaching
        # this engine through a different path (fresh synthesis vs
        # compiled-store mmap) still hits it.
        self._stream: Tuple[Optional[str], Optional[FragmentStream]] = (None, None)
        # (content key, technique) -> the RunResult computed for it; the
        # table owns its rows (SimStats is mutable): answers are copies.
        # About 1 KB a row (an ``all`` run fills ~160), freed with the engine.
        self._results: Dict[tuple, RunResult] = {}
        # (content key, f) -> f's row, absorbed from a fill task and
        # handed out once.
        self._analyses: Dict[tuple, object] = {}
        # Workload name -> content key, so a filled row is found without
        # loading the trace it came from.
        self._keys: Dict[str, str] = {}
        self.streams_recorded = 0
        self.results_computed = 0  # points simulated (each one a new row)
        self.results_shared = 0  # answers read from the table
        self.analyses_computed = 0

    # ----------------------------------------------------------------- #
    # Shared state
    # ----------------------------------------------------------------- #

    def trace(self, name: str) -> Trace:
        """The workload trace, memoized for the last name asked: loaded
        from the trace store, else synthesised (and compiled into the
        store when there is one)."""
        if self._trace[0] != name:
            self._trace = (None, None)
            trace = meta = None
            if self.trace_store is not None:
                meta = synthetic_meta(name, self.seed, self.scale)
                trace = self.trace_store.load(meta)  # the entry keeps the trace's name
            if trace is None:
                trace = synthesize_workload(name, seed=self.seed, scale=self.scale)
                if self.trace_store is not None:
                    self.trace_store.store(trace, meta)
            self._trace = (name, trace)
        return self._trace[1]

    def stream_for(self, trace: Trace) -> FragmentStream:
        """The recorded fragment-access stream of ``trace``, memoized for
        the last trace asked (a new recording frees the previous one)."""
        key = trace.content_key()
        if self._stream[0] != key:
            self._stream = (None, None)
            self._stream = (key, record_fragment_stream(trace))
            self.streams_recorded += 1
        return self._stream[1]

    def _workload_key(self, name: str) -> str:
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = self.trace(name).content_key()
        return key

    def baseline(self, name: str) -> SimStats:
        """The workload's NoLS baseline stats (the result table's NoLS row)."""
        return self.workload_replay(name, NOLS).stats

    # ----------------------------------------------------------------- #
    # Point rows
    # ----------------------------------------------------------------- #

    def _point(
        self, key: str, config: TechniqueConfig, trace_of: Callable[[], Trace]
    ) -> RunResult:
        """The row of ``(key, config)``, computed on a miss.  The report
        label changes no simulated number, so it is not in the key."""
        row = (key, replace(config, name=""))
        result = self._results.get(row)
        if result is not None:
            self.results_shared += 1
        else:
            trace = trace_of()
            if not self.fast:
                result = replay(trace, build_translator(trace, config))
            elif supports_stream(config):
                result = stream_replay(self.stream_for(trace), config).run_result
            else:
                result = batch_replay(trace, config).run_result
            self.results_computed += 1
            self._results[row] = result
        return replace(result, stats=replace(result.stats))

    def replay(self, trace: Trace, config: TechniqueConfig) -> RunResult:
        """Replay via the cheapest exact path for ``config``, once.

        A point already in the table, under any name, is answered from
        it; defrag-free configs evaluate against the recorded stream, and
        everything else (NoLS, defrag combinations) uses the batch kernel.
        """
        return self._point(trace.content_key(), config, lambda: trace)

    def sweep(
        self, trace: Trace, configs: Sequence[TechniqueConfig]
    ) -> List[RunResult]:
        """Replay ``trace`` under every config, in ``configs`` order, each
        via :meth:`replay` (a point met twice, even under two names, is
        computed once)."""
        return [self.replay(trace, config) for config in configs]

    def workload_replay(self, name: str, config: TechniqueConfig) -> RunResult:
        """:meth:`replay` of a workload; a filled row needs no trace."""
        return self._point(self._workload_key(name), config, lambda: self.trace(name))

    def workload_sweep(
        self, name: str, configs: Sequence[TechniqueConfig]
    ) -> List[RunResult]:
        return [self.workload_replay(name, config) for config in configs]

    def saf(self, name: str, config: TechniqueConfig) -> SeekAmplification:
        """Seek amplification of ``config`` on ``name`` vs the NoLS baseline."""
        stats = self.workload_replay(name, config).stats
        return seek_amplification(stats, self.baseline(name))

    # ----------------------------------------------------------------- #
    # Analysis rows and fill tasks
    # ----------------------------------------------------------------- #

    def analysis(self, name: str, fn: Callable[["SweepEngine", Trace], object]):
        """``fn(self, trace)`` for workload ``name``: the row a fill task
        filled (handed out once), else computed now and not kept."""
        row = self._analyses.pop((self._keys.get(name), fn), None)
        if row is None:
            self.analyses_computed += 1
            row = fn(self, self.trace(name))
        return row

    def fill(self, name: str, items: Sequence) -> tuple:
        """Compute workload ``name``'s rows for ``items`` (technique
        configs and analysis functions): one fill task, whose return value
        :meth:`absorb` takes into the run's engine."""
        trace = self.trace(name)
        analyses = {}
        for item in items:
            if isinstance(item, TechniqueConfig):
                self.replay(trace, item)
            else:
                analyses[item] = item(self, trace)
                self.analyses_computed += 1
        counts = (self.results_computed, self.results_shared, self.analyses_computed,
                  self.streams_recorded)
        return name, trace.content_key(), self._results, analyses, counts

    def absorb(self, filled: tuple) -> None:
        """Take one :meth:`fill` result into this table; its work counts
        here too, so the counters total every task's."""
        name, key, points, analyses, counts = filled
        self._keys[name] = key
        for row, result in points.items():
            self._results.setdefault(row, result)
        for fn, row in analyses.items():
            self._analyses[key, fn] = row
        self.results_computed += counts[0]
        self.results_shared += counts[1]
        self.analyses_computed += counts[2]
        self.streams_recorded += counts[3]
