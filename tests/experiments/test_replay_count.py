"""Tripwire: an ``all`` run computes each row of the result table once.

The exhibits revisit each other's points — ``ablation_combined`` asks for
all four Fig. 11 configs again on all 21 workloads, ``fig2`` / ``taxonomy``
and three ablations for plain LS — and the sweep engine's result table
must answer every repeat.  Counting evaluations is deterministic (no
timing): across every task of the run, they must equal the number of
*distinct* points and analyses asked for, whatever the exhibit set
happens to be, and each trace's stream is recorded once.
"""

import contextlib
import dataclasses
import io

from repro.experiments import fig9, runner
from repro.experiments import sweep as sweep_module
from repro.experiments.registry import EXHIBITS
from repro.experiments.runner import run_exhibits
from repro.experiments.sweep import SweepEngine
from repro.workloads import TABLE1

SEED, SCALE = 42, 0.05


def _table1_guard(real, what):
    def guarded(first, *args, **kwargs):
        assert getattr(first, "name", first) not in TABLE1, f"the parent {what} {first}"
        return real(first, *args, **kwargs)

    return guarded


def test_all_run_evaluates_each_distinct_point_once(monkeypatch):
    _all_run_computes_each_row_once(monkeypatch, jobs=1)


def test_pool_run_computes_each_row_in_one_process(monkeypatch):
    _all_run_computes_each_row_once(monkeypatch, jobs=2)


def _all_run_computes_each_row_once(monkeypatch, jobs):
    asked = []  # one (content key, technique) per point asked for
    analyses = []  # one (workload, function) per analysis asked for
    evaluated = []  # one entry per kernel call in this process
    engines = []  # the run's engine first, then any in-process fill task's
    rendered = []  # what the run's engine computed itself: only the render does

    real_point, real_analysis = SweepEngine._point, SweepEngine.analysis

    def asking(self, key, config, trace_of):
        asked.append((key, dataclasses.replace(config, name="")))
        computed = self.results_computed
        result = real_point(self, key, config, trace_of)
        if self is engines[0] and self.results_computed > computed:
            rendered.append(key)
        return result

    def analysing(self, name, fn):
        analyses.append((name, fn))
        computed = self.analyses_computed
        row = real_analysis(self, name, fn)
        if self is engines[0] and self.analyses_computed > computed:
            rendered.append(name)
        return row

    def counting(name):
        real = getattr(sweep_module, name)

        def wrapper(*args, **kwargs):
            evaluated.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, name, wrapper)

    monkeypatch.setattr(SweepEngine, "_point", asking)
    monkeypatch.setattr(SweepEngine, "analysis", analysing)

    def building(*args, **kwargs):
        engines.append(SweepEngine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(runner, "SweepEngine", building)
    counting("stream_replay")
    counting("batch_replay")
    if jobs > 1:
        # The spawned workers import the real modules; in the parent, with
        # no stores, any Table-I trace or stream would be built here.
        for module, name, what in (
            (sweep_module, "synthesize_workload", "synthesised"),
            (sweep_module, "record_fragment_stream", "recorded the stream of"),
        ):
            monkeypatch.setattr(module, name, _table1_guard(getattr(module, name), what))

    with contextlib.redirect_stdout(io.StringIO()):
        outcomes = run_exhibits(
            list(EXHIBITS), seed=SEED, scale=SCALE, jobs=jobs, echo=lambda line: None
        )
    assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes]

    engine = engines[0]
    # Rendering computes no row NEEDS declares: only fig9's toy trace is
    # not filled (ablation_cleaning replays its own workload off the table).
    assert set(rendered) == {fig9._scenario_trace().content_key()}
    distinct = len(set(asked))
    assert 100 < distinct < len(asked), "the exhibits no longer revisit points?"
    assert engine.results_computed == distinct == len(engine._results)
    # With a pool, this process computes only what no task was sent (fig9's
    # toy trace), and sees only its own asks.
    table1_keys = set(engine._keys.values())
    local = {row for row in asked if jobs == 1 or row[0] not in table1_keys}
    assert len(evaluated) == len(local)
    if jobs == 1:
        assert engine.results_shared == len(asked) - len(evaluated)
    assert engine.analyses_computed == len(set(analyses)) == len(analyses)
    assert engine.streams_recorded == len({key for key, _ in asked})  # one a trace
