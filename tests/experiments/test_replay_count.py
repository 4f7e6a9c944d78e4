"""Tripwire: an ``all`` run simulates each (trace, technique) point once.

The exhibits revisit each other's points — ``ablation_combined`` asks for
all four Fig. 11 configs again on all 21 workloads, ``fig2`` / ``taxonomy``
and three ablations for plain LS — and the sweep engine's result table
must answer every repeat.  Counting kernel evaluations is deterministic
(no timing): they must equal the number of *distinct* points asked for,
whatever the exhibit set happens to be.
"""

import contextlib
import dataclasses
import io

import pytest

from repro.experiments import common
from repro.experiments import sweep as sweep_module
from repro.experiments.registry import EXHIBITS
from repro.experiments.runner import run_exhibits
from repro.experiments.sweep import SweepEngine, reset_sweep_engines, sweep_engine

SEED, SCALE = 42, 0.05


@pytest.fixture(autouse=True)
def _clean_state():
    common.set_trace_store(None)
    common.set_stream_store(None)
    common.clear_trace_cache()
    reset_sweep_engines()
    yield
    common.clear_trace_cache()
    reset_sweep_engines()


def test_all_run_evaluates_each_distinct_point_once(monkeypatch):
    asked = []  # one (content key, technique) per table-eligible replay() call
    evaluated = []  # one entry per kernel call

    real_replay = SweepEngine.replay

    def asking(self, trace, config, recorders=()):
        if not recorders:
            technique = dataclasses.replace(config, name="")
            asked.append((trace.content_key(), technique))
        return real_replay(self, trace, config, recorders)

    def counting(name):
        real = getattr(sweep_module, name)

        def wrapper(*args, **kwargs):
            evaluated.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, name, wrapper)

    monkeypatch.setattr(SweepEngine, "replay", asking)
    counting("stream_replay")
    counting("batch_replay")

    with contextlib.redirect_stdout(io.StringIO()):
        outcomes = run_exhibits(
            list(EXHIBITS), seed=SEED, scale=SCALE, fast=True, echo=lambda line: None
        )
    assert all(outcome.ok for outcome in outcomes)

    engine = sweep_engine(SEED, SCALE)
    distinct = len(set(asked))
    assert 100 < distinct < len(asked), "the exhibits no longer revisit points?"
    assert len(evaluated) == distinct == engine.results_computed
    assert engine.results_shared == len(asked) - distinct
