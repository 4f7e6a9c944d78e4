"""Sweep-engine behavior: shared state, dispatch, the result table, the
stream memo and trace-store integration (exhibit bytes against the
reference simulator are ``tests/differential/test_exhibits_vs_reference.py``)."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import (LS, LS_CACHE, LS_DEFRAG, NOLS, PAPER_CONFIGS, MultiFrontierConfig,
                               TechniqueConfig)
from repro.core.defrag import DefragConfig
from repro.core.prefetch import PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig
from repro.experiments import fig11
from repro.experiments import sweep as sweep_module
from repro.experiments.sweep import SweepEngine
from repro.trace.store import TraceStore
from repro.workloads import get_spec, synthesize_workload

SEED, SCALE = 42, 0.05


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class TestEngineSharing:
    def test_one_recording_serves_many_configs(self):
        engine = SweepEngine(seed=SEED, scale=SCALE, fast=True)
        trace = engine.trace("hm_1")
        engine.sweep(trace, list(PAPER_CONFIGS))
        assert engine.streams_recorded == 1
        engine.sweep(trace, list(PAPER_CONFIGS))
        assert engine.streams_recorded == 1

    def test_baseline_cached_per_workload(self):
        engine = SweepEngine(seed=SEED, scale=SCALE, fast=True)
        first = engine.baseline("hm_1")
        assert engine.baseline("hm_1") == first
        assert (engine.results_computed, engine.results_shared) == (1, 1)

    def test_fast_and_reference_agree(self):
        reference = SweepEngine(seed=SEED, scale=SCALE, fast=False)
        fast = SweepEngine(seed=SEED, scale=SCALE, fast=True)
        configs = list(PAPER_CONFIGS) + [
            TechniqueConfig(
                name=f"cache{mib:g}",
                cache=SelectiveCacheConfig(capacity_mib=mib),
            )
            for mib in (2.0, 8.0, 32.0)
        ]
        trace = synthesize_workload("usr_0", seed=SEED, scale=SCALE)
        slow = reference.sweep(trace, configs)
        quick = fast.sweep(trace, configs)
        for config, a, b in zip(configs, slow, quick):
            assert a.stats == b.stats, config.name
            assert a.translator == b.translator, config.name


@functools.lru_cache(maxsize=None)
def _small(name):
    """A 3 k-op trace of ``name``: every technique knob moves its stats."""
    return synthesize_workload(name, seed=SEED, scale=3000 / get_spec(name).total_ops)


def _technique(config):
    """Every field of ``config`` a simulated number can depend on."""
    fields = dataclasses.asdict(config)
    del fields["name"]
    return fields


_labels = st.fixed_dictionaries({"name": st.text(max_size=6)})
_techniques = st.one_of(
    st.just({"log_structured": False}),
    st.just({"multi_frontier": MultiFrontierConfig()}),
    st.fixed_dictionaries(
        {
            "defrag": st.none() | st.builds(
                DefragConfig,
                min_fragments=st.sampled_from([2, 4]),
                min_accesses=st.sampled_from([1, 2]),
            ),
            "prefetch": st.none() | st.just(PrefetchConfig()),
            "cache": st.none() | st.builds(
                SelectiveCacheConfig,
                capacity_mib=st.sampled_from([0.25, 64.0]),
            ),
        }
    ),
)
_configs = st.builds(lambda a, b: TechniqueConfig(**a, **b), _labels, _techniques)
_traces = st.sampled_from(["hm_1", "w84"])
_property = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestResultTable:
    """One row per (trace content, technique) — no more, no fewer."""

    #: Lives across every generated example, so its table fills up and a
    #: key that confused two points would hand out the wrong row.
    shared = SweepEngine(seed=SEED, scale=SCALE, fast=True)

    @_property
    @given(_traces, _configs, _labels)
    def test_hit_equals_fresh_compute_under_any_label(self, name, config, label):
        trace, engine = _small(name), self.shared
        first = engine.replay(trace, config)
        computed = engine.results_computed
        relabelled = dataclasses.replace(config, **label)
        again = engine.replay(trace, relabelled)
        assert engine.results_computed == computed, "a relabelled point recomputed"
        fresh = SweepEngine(seed=SEED, scale=SCALE, fast=True).replay(trace, relabelled)
        assert first == again == fresh  # stats, translator and trace_name
        assert fresh.trace_name == name

        again.stats.read_seeks += 1  # the caller's copy, not the row
        assert engine.replay(trace, config) == fresh

    @_property
    @given(_traces, _configs, _configs)
    def test_any_other_field_change_misses(self, name, one, other):
        engine = SweepEngine(seed=SEED, scale=SCALE, fast=True)
        results = engine.sweep(_small(name), [one, other])
        same_point = _technique(one) == _technique(other)
        assert engine.results_computed == (1 if same_point else 2)
        assert engine.results_shared == (1 if same_point else 0)
        reference = SweepEngine(seed=SEED, scale=SCALE, fast=False)
        assert results == reference.sweep(_small(name), [one, other])

    def test_same_technique_on_another_trace_misses(self):
        engine = SweepEngine(seed=SEED, scale=SCALE, fast=True)
        assert engine.replay(_small("hm_1"), LS) != engine.replay(_small("w84"), LS)
        assert (engine.results_computed, engine.results_shared) == (2, 0)

    @pytest.mark.parametrize("config", (NOLS,) + PAPER_CONFIGS, ids=lambda c: c.name)
    def test_kernel_and_reference_rows_are_kept_apart(self, config, monkeypatch):
        """``fast`` is a constructor argument: a reference engine answers
        through the Simulator and its own table, never the kernels'."""
        reference_runs = []
        real = sweep_module.replay
        monkeypatch.setattr(
            sweep_module,
            "replay",
            lambda *args: reference_runs.append(1) or real(*args),
        )
        kernel_engine = SweepEngine(seed=SEED, scale=SCALE)
        reference_engine = SweepEngine(seed=SEED, scale=SCALE, fast=False)
        trace = _small("hm_1")
        kernel = kernel_engine.replay(trace, config)
        assert len(reference_runs) == 0
        reference = reference_engine.replay(trace, config)
        assert len(reference_runs) == 1
        assert kernel == reference
        assert reference_engine.replay(trace, config) == reference
        assert kernel_engine.replay(trace, config) == kernel
        for engine in (kernel_engine, reference_engine):
            assert (engine.results_computed, engine.results_shared) == (1, 1)
        assert len(reference_runs) == 1

    def test_duplicates_inside_one_sweep_are_computed_once(self):
        engine = SweepEngine(seed=SEED, scale=SCALE, fast=True)
        configs = [
            LS_CACHE,
            LS_DEFRAG,
            TechniqueConfig(name="cache64", cache=SelectiveCacheConfig(capacity_mib=64.0)),
            dataclasses.replace(LS_DEFRAG, name="again"),
        ]
        results = engine.sweep(_small("hm_1"), configs)
        assert (engine.results_computed, engine.results_shared) == (2, 2)
        assert results[0] == results[2] and results[1] == results[3]
        assert results[0].stats is not results[2].stats


class TestTraceStoreIntegration:
    def test_fig11_hits_store_once_per_workload(self, tmp_path, monkeypatch):
        """With a primed store, a fig11 run loads each workload exactly once."""
        monkeypatch.setattr(fig11, "MSR_WORKLOADS", ("hm_1",))
        monkeypatch.setattr(fig11, "CLOUDPHYSICS_WORKLOADS", ("w91",))
        engine = SweepEngine(SEED, SCALE, trace_store=str(tmp_path / "store"))
        _quiet(fig11.run, engine)  # misses prime the store
        assert engine.trace_store.hits == 0 and engine.trace_store.misses == 2

        engine = SweepEngine(SEED, SCALE, trace_store=str(tmp_path / "store"))
        _quiet(fig11.run, engine)
        assert engine.trace_store.hits == 2, "expected exactly one store hit per workload"
        assert engine.trace_store.misses == 0

    def test_store_counts_corrupt_entry_as_miss(self, tmp_path):
        from repro.trace.store import synthetic_meta

        store = TraceStore(tmp_path / "store")
        trace = synthesize_workload("hm_1", seed=SEED, scale=0.01)
        meta = synthetic_meta("hm_1", SEED, 0.01)
        path = store.store(trace, meta)
        (path / "header.json").write_text("torn write")
        assert store.load(meta) is None
        assert (store.hits, store.misses) == (0, 1)


class TestStreamMemo:
    def test_memo_keyed_by_content_not_object_identity(self):
        """Two loads of the same workload share one recorded stream; a
        recording of another trace replaces it."""
        engine = SweepEngine(seed=SEED, scale=SCALE, fast=True)
        first = synthesize_workload("hm_1", seed=SEED, scale=SCALE)
        second = synthesize_workload("hm_1", seed=SEED, scale=SCALE)
        assert first is not second
        assert engine.stream_for(first) is engine.stream_for(second)
        assert engine.streams_recorded == 1
        engine.stream_for(synthesize_workload("w91", seed=SEED, scale=SCALE))
        engine.stream_for(first)
        assert engine.streams_recorded == 3
