"""Differential oracle for the technique kernels and the sweep engine.

Pins the shared-replay layer (:mod:`repro.core.stream` and
:mod:`repro.experiments.sweep`) bit-exact against the reference
per-request simulator:

* **prefetch / cache** (and their combination) via the recorded
  fragment-access stream — Table I workloads from both families,
  hand-built synthetic traces and Hypothesis-generated ones;
* **defrag** via the chunked stateful batch kernel (its oracle lives in
  ``test_batch_vs_reference.py``; here we pin that the sweep engine
  routes defrag points to it and still matches the reference);
* **capacity sweeps** via the stack-distance kernel — every sweep point
  must equal both the single-point stream replay and the reference
  simulator, across block sizes and on adversarial eviction patterns;
* recording **chunk size** must be unobservable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import _MIN_BATCH_READ_RUN, _MIN_BATCH_WRITE_RUN
from repro.core.config import (LS, LS_ALL, LS_CACHE, LS_DEFRAG, LS_PREFETCH, NOLS, PAPER_CONFIGS,
                               TechniqueConfig)
from repro.core.prefetch import PrefetchConfig
from repro.core.selective_cache import SelectiveCacheConfig
from repro.core.stream import (StreamUnsupportedError, record_fragment_stream, stream_cache_sweep,
                               stream_replay, supports_cache_sweep, supports_stream)
from repro.experiments.sweep import SweepEngine
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.workloads import synthesize_workload

from tests.differential.oracle import (assert_batch_matches_reference,
                                       assert_stream_matches_reference)

WORKLOADS = ("usr_0", "src2_2", "hm_1", "w91", "w84", "w20")
SCALE = 0.02

#: Every defrag-free configuration the stream kernel claims to cover.
STREAM_CONFIGS = {
    "LS": LS,
    "LS+prefetch": LS_PREFETCH,
    "LS+cache": LS_CACHE,
    "LS+prefetch+cache": TechniqueConfig(
        name="LS+prefetch+cache",
        prefetch=PrefetchConfig(behind_kib=128.0, ahead_kib=128.0, buffer_mib=2.0),
        cache=SelectiveCacheConfig(capacity_mib=8.0),
    ),
    "tiny-windows": TechniqueConfig(
        name="tiny-windows",
        prefetch=PrefetchConfig(behind_kib=4.0, ahead_kib=4.0, buffer_mib=1.0),
    ),
    "tiny-cache": TechniqueConfig(
        name="tiny-cache",
        cache=SelectiveCacheConfig(capacity_mib=1.0),
    ),
}

CACHE_SWEEP_MIB = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _cache_configs(sizes=CACHE_SWEEP_MIB):
    return [
        TechniqueConfig(name=f"cache{mib:g}", cache=SelectiveCacheConfig(capacity_mib=mib))
        for mib in sizes
    ]


@pytest.fixture(scope="module")
def traces():
    return {
        name: synthesize_workload(name, seed=42, scale=SCALE) for name in WORKLOADS
    }


# --- Table I workloads ---------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config_name", sorted(STREAM_CONFIGS))
def test_table1_workloads_match(traces, workload, config_name):
    assert_stream_matches_reference(traces[workload], STREAM_CONFIGS[config_name])


def test_different_seeds_still_match():
    for seed in (7, 1234):
        trace = synthesize_workload("hm_1", seed=seed, scale=SCALE)
        assert_stream_matches_reference(trace, STREAM_CONFIGS["LS+prefetch+cache"])


# --- synthetic edge cases ------------------------------------------------


SYNTHETIC = {
    "empty": Trace([]),
    "reads-only-holes": Trace([IORequest.read(i * 8, 8) for i in range(6)]),
    "writes-only": Trace([IORequest.write((i * 37) % 64, 5) for i in range(10)]),
    "repeated-fragmented-read": Trace(
        [IORequest.write(0, 32), IORequest.write(8, 8), IORequest.write(20, 4)]
        + [IORequest.read(0, 32) for _ in range(4)]
    ),
    "cache-evicts-and-returns": Trace(
        # Two disjoint fragmented ranges read alternately: a small cache
        # must evict one while serving the other, repeatedly.
        [IORequest.write(0, 64), IORequest.write(16, 8),
         IORequest.write(128, 64), IORequest.write(144, 8)]
        + [IORequest.read((i % 2) * 128, 64) for i in range(6)]
    ),
    "prefetch-window-chain": Trace(
        # Out-of-order neighbours land close in the log; later in-order
        # reads ride each other's windows.
        [IORequest.write(24, 8), IORequest.write(16, 8), IORequest.write(32, 8)]
        + [IORequest.read(8, 40), IORequest.read(8, 40)]
    ),
    "runs-straddling-batch-cutoffs": Trace(
        # Write and read runs one below, at and one above the run lengths
        # where the driver switches between per-op and batched map calls;
        # overlapping strides keep the reads fragmented.
        [
            request
            for delta in (-1, 0, 1)
            for request in (
                [
                    IORequest.write((i * 13 + delta) % 96, 10)
                    for i in range(_MIN_BATCH_WRITE_RUN + delta)
                ]
                + [
                    IORequest.read((i * 7) % 96, 24)
                    for i in range(_MIN_BATCH_READ_RUN + delta)
                ]
            )
        ]
    ),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC))
@pytest.mark.parametrize("config_name", sorted(STREAM_CONFIGS))
def test_synthetic_edge_cases_match(case, config_name):
    assert_stream_matches_reference(SYNTHETIC[case], STREAM_CONFIGS[config_name])


# --- Hypothesis ----------------------------------------------------------

_LBA_SPACE = 256
_MAX_LENGTH = 24

_requests = st.lists(
    st.builds(
        lambda is_read, lba, length: (
            IORequest.read(lba, length) if is_read else IORequest.write(lba, length)
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=_LBA_SPACE - _MAX_LENGTH),
        st.integers(min_value=1, max_value=_MAX_LENGTH),
    ),
    max_size=120,
)


@pytest.mark.parametrize(
    "config",
    [STREAM_CONFIGS["LS+prefetch+cache"], STREAM_CONFIGS["tiny-cache"]],
    ids=lambda c: c.name,
)
@given(requests=_requests)
@settings(max_examples=30, deadline=None)
def test_random_traces_match(config, requests):
    assert_stream_matches_reference(Trace(requests, name="hypothesis"), config)


@given(requests=_requests)
@settings(max_examples=25, deadline=None)
def test_random_traces_cache_sweep_matches_single_points(requests):
    trace = Trace(requests, name="hypothesis")
    # Capacities of 1, 2, 4 and 16 blocks, so small caches actually evict;
    # exercises the stack-distance kernel's hit/miss edge.
    configs = _cache_configs(sizes=(0.004, 0.008, 0.016, 0.064))
    stream = record_fragment_stream(trace)
    swept = stream_cache_sweep(stream, configs)
    for config, result in zip(configs, swept):
        single = stream_replay(stream, config)
        assert result.run_result.stats == single.run_result.stats, config.name
        assert np.array_equal(result.distances, single.distances), config.name
        assert_stream_matches_reference(trace, config)


# --- recording chunk-size invariance -------------------------------------


@pytest.mark.parametrize("chunk_ops", [1, 2, 3, 7, 64])
def test_recording_chunk_size_is_unobservable(traces, chunk_ops):
    trace = traces["src2_2"]
    baseline = record_fragment_stream(trace)
    rechunked = record_fragment_stream(trace, chunk_ops=chunk_ops)
    assert np.array_equal(rechunked.pba, baseline.pba)
    assert np.array_equal(rechunked.length, baseline.length)
    assert np.array_equal(rechunked.kind, baseline.kind)
    assert np.array_equal(rechunked.group_start, baseline.group_start)
    assert np.array_equal(rechunked.group_size, baseline.group_size)
    assert rechunked.frontier == baseline.frontier
    config = STREAM_CONFIGS["LS+prefetch+cache"]
    a = stream_replay(baseline, config)
    b = stream_replay(rechunked, config)
    assert a.run_result.stats == b.run_result.stats
    assert np.array_equal(a.distances, b.distances)


# --- capacity sweep vs single points (workload scale) ---------------------


@pytest.mark.parametrize("workload", ("hm_1", "w91", "usr_0"))
def test_cache_sweep_matches_single_points_and_reference(traces, workload):
    trace = traces[workload]
    configs = _cache_configs()
    stream = record_fragment_stream(trace)
    swept = stream_cache_sweep(stream, configs)
    assert len(swept) == len(configs)
    for config, result in zip(configs, swept):
        single = stream_replay(stream, config)
        assert result.run_result.stats == single.run_result.stats, config.name
        assert np.array_equal(result.distances, single.distances), config.name
        assert np.array_equal(
            result.distance_is_read, single.distance_is_read
        ), config.name
    # Spot-check the extremes against the full reference simulator too.
    assert_stream_matches_reference(trace, configs[0])
    assert_stream_matches_reference(trace, configs[-1])


def test_cache_sweep_monotone_hits(traces):
    # Stack inclusion: a larger cache can never hit less often.
    stream = record_fragment_stream(traces["w91"])
    swept = stream_cache_sweep(stream, _cache_configs())
    hits = [r.run_result.stats.cache_fragment_hits for r in swept]
    assert hits == sorted(hits)


# --- support predicates and refusals -------------------------------------


def test_supports_stream_excludes_defrag_and_nols():
    assert supports_stream(LS)
    assert supports_stream(LS_PREFETCH)
    assert supports_stream(LS_CACHE)
    assert not supports_stream(NOLS)
    assert not supports_stream(LS_DEFRAG)
    assert not supports_stream(LS_ALL)


def test_supports_cache_sweep_requires_cache_only():
    assert supports_cache_sweep(LS_CACHE)
    assert not supports_cache_sweep(LS)
    assert not supports_cache_sweep(LS_PREFETCH)
    assert not supports_cache_sweep(STREAM_CONFIGS["LS+prefetch+cache"])
    assert not supports_cache_sweep(LS_ALL)


def test_unsupported_configs_are_refused(traces):
    stream = record_fragment_stream(traces["hm_1"])
    with pytest.raises(StreamUnsupportedError):
        stream_replay(stream, NOLS)
    with pytest.raises(StreamUnsupportedError):
        stream_replay(stream, LS_ALL)
    with pytest.raises(StreamUnsupportedError):
        stream_cache_sweep(stream, [LS_CACHE, LS_PREFETCH])


def test_sub_block_cache_is_refused_by_sweep_single_point_and_reference(traces):
    # 0.001 MiB = 1048 B, below one 4 KiB block: the sweep used to size
    # the point itself and report a 0-block cache with 0 hits.
    from repro.core.config import build_translator

    trace = traces["hm_1"]
    stream = record_fragment_stream(trace)
    undersized = TechniqueConfig(
        name="sub-block", cache=SelectiveCacheConfig(capacity_mib=0.001)
    )
    message = r"capacity_bytes 1048 below one block \(4096\)"
    with pytest.raises(ValueError, match=message):
        build_translator(trace, undersized)
    with pytest.raises(ValueError, match=message):
        stream_replay(stream, undersized)
    with pytest.raises(ValueError, match=message):
        stream_cache_sweep(stream, [LS_CACHE, undersized])


def test_recording_layout_is_reference_plain_ls_layout(traces):
    # The recorded layout translator must sit in the exact plain-LS
    # reference end-state — it is returned to callers as such.
    from repro.core.config import build_translator
    from repro.core.simulator import replay

    from tests.differential.oracle import map_snapshot

    trace = traces["w84"]
    reference = build_translator(trace, LS)
    replay(trace, reference)
    stream = record_fragment_stream(trace)
    assert map_snapshot(stream.layout) == map_snapshot(reference)
    assert stream.layout.frontier == reference.frontier
    assert stream.layout.head.position == reference.head.position


def test_empty_trace_records_empty_stream():
    stream = record_fragment_stream(Trace([], name="empty"))
    assert stream.accesses == 0
    result = stream_replay(stream, STREAM_CONFIGS["LS+prefetch+cache"])
    assert result.head_position is None
    assert result.run_result.stats.reads == result.run_result.stats.writes == 0
    assert result.distances.size == 0
    swept = stream_cache_sweep(stream, _cache_configs(sizes=(1.0, 64.0)))
    assert all(r.run_result.stats.cache_fragment_hits == 0 for r in swept)


# --- the sweep engine, end to end -----------------------------------------


@pytest.mark.parametrize("workload", ("hm_1", "w20"))
def test_sweep_engine_matches_reference(traces, workload):
    trace = traces[workload]
    reference = SweepEngine(seed=42, scale=SCALE, fast=False)
    fast = SweepEngine(seed=42, scale=SCALE, fast=True)
    grid = list(PAPER_CONFIGS) + _cache_configs(sizes=(2.0, 8.0, 32.0)) + [
        NOLS,
        LS_ALL,
        STREAM_CONFIGS["LS+prefetch+cache"],
    ]
    slow = reference.sweep(trace, grid)
    quick = fast.sweep(trace, grid)
    for config, a, b in zip(grid, slow, quick):
        assert a.trace_name == b.trace_name, config.name
        assert a.translator == b.translator, config.name
        assert a.stats == b.stats, config.name


def test_sweep_engine_defrag_points_use_batch_kernel(traces):
    # Defrag mutates the layout: the engine must route it to the batch
    # kernel (whose own oracle is test_batch_vs_reference) — cross-check
    # one grid point end to end here.
    assert_batch_matches_reference(traces["w91"], LS_DEFRAG)
    engine = SweepEngine(seed=42, scale=SCALE, fast=True)
    fast_stats = engine.replay(traces["w91"], LS_DEFRAG).stats
    reference = SweepEngine(seed=42, scale=SCALE, fast=False)
    assert fast_stats == reference.replay(traces["w91"], LS_DEFRAG).stats
