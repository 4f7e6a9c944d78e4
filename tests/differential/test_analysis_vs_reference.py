"""Differential oracle: vectorized analysis kernels vs. the reference code.

Every stateless trace-level analysis with a fast path in
:mod:`repro.analysis.fast` must agree *exactly* — identical floats, not
approximately — with the plain-Python reference it shortcuts: the
empirical CDFs are Python ``int / int`` divisions in both, the NoLS
windowed seek counts come from the same seek definition, and the
popularity curve preserves the reference sort's tie ordering.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import fast
from repro.analysis.distances import distance_cdf, fraction_within
from repro.analysis.fast import (distance_cdf_fast, fraction_of_fragments_in_top_reads_fast,
                                 fraction_within_fast, fragment_cdf_fast, misorder_rate_fast,
                                 nols_seek_distances, nols_windowed_long_seeks,
                                 popularity_curve_fast)
from repro.analysis.fragmentation import fragment_cdf, fraction_of_fragments_in_top_reads
from repro.analysis.misorder import misorder_rate
from repro.analysis.popularity import FragmentPopularityRecorder
from repro.analysis.temporal import WindowedSeekRecorder
from repro.core.config import LS_ALL, NOLS, build_translator
from repro.core.recorders import SeekLogRecorder
from repro.core.simulator import replay
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.workloads import synthesize_workload

WORKLOADS = ("usr_0", "hm_1", "w84")
SCALE = 0.02


@pytest.fixture(scope="module")
def traces():
    return {name: synthesize_workload(name, seed=42, scale=SCALE) for name in WORKLOADS}


hypothesis_traces = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=5_000_000),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=60,
).map(
    lambda triples: Trace(
        [
            IORequest(float(i), OpType.READ if r else OpType.WRITE, lba, length)
            for i, (r, lba, length) in enumerate(triples)
        ]
    )
)

fragment_lists = st.lists(st.integers(min_value=0, max_value=40), max_size=80)
distance_lists = st.lists(
    st.integers(min_value=-(10**8), max_value=10**8), max_size=80
)


# --- fragmentation (Fig. 5) ----------------------------------------------


@given(fragments=fragment_lists)
@settings(max_examples=200, deadline=None)
def test_fragment_cdf_exact(fragments):
    assert fragment_cdf_fast(fragments) == fragment_cdf(fragments)


@given(
    fragments=fragment_lists,
    top_fraction=st.sampled_from([0.01, 0.2, 0.5, 0.999, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_top_reads_share_exact(fragments, top_fraction):
    # The kernel's share is a constant; patched here to walk other ranks.
    with mock.patch.object(fast, "TOP_READS_FRACTION", top_fraction):
        got = fraction_of_fragments_in_top_reads_fast(fragments)
    assert got == fraction_of_fragments_in_top_reads(fragments, top_fraction)


# --- distances (Fig. 4) --------------------------------------------------


@given(distances=distance_lists, window_gib=st.sampled_from([0.01, 0.5, 2.0]))
@settings(max_examples=200, deadline=None)
def test_distance_cdf_exact(distances, window_gib):
    assert distance_cdf_fast(distances, window_gib) == distance_cdf(
        distances, window_gib
    )


@given(distances=distance_lists, window_gib=st.sampled_from([0.01, 0.5, 2.0]))
@settings(max_examples=200, deadline=None)
def test_fraction_within_exact(distances, window_gib):
    assert fraction_within_fast(distances, window_gib) == fraction_within(
        distances, window_gib
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_distance_cdf_on_replayed_distances(traces, workload):
    recorder = SeekLogRecorder()
    trace = traces[workload]
    replay(trace, build_translator(trace, NOLS), [recorder])
    assert list(nols_seek_distances(trace)) == recorder.distances
    assert distance_cdf_fast(recorder.distances) == distance_cdf(recorder.distances)
    assert fraction_within_fast(recorder.distances, 0.25) == fraction_within(
        recorder.distances, 0.25
    )


# --- temporal windows (Fig. 3) -------------------------------------------


def _windowed_reference(trace, window_ops, min_seek_kib):
    recorder = WindowedSeekRecorder(window_ops=window_ops, min_seek_kib=min_seek_kib)
    replay(trace, build_translator(trace, NOLS), [recorder])
    return recorder.series()


@given(
    trace=hypothesis_traces,
    window_ops=st.sampled_from([1, 3, 7, 1000]),
    min_seek_kib=st.sampled_from([0.0, 4.0, 500.0]),
)
@settings(max_examples=150, deadline=None)
def test_windowed_long_seeks_exact(trace, window_ops, min_seek_kib):
    # The threshold is a constant; patched so tiny traces seek past it.
    with mock.patch.object(fast, "LONG_SEEK_KIB", min_seek_kib):
        got = nols_windowed_long_seeks(trace, window_ops=window_ops)
    assert got == _windowed_reference(trace, window_ops, min_seek_kib)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_windowed_long_seeks_on_archetype(traces, workload):
    trace = traces[workload]
    assert nols_windowed_long_seeks(trace) == _windowed_reference(trace, 1000, 500.0)


def test_windowed_validation_matches_recorder():
    with pytest.raises(ValueError):
        nols_windowed_long_seeks(Trace([]), window_ops=0)
    with pytest.raises(ValueError):
        WindowedSeekRecorder(window_ops=0)


# --- popularity curve (Fig. 10) ------------------------------------------


def _share_reference(curve, share):
    # The original pre-vectorization walk: running zip until the target.
    total = sum(curve.access_counts)
    if total == 0:
        return 0.0
    target = share * total
    running = 0
    for count, mib in zip(curve.access_counts, curve.cumulative_mib):
        running += count
        if running >= target:
            return mib
    return curve.cumulative_mib[-1] if curve.cumulative_mib else 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_popularity_curve_exact(traces, workload):
    recorder = FragmentPopularityRecorder()
    trace = traces[workload]
    replay(trace, build_translator(trace, LS_ALL), [recorder])
    reference = recorder.curve()
    fast = popularity_curve_fast(recorder.fragment_stats())
    assert fast.access_counts == reference.access_counts
    assert fast.cumulative_mib == reference.cumulative_mib
    for share in (0.1, 0.5, 0.9, 0.999, 1.0):
        assert fast.cache_mib_for_access_share(share) == _share_reference(
            reference, share
        )


@given(
    stats=st.lists(
        st.tuples(st.integers(1, 50), st.integers(1, 10_000)), max_size=60
    ),
    share=st.sampled_from([0.01, 0.5, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_popularity_share_lookup_exact(stats, share):
    curve = popularity_curve_fast(stats)
    assert curve.cache_mib_for_access_share(share) == _share_reference(curve, share)


def test_empty_popularity_curve():
    curve = popularity_curve_fast([])
    assert curve.access_counts == [] and curve.cumulative_mib == []
    assert curve.total_accesses == 0
    assert curve.cache_mib_for_access_share(0.5) == 0.0


# --- misorder (Fig. 8) ---------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_misorder_rate_exact_on_archetypes(traces, workload):
    trace = traces[workload]
    assert misorder_rate_fast(trace) == misorder_rate(trace)
