"""Stream-derived analysis kernels vs. the reference recorders.

:func:`~repro.core.stream.stream_windowed_long_seeks` and
:func:`~repro.core.stream.stream_fragment_stats` let fig3/fig10-class
exhibits reuse one recorded plain-LS stream instead of replaying with
recorders attached.  They are only admissible if they agree *exactly*
with :class:`~repro.analysis.temporal.WindowedSeekRecorder` and
:class:`~repro.analysis.popularity.FragmentPopularityRecorder` on the
same replay — these tests are that proof.
"""

from __future__ import annotations

import pytest

from repro.analysis import fast
from repro.analysis.popularity import FragmentPopularityRecorder
from repro.analysis.temporal import WindowedSeekRecorder
from repro.core.config import LS, build_translator
from repro.core.simulator import replay
from repro.core.stream import (record_fragment_stream, stream_fragment_stats,
                               stream_windowed_long_seeks)
from repro.workloads import synthesize_workload

SEED, SCALE = 42, 0.03
WORKLOADS = ("hm_1", "w84", "src2_2")


@pytest.fixture(scope="module", params=WORKLOADS)
def pair(request):
    trace = synthesize_workload(request.param, seed=SEED, scale=SCALE)
    return trace, record_fragment_stream(trace)


@pytest.mark.parametrize("window_ops,min_seek_kib", [(1000, 500.0), (500, 500.0), (250, 100.0)])
def test_windowed_long_seeks_match_recorder(pair, window_ops, min_seek_kib, monkeypatch):
    trace, stream = pair
    recorder = WindowedSeekRecorder(window_ops=window_ops, min_seek_kib=min_seek_kib)
    replay(trace, build_translator(trace, LS), [recorder])
    monkeypatch.setattr(fast, "LONG_SEEK_KIB", min_seek_kib)  # the kernel's threshold
    assert stream_windowed_long_seeks(stream, window_ops) == recorder.series()


def test_fragment_stats_match_recorder(pair):
    trace, stream = pair
    recorder = FragmentPopularityRecorder()
    replay(trace, build_translator(trace, LS), [recorder])
    assert stream_fragment_stats(stream) == recorder.fragment_stats()


def test_fragment_stats_preserve_curve(pair):
    """The popularity curve built from stream stats is the recorder's."""
    from repro.analysis.fast import popularity_curve_fast

    trace, stream = pair
    recorder = FragmentPopularityRecorder()
    replay(trace, build_translator(trace, LS), [recorder])
    want = recorder.curve()
    got = popularity_curve_fast(stream_fragment_stats(stream))
    assert got.access_counts == want.access_counts
    assert got.cumulative_mib == want.cumulative_mib
