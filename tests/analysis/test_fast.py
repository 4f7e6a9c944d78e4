"""Vectorized fast-path tests: exact agreement with the reference code."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fast import misorder_rate_fast, nols_seek_counts, nols_seek_distances
from repro.analysis.incremental import IncrementalNolsBaseline
from repro.analysis.misorder import misorder_rate
from repro.core.config import NOLS, build_translator
from repro.core.recorders import SeekLogRecorder
from repro.core.simulator import replay
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace
from repro.workloads import synthesize_workload

traces = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=64),
    ),
    max_size=60,
).map(
    lambda triples: Trace(
        [
            IORequest(
                float(i), OpType.READ if is_read else OpType.WRITE, lba, length
            )
            for i, (is_read, lba, length) in enumerate(triples)
        ]
    )
)


class TestSeekCounts:
    def test_empty(self):
        assert nols_seek_counts(Trace([])) == (0, 0)

    def test_single_op(self):
        assert nols_seek_counts(Trace([IORequest.read(0, 8)])) == (0, 0)

    @given(trace=traces)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_replay(self, trace):
        stats = replay(trace, build_translator(trace, NOLS)).stats
        read_seeks, write_seeks = nols_seek_counts(trace)
        assert (read_seeks, write_seeks) == (stats.read_seeks, stats.write_seeks)

    def test_on_archetype(self):
        trace = synthesize_workload("ts_0", seed=3, scale=0.1)
        stats = replay(trace, build_translator(trace, NOLS)).stats
        assert nols_seek_counts(trace) == (stats.read_seeks, stats.write_seeks)
        # The streaming baseline a session keeps equals the one-shot count,
        # however the stream is cut, an empty last batch included.
        baseline = IncrementalNolsBaseline()
        columns = trace.as_arrays()
        assert len(trace) % 997
        for cut in range(0, len(trace) + 997, 997):
            baseline.feed_arrays(*(column[cut:cut + 997] for column in columns))
        assert baseline.counts() == nols_seek_counts(trace)


class TestSeekDistances:
    @given(trace=traces)
    @settings(max_examples=100, deadline=None)
    def test_matches_seek_log(self, trace):
        recorder = SeekLogRecorder()
        replay(trace, build_translator(trace, NOLS), [recorder])
        assert list(nols_seek_distances(trace)) == recorder.distances

    def test_short_traces(self):
        assert nols_seek_distances(Trace([])).size == 0
        assert nols_seek_distances(Trace([IORequest.read(0, 1)])).size == 0


class TestMisorderFast:
    @given(trace=traces)
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, trace):
        assert misorder_rate_fast(trace) == pytest.approx(misorder_rate(trace))

    def test_on_archetype(self):
        trace = synthesize_workload("src2_2", seed=42, scale=0.2)
        assert misorder_rate_fast(trace) == pytest.approx(misorder_rate(trace))


class TestTraceArrays:
    def test_shapes_and_values(self, tiny_trace):
        is_read, lba, length = tiny_trace.as_arrays()
        assert len(is_read) == len(tiny_trace)
        assert lba[0] == 0 and length[0] == 8
        assert not is_read[0] and is_read[2]
