"""Trace sampling/windowing tests."""

import pytest

from repro.trace.columnar import ColumnarTrace, TraceColumns
from repro.trace.sampling import (
    head_sample,
    op_index_buckets,
    op_window,
    split_by_op,
    stride_sample,
    time_window,
)


class TestHeadSample:
    def test_takes_prefix(self, tiny_trace):
        assert [r.lba for r in head_sample(tiny_trace, 2)] == [0, 16]

    def test_longer_than_trace(self, tiny_trace):
        assert len(head_sample(tiny_trace, 100)) == 6

    def test_negative_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            head_sample(tiny_trace, -1)


class TestStrideSample:
    def test_stride_two(self, tiny_trace):
        assert len(stride_sample(tiny_trace, 2)) == 3

    def test_stride_one_identity(self, tiny_trace):
        assert len(stride_sample(tiny_trace, 1)) == 6

    def test_invalid_stride(self, tiny_trace):
        with pytest.raises(ValueError):
            stride_sample(tiny_trace, 0)


class TestWindows:
    def test_op_window(self, tiny_trace):
        window = op_window(tiny_trace, 1, 3)
        assert [r.lba for r in window] == [16, 0]

    def test_op_window_invalid(self, tiny_trace):
        with pytest.raises(ValueError):
            op_window(tiny_trace, 3, 1)

    def test_time_window(self, tiny_trace):
        window = time_window(tiny_trace, 0.002, 0.004)
        assert len(window) == 2

    def test_time_window_invalid(self, tiny_trace):
        with pytest.raises(ValueError):
            time_window(tiny_trace, 1.0, 0.0)


class TestSplitAndBuckets:
    def test_split_by_op(self, tiny_trace):
        reads, writes = split_by_op(tiny_trace)
        assert len(reads) == 3 and all(r.is_read for r in reads)
        assert len(writes) == 3 and all(w.is_write for w in writes)

    def test_buckets_cover_trace(self, tiny_trace):
        buckets = op_index_buckets(tiny_trace, 4)
        assert [len(b) for b in buckets] == [4, 2]

    def test_bucket_size_one(self, tiny_trace):
        assert len(op_index_buckets(tiny_trace, 1)) == 6

    def test_invalid_bucket(self, tiny_trace):
        with pytest.raises(ValueError):
            op_index_buckets(tiny_trace, 0)


class TestColumnarStaysColumnar:
    def test_slicing_samplers_keep_a_columnar_trace_columnar(self, tiny_trace):
        columnar = ColumnarTrace(TraceColumns.from_trace(tiny_trace), name="tiny")
        for sample, reference in (
            (head_sample(columnar, 4), head_sample(tiny_trace, 4)),
            (stride_sample(columnar, 2), stride_sample(tiny_trace, 2)),
            (op_window(columnar, 1, 5), op_window(tiny_trace, 1, 5)),
        ):
            assert isinstance(sample, ColumnarTrace) and not sample.materialized
            assert not columnar.materialized
            assert sample.name == reference.name
            assert list(sample) == list(reference)
