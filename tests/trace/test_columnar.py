"""ColumnarTrace semantics: laziness, views, and read-only columns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.columnar import ColumnarTrace, TraceColumns, parse_csv_text
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace

CSV = "\n".join(
    f"{i * 0.001},{'read' if i % 2 else 'write'},{i * 8},{4 + i % 8}"
    for i in range(20)
)


@pytest.fixture
def columnar():
    trace = parse_csv_text(CSV, name="cols")
    assert isinstance(trace, ColumnarTrace)
    return trace


@pytest.fixture
def reference():
    return Trace(
        [
            IORequest(
                i * 0.001,
                OpType.READ if i % 2 else OpType.WRITE,
                i * 8,
                4 + i % 8,
            )
            for i in range(20)
        ],
        name="cols",
    )


class TestLaziness:
    def test_vectorized_consumers_never_materialize(self, columnar, reference):
        assert columnar._materialized is None
        assert len(columnar) == len(reference)
        assert columnar.read_count == reference.read_count
        assert columnar.write_count == reference.write_count
        assert columnar.max_end == reference.max_end
        is_read, lba, length = columnar.as_arrays()
        ref_read, ref_lba, ref_length = reference.as_arrays()
        assert np.array_equal(is_read, ref_read)
        assert np.array_equal(lba, ref_lba)
        assert np.array_equal(length, ref_length)
        assert np.array_equal(columnar.timestamps(), reference.timestamps())
        assert columnar._materialized is None

    def test_scalar_indexing_stays_lazy(self, columnar, reference):
        assert columnar[3] == reference[3]
        assert columnar[-1] == reference[-1]
        assert columnar._materialized is None

    def test_iteration_materializes_reference_requests(self, columnar, reference):
        assert list(columnar) == list(reference)
        assert columnar._materialized is not None
        assert columnar.requests == reference.requests


class TestViews:
    def test_slicing_returns_columnar(self, columnar, reference):
        sliced = columnar[5:15]
        assert isinstance(sliced, ColumnarTrace)
        assert list(sliced) == list(reference[5:15])


    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            TraceColumns(
                np.zeros(2), np.zeros(3, bool), np.zeros(2, np.int64),
                np.zeros(2, np.int64),
            )


class TestReadOnlyArrays:
    """Regression: the cached columns are shared views — a consumer
    scribbling on them would corrupt every later analysis."""

    @pytest.mark.parametrize("kind", ["reference", "columnar"])
    def test_as_arrays_mutation_raises(self, kind, columnar, reference):
        trace = columnar if kind == "columnar" else reference
        for array in trace.as_arrays():
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("kind", ["reference", "columnar"])
    def test_timestamps_mutation_raises(self, kind, columnar, reference):
        trace = columnar if kind == "columnar" else reference
        with pytest.raises(ValueError):
            trace.timestamps()[0] = 99.0

    def test_trace_columns_are_read_only(self, columnar):
        cols = columnar.columns
        for array in (cols.timestamp, cols.is_read, cols.lba, cols.length):
            with pytest.raises(ValueError):
                array[0] = 1
