"""One trace, two constructors: ``Trace(requests)`` and ``Trace.from_columns``
over the same ops agree on every accessor, and the column-built one makes
no ``IORequest`` until something iterates it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.columnar import parse_csv_text
from repro.trace.record import IORequest, OpType
from repro.trace.trace import Trace, TraceColumns

OPS = [(i * 0.001, i % 2 == 1, i * 8, 4 + i % 8) for i in range(20)]


@pytest.fixture
def columnar():
    """``Trace.from_columns``, by way of the bulk parser."""
    return parse_csv_text(
        "\n".join(f"{t},{'read' if r else 'write'},{a},{n}" for t, r, a, n in OPS),
        name="cols",
    )


@pytest.fixture
def reference():
    return Trace(
        [IORequest(t, OpType.READ if r else OpType.WRITE, a, n) for t, r, a, n in OPS],
        name="cols",
    )


class TestLaziness:
    def test_vectorized_consumers_never_materialize(
        self, columnar, reference, request_constructions
    ):
        assert len(columnar) == len(reference)
        assert columnar.read_count == reference.read_count
        assert columnar.write_count == reference.write_count
        assert columnar.max_end == reference.max_end
        assert columnar.content_key() == reference.content_key()
        for got, want in zip(columnar.as_arrays(), reference.as_arrays()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(columnar.timestamps(), reference.timestamps())
        assert not request_constructions

    def test_scalar_indexing_stays_lazy(self, columnar, reference, request_constructions):
        assert columnar[3] == reference.requests[3]
        assert columnar[-1] == reference.requests[-1]
        assert len(request_constructions) == 2  # the two returned, no list

    def test_iteration_materializes_reference_requests(
        self, columnar, reference, request_constructions
    ):
        assert list(columnar) == list(reference)
        assert len(request_constructions) == len(OPS)
        assert columnar.requests == reference.requests
        assert len(request_constructions) == len(OPS)  # built once


class TestViews:
    def test_slicing_returns_columnar(self, columnar, reference, request_constructions):
        sliced, want = columnar[5:15], reference[5:15]
        assert sliced.content_key() == want.content_key()
        assert not request_constructions
        assert list(sliced) == list(want) == reference.requests[5:15]

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            TraceColumns(
                np.zeros(2), np.zeros(3, bool), np.zeros(2, np.int64),
                np.zeros(2, np.int64),
            )


class TestReadOnlyArrays:
    """Regression: the columns are shared views — a consumer scribbling on
    them would corrupt every later analysis."""

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

    def test_trace_columns_are_read_only(self, columnar, reference):
        for cols in (columnar.columns, reference.columns):
            for array in (cols.timestamp, cols.is_read, cols.lba, cols.length):
                with pytest.raises(ValueError):
                    array[0] = 1
