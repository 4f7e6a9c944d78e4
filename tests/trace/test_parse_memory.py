"""Tripwire: parsing a trace file holds the columns, not the file.

The block driver (:mod:`repro.trace.columnar`) reduces each block of the
file to its slice of the four columns before it reads the next, so what a
parse allocates is bounded by what it returns plus a few blocks — and with
``max_ops`` fixed it does not depend on the length of the file at all.
``tracemalloc`` sees every Python and numpy allocation, with no timing
involved; a parser that builds the text, a line list or an op-token table
for the whole file peaks at many times the bound.
"""

import tracemalloc

import pytest

from repro.trace import columnar
from repro.trace.cloudphysics import parse_cloudphysics_file
from repro.trace.csvio import read_csv_trace, write_csv_trace
from repro.trace.msr import parse_msr_file
from repro.trace.writers import write_cloudphysics_trace, write_msr_trace
from repro.workloads import get_spec, synthesize_workload

LINES = 200_000
FORMATS = {
    "msr": (write_msr_trace, parse_msr_file),
    "cloudphysics": (write_cloudphysics_trace, parse_cloudphysics_file),
    "csv": (write_csv_trace, read_csv_trace),
}


def parse_peak(parse, path, **kwargs):
    """``(bytes allocated at the peak of parse(path), the trace)``."""
    tracemalloc.start()
    try:
        trace = parse(path, **kwargs)
        return tracemalloc.get_traced_memory()[1], trace
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def trace():
    return synthesize_workload("hm_1", seed=42, scale=LINES / get_spec("hm_1").total_ops)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_parse_peak_is_bounded_by_the_columns(fmt, trace, tmp_path):
    write, parse = FORMATS[fmt]
    path = tmp_path / "hm_1.csv"
    write(trace, path)
    peak, parsed = parse_peak(parse, path)
    assert len(parsed) == LINES
    columns = sum(column.nbytes for column in (parsed.timestamps(), *parsed.as_arrays()))
    assert path.stat().st_size > 4 * columnar._BLOCK_CHARS  # several blocks' worth
    assert peak <= 3 * columns + 4 * columnar._BLOCK_CHARS

    if fmt == "csv":
        return  # no max_ops to stop at
    # Twice the file, the same max_ops: the second half is never read.
    peak, parsed = parse_peak(parse, path, max_ops=LINES // 4)
    path.write_bytes(path.read_bytes() * 2)
    doubled_peak, doubled = parse_peak(parse, path, max_ops=LINES // 4)
    assert len(parsed) == len(doubled) == LINES // 4
    assert abs(doubled_peak - peak) <= columnar._BLOCK_CHARS // 4
