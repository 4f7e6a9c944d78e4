"""``characterize`` and ``compute_stats`` are column kernels: they equal
the per-request loops field for field, and the whole path from the seed to
them builds no ``IORequest``."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.classify import characterize
from repro.experiments import ablations, fig7, table1
from repro.experiments.sweep import SweepEngine
from repro.trace.trace import Trace, TraceColumns
from repro.trace.stats import compute_stats
from repro.trace.store import TraceStore, synthetic_meta
from repro.workloads import synthesize_workload
from tests.analysis.request_loops import characterize_loop, compute_stats_loop

# Unaligned LBAs and lengths over a few dozen blocks so overwrites, reads of
# half-written ranges and repeats of one block are all common; two far bases
# keep the block ids sparse (compression, not an O(max LBA) table).
BASES = st.sampled_from([0, 3, (1 << 40) - 40])
OPS = st.lists(
    st.tuples(
        st.booleans(),
        BASES,
        st.integers(0, 200),
        st.integers(1, 70),
        st.floats(0, 1e6, allow_nan=False),
    ),
    max_size=40,
)


def trace_of(ops) -> Trace:
    columns = TraceColumns(
        [t for *_, t in ops],
        [r for r, *_ in ops],
        [base + offset for _, base, offset, _, _ in ops],
        [length for *_, length, _ in ops],
    )
    return Trace.from_columns(columns, name="generated")


def assert_kernels_equal_loops(trace):
    assert characterize(trace) == characterize_loop(trace)
    assert compute_stats(trace) == compute_stats_loop(trace)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_kernels_equal_request_loops(ops):
    assert_kernels_equal_loops(trace_of(ops))


R, W = True, False


@pytest.mark.parametrize(
    "ops",
    [
        [],
        [(R, 0, 5, 9, 0.0), (R, 0, 14, 3, 1.0), (R, 0, 14, 3, 2.0)],  # read-only
        [(W, 3, 0, 70, 0.5), (W, 3, 8, 1, 0.25)],  # write-only
        [(W, 0, 9, 2, 0.0)] * 5,  # one block, overwritten repeatedly
        # a read straddling written and unwritten blocks, then fully written
        [(W, 0, 16, 8, 0.0), (R, 0, 12, 16, 1.0), (R, 0, 17, 3, 2.0)],
        # the same block written after the read that saw it unwritten
        [(R, 0, 0, 16, 0.0), (W, 0, 8, 8, 1.0), (R, 0, 0, 16, 2.0)],
        [(W, (1 << 40) - 40, 1, 69, 0.0), (R, (1 << 40) - 40, 0, 70, 9.0)],
        # overlapping writes cut each other and the reads into several cells
        [(W, 0, 0, 40, 0.0), (W, 0, 20, 40, 1.0), (R, 0, 10, 60, 2.0),
         (W, 0, 5, 10, 3.0), (R, 0, 0, 80, 4.0), (R, 0, 22, 30, 5.0)],
        # a read over two writes, the gap between them and past the last
        [(W, 0, 0, 8, 0.0), (W, 0, 32, 8, 1.0), (R, 0, 0, 48, 2.0), (R, 0, 33, 5, 3.0)],
        # every cell written before the read, by different writes
        [(W, 0, 0, 24, 0.0), (W, 0, 8, 8, 1.0), (R, 0, 3, 18, 2.0)],
    ],
    ids=["empty", "read-only", "write-only", "one-block", "straddle",
         "write-after-read", "near-2**40", "overlapping-writes", "gap-and-tail",
         "all-written-before"],
)
@pytest.mark.parametrize("shift", [2, 1 << 18])  # unaligned, and a far aligned base
def test_named_cases(ops, shift):
    shifted = [(r, base + shift, offset, n, t) for r, base, offset, n, t in ops]
    assert_kernels_equal_loops(trace_of(shifted))


def test_straddling_read_is_mixed_and_overwrite_counts_whole_blocks():
    trace = trace_of([(W, 0, 16, 8, 0.0), (R, 0, 12, 16, 1.0), (W, 0, 17, 2, 2.0)])
    character = characterize(trace)
    assert character.mixed_read_share == 1.0
    assert character.overwrite_ratio == 8 / 10


def test_no_request_object_between_the_seed_and_the_kernels(
    request_constructions, tmp_path
):
    trace = synthesize_workload("w91", seed=3, scale=0.05)
    TraceStore(tmp_path).store(trace, synthetic_meta("w91", 3, 0.05))
    compute_stats(trace)
    characterize(trace)
    assert not request_constructions
    trace.requests  # the counter does see a materialisation
    assert len(request_constructions) == len(trace)


def test_fast_exhibits_leave_every_cached_trace_columnar(request_constructions):
    engine, served = SweepEngine(42, 0.05), {}
    trace = engine.trace

    def serving(name):
        served[name] = trace(name)
        return served[name]

    engine.trace = serving
    with contextlib.redirect_stdout(io.StringIO()):
        for run in (table1.run, ablations.run_taxonomy, fig7.run):
            run(engine)
    assert len(served) == 21
    assert not request_constructions
