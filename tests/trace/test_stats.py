"""Trace statistics (Table I columns) tests."""

from repro.trace.record import IORequest
from repro.trace.stats import compute_stats
from repro.trace.trace import Trace
from repro.util.units import gib_to_sectors


class TestComputeStats:
    def test_counts_and_volumes(self, tiny_trace):
        stats = compute_stats(tiny_trace)
        assert stats.read_count == 3
        assert stats.write_count == 3
        assert stats.read_sectors == 8 + 24 + 8
        assert stats.written_sectors == 8 + 8 + 4

    def test_mean_write_size(self):
        trace = Trace([IORequest.write(0, 2), IORequest.write(8, 4)])
        stats = compute_stats(trace)
        assert stats.mean_write_size_kib == (6 * 512 / 1024) / 2

    def test_read_fraction(self, tiny_trace):
        assert compute_stats(tiny_trace).read_fraction == 0.5

    def test_read_fraction_empty(self):
        assert compute_stats(Trace([])).read_fraction == 0.0

    def test_volume_gib(self):
        trace = Trace([IORequest.read(0, gib_to_sectors(2))])
        assert abs(compute_stats(trace).read_volume_gib - 2.0) < 1e-9

    def test_duration(self, tiny_trace):
        assert abs(compute_stats(tiny_trace).duration_s - 0.005) < 1e-9

    def test_max_end(self, tiny_trace):
        assert compute_stats(tiny_trace).max_end == 24

    def test_op_count(self, tiny_trace):
        assert compute_stats(tiny_trace).op_count == 6
