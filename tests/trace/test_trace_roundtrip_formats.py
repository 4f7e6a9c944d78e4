"""Cross-format integration: synthetic traces through every parser path."""

from repro.trace.cloudphysics import parse_cloudphysics_lines
from repro.trace.csvio import read_csv_trace, write_csv_trace
from repro.trace.msr import parse_msr_lines
from repro.trace.stats import compute_stats
from repro.workloads import synthesize_workload


def to_msr_lines(trace):
    """Render a trace in MSR CSV form (bytes, FILETIME ticks)."""
    lines = []
    for request in trace:
        ticks = int(request.timestamp * 10_000_000) + 128_166_372_000_000_000
        op = "Read" if request.is_read else "Write"
        lines.append(f"{ticks},host,0,{op},{request.lba * 512},{request.length * 512},100")
    return lines


def to_cloudphysics_lines(trace):
    """Render a trace in CloudPhysics CSV form (microseconds, sectors)."""
    lines = ["timestamp_us,op,lba,length"]
    for request in trace:
        lines.append(
            f"{request.timestamp * 1e6:.0f},{request.op.value},"
            f"{request.lba},{request.length}"
        )
    return lines


class TestFormatRoundTrips:
    def setup_method(self):
        self.trace = synthesize_workload("ts_0", seed=5, scale=0.02)

    def assert_equivalent(self, other):
        ours = compute_stats(self.trace)
        theirs = compute_stats(other)
        assert ours.read_count == theirs.read_count
        assert ours.write_count == theirs.write_count
        assert ours.read_sectors == theirs.read_sectors
        assert ours.written_sectors == theirs.written_sectors
        for a, b in zip(self.trace, other):
            assert (a.op, a.lba, a.length) == (b.op, b.lba, b.length)

    def test_msr_round_trip(self):
        self.assert_equivalent(parse_msr_lines(to_msr_lines(self.trace)))

    def test_cloudphysics_round_trip(self):
        self.assert_equivalent(parse_cloudphysics_lines(to_cloudphysics_lines(self.trace)))

    def test_native_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_trace(self.trace, path)
        self.assert_equivalent(read_csv_trace(path))
