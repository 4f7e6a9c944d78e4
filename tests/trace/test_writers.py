"""External-format writer tests (round-trip through the parsers)."""

from repro.trace.cloudphysics import parse_cloudphysics_file
from repro.trace.csvio import write_csv_trace
from repro.trace.msr import parse_msr_file
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.trace.writers import write_cloudphysics_trace, write_msr_trace
from repro.workloads import synthesize_workload


def sample_trace():
    return Trace(
        [
            IORequest.write(0, 8, 0.0),
            IORequest.read(100, 16, 0.5),
            IORequest.write(8, 3, 1.25),  # odd sector count
        ],
        name="sample",
    )


class TestMsrWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_msr_trace(sample_trace(), path)
        loaded = parse_msr_file(path)
        assert len(loaded) == 3
        for a, b in zip(loaded, sample_trace()):
            assert (a.op, a.lba, a.length) == (b.op, b.lba, b.length)
            assert abs(a.timestamp - b.timestamp) < 1e-6

    def test_disk_number_filterable(self, tmp_path):
        path = tmp_path / "t.csv"
        write_msr_trace(sample_trace(), path, disk_number=3)
        assert len(parse_msr_file(path, disk_number=3)) == 3
        assert len(parse_msr_file(path, disk_number=0)) == 0

    def test_format_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        write_msr_trace(sample_trace(), path, hostname="srv")
        first = path.read_text().splitlines()[0].split(",")
        assert first[1] == "srv"
        assert first[3] == "Write"
        assert first[4] == "0" and first[5] == str(8 * 512)


class TestCloudPhysicsWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_cloudphysics_trace(sample_trace(), path)
        loaded = parse_cloudphysics_file(path)
        assert len(loaded) == 3
        for a, b in zip(loaded, sample_trace()):
            assert (a.op, a.lba, a.length) == (b.op, b.lba, b.length)
            assert abs(a.timestamp - b.timestamp) < 1e-5

    def test_header_present(self, tmp_path):
        path = tmp_path / "t.csv"
        write_cloudphysics_trace(sample_trace(), path)
        assert path.read_text().startswith("timestamp_us,op,lba,length\n")


class TestWritersReadColumns:
    """The three writers format from ``tolist()``-ed columns: the bytes the
    per-request loops wrote, and a columnar trace stays unmaterialised."""

    def test_bytes_equal_per_request_formatting(self, tmp_path, request_constructions):
        trace = synthesize_workload("w91", seed=5, scale=0.02)
        requests = list(synthesize_workload("w91", seed=5, scale=0.02))
        del request_constructions[:]

        write_msr_trace(trace, tmp_path / "msr.csv", hostname="srv", disk_number=2)
        write_cloudphysics_trace(trace, tmp_path / "cp.csv")
        write_csv_trace(trace, tmp_path / "native.csv")
        assert not request_constructions

        ticks = [128_166_372_000_000_000 + int(r.timestamp * 10_000_000) for r in requests]
        assert (tmp_path / "msr.csv").read_text() == "".join(
            f"{t},srv,2,{'Read' if r.is_read else 'Write'},{r.lba * 512},{r.length * 512},0\n"
            for t, r in zip(ticks, requests)
        )
        assert (tmp_path / "cp.csv").read_text() == "timestamp_us,op,lba,length\n" + "".join(
            f"{r.timestamp * 1e6:.0f},{r.op.value},{r.lba},{r.length}\n" for r in requests
        )
        assert (tmp_path / "native.csv").read_bytes() == b"timestamp,op,lba,length\r\n" + "".join(
            f"{r.timestamp:.6f},{r.op.value},{r.lba},{r.length}\r\n" for r in requests
        ).encode()
