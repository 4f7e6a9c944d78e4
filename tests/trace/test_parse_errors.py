"""Malformed-input handling across all three parsers (error policies)."""

import pytest

from repro.trace.cloudphysics import parse_cloudphysics_lines
from repro.trace.csvio import read_csv_trace
from repro.trace.errors import ParseReport, TraceParseError
from repro.trace.msr import parse_msr_lines


def balanced(report) -> bool:
    """Every candidate record is accounted for exactly once."""
    return report.records == (
        report.accepted + report.skipped + report.quarantined + report.filtered
    )


# A dirty MSR dump: 4 good records and 5 broken ones of distinct kinds.
MSR_GOOD = [
    "128166372003061629,hm,1,Read,2048,4096,1221",
    "128166372013061629,hm,1,Write,512,512,900",
    "128166372023061629,hm,1,Read,0,4096,800",
    "128166372033061629,hm,1,Read,10240,1536,700",
]
MSR_BAD = [
    "1,2,3",                                        # too few fields
    "128166372,hm,1,Read,banana,4096,100",          # non-numeric offset
    "128166372,hm,1,Read,0,0,100",                  # zero size
    "128166372,hm,1,Read,0,-512,100",               # negative size
    "128166372043061629,hm,1,Wri",                  # truncated final line
]

CP_GOOD = ["100,R,0,8", "200,W,64,8", "300,R,64,8"]
CP_BAD = [
    "400,R,8",            # too few fields
    "xyz,R,0,8",          # non-numeric timestamp
    "500,R,0,0",          # zero length
    "600,R,0,-8",         # negative length
]


class TestStrictPolicy:
    @pytest.mark.parametrize("bad", MSR_BAD)
    def test_msr_raises_on_each_defect(self, bad):
        with pytest.raises(TraceParseError) as info:
            parse_msr_lines(MSR_GOOD + [bad], name="dirty")
        assert info.value.line_no == len(MSR_GOOD) + 1
        assert "dirty" in str(info.value)

    @pytest.mark.parametrize("bad", CP_BAD)
    def test_cloudphysics_raises_on_each_defect(self, bad):
        with pytest.raises(TraceParseError):
            parse_cloudphysics_lines(CP_GOOD + [bad])

    def test_strict_is_the_default(self):
        with pytest.raises(TraceParseError):
            parse_msr_lines(MSR_BAD[:1])

    def test_error_carries_raw_line(self):
        with pytest.raises(TraceParseError) as info:
            parse_msr_lines(["garbage,line"])
        assert info.value.line == "garbage,line"


class TestLenientPolicy:
    def test_msr_skips_and_accounts(self):
        lines = MSR_GOOD + MSR_BAD
        trace = parse_msr_lines(lines, policy="lenient")
        report = trace.parse_report
        assert len(trace) == len(MSR_GOOD)
        assert report.records == len(lines)
        assert report.accepted == len(MSR_GOOD)
        assert report.skipped == len(MSR_BAD)
        assert report.quarantined == 0
        assert balanced(report)
        assert (
            report.records
            == report.accepted + report.skipped + report.quarantined + report.filtered
        )

    def test_cloudphysics_skips_and_accounts(self):
        trace = parse_cloudphysics_lines(CP_GOOD + CP_BAD, policy="lenient")
        report = trace.parse_report
        assert len(trace) == len(CP_GOOD)
        assert report.skipped == len(CP_BAD)
        assert balanced(report)

    def test_error_samples_capture_reasons(self):
        trace = parse_msr_lines(MSR_BAD, policy="lenient")
        reasons = " ".join(issue.reason for issue in trace.parse_report.errors)
        assert "expected >=6" in reasons
        assert "size must be > 0" in reasons

    def test_error_samples_are_bounded(self):
        lines = ["1,2,3"] * 50
        trace = parse_msr_lines(lines, policy="lenient")
        report = trace.parse_report
        assert report.skipped == 50
        assert len(report.errors) == report.max_error_samples

    def test_heavily_corrupt_trace_parses(self):
        # >= 5% malformed (here 5/9) must not raise and must balance.
        lines = MSR_GOOD + MSR_BAD
        assert len(MSR_BAD) / len(lines) >= 0.05
        trace = parse_msr_lines(lines, policy="lenient")
        assert balanced(trace.parse_report)
        assert len(trace) == trace.parse_report.accepted

    def test_disk_filter_counts_as_filtered_not_error(self):
        lines = MSR_GOOD + ["128166372003061629,hm,9,Read,0,4096,1"]
        trace = parse_msr_lines(lines, disk_number=1, policy="lenient")
        report = trace.parse_report
        assert report.filtered == 1
        assert report.skipped == 0
        assert balanced(report)


class TestQuarantinePolicy:
    def test_quarantine_captures_raw_lines(self):
        lines = MSR_GOOD + MSR_BAD
        trace = parse_msr_lines(lines, policy="quarantine")
        report = trace.parse_report
        assert report.quarantined == len(MSR_BAD)
        assert report.skipped == 0
        assert [issue.line for issue in report.quarantine] == MSR_BAD
        assert balanced(report)

    def test_quarantined_lines_carry_line_numbers(self):
        trace = parse_cloudphysics_lines(CP_GOOD + CP_BAD, policy="quarantine")
        line_nos = [issue.line_no for issue in trace.parse_report.quarantine]
        assert line_nos == [4, 5, 6, 7]


class TestGeometryValidation:
    def test_msr_out_of_range_record(self):
        # Offset 1 MiB on a 1024-sector (512 KiB) disk.
        line = "1,hm,1,Read,1048576,4096,1"
        with pytest.raises(TraceParseError, match="exceeds disk capacity"):
            parse_msr_lines([line], capacity_sectors=1024)
        trace = parse_msr_lines([line], capacity_sectors=1024, policy="lenient")
        assert len(trace) == 0
        assert trace.parse_report.skipped == 1

    def test_cloudphysics_range_straddling_capacity(self):
        trace = parse_cloudphysics_lines(["1,R,1020,8"], capacity_sectors=1024, policy="lenient")
        assert trace.parse_report.skipped == 1

    def test_in_range_records_pass(self):
        trace = parse_cloudphysics_lines(["1,R,1016,8"], capacity_sectors=1024)
        assert len(trace) == 1


class TestCsvTraceReader:
    def _write(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,op,lba,length\n" + "\n".join(rows) + "\n")
        return path

    def test_strict_raises(self, tmp_path):
        path = self._write(tmp_path, ["0.0,R,0,8", "0.1,R,zero,8"])
        with pytest.raises(TraceParseError, match="bad trace row"):
            read_csv_trace(path)

    def test_lenient_report(self, tmp_path):
        path = self._write(tmp_path, ["0.0,R,0,8", "0.1,R,zero,8", "0.2,W,8,0", "0.3,W"])
        trace = read_csv_trace(path, policy="lenient")
        report = trace.parse_report
        assert len(trace) == 1
        assert report.records == 4
        assert report.skipped == 3
        assert balanced(report)

    def test_capacity_check(self, tmp_path):
        path = self._write(tmp_path, ["0.0,R,2000,8"])
        trace = read_csv_trace(path, policy="lenient", capacity_sectors=1024)
        assert len(trace) == 0
        assert trace.parse_report.skipped == 1


class TestSharedReport:
    def test_aggregate_report_across_files(self):
        report = ParseReport(name="combined", policy="lenient")
        parse_msr_lines(MSR_GOOD + MSR_BAD[:2], policy="lenient", report=report)
        parse_msr_lines(MSR_GOOD, policy="lenient", report=report)
        assert report.accepted == 2 * len(MSR_GOOD)
        assert report.skipped == 2
        assert balanced(report)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            parse_msr_lines(MSR_GOOD, policy="permissive")

    def test_synthetic_traces_have_no_report(self):
        from repro.trace.trace import Trace

        assert Trace([]).parse_report is None
