"""Differential oracle: the columnar bulk parsers vs. the per-line reference.

Same contract as ``test_batch_vs_reference``: the bulk parsers in
:mod:`repro.trace.columnar` are only allowed to exist because they are
*exactly* equivalent to the per-line parsers — same requests (timestamps
included), same :class:`ParseReport` accounting down to the error samples
and quarantined raw lines, same ``strict`` exceptions.  These tests
enforce that on

* generated Table I workloads round-tripped through every format writer,
* the parse options (``max_ops``, ``disk_number``, ``capacity_sectors``),
* dirty inputs under every error policy,
* hypothesis-generated line soup that hits the wholesale-fallback path, and
* all of those again as *files* read in 16- and 64-character blocks, so a
  block boundary falls at every position of every shape.
"""

from __future__ import annotations

import contextlib
import io
import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trace import cloudphysics, msr
from repro.trace import columnar as columnar_module
from repro.trace.cloudphysics import parse_cloudphysics_file, parse_cloudphysics_lines
from repro.trace.columnar import parse_cloudphysics_text, parse_csv_text, parse_msr_text
from repro.trace.csvio import read_csv_rows, read_csv_trace, write_csv_trace
from repro.trace.errors import TraceParseError, make_report
from repro.trace.msr import parse_msr_file, parse_msr_lines
from repro.trace.writers import write_cloudphysics_trace, write_msr_trace
from repro.workloads import synthesize_workload

WORKLOADS = ("usr_0", "hm_1", "w84")
SCALE = 0.02


@pytest.fixture(scope="module")
def traces():
    return {name: synthesize_workload(name, seed=42, scale=SCALE) for name in WORKLOADS}


def _report_tuple(report):
    issues = lambda lst: [(i.line_no, i.reason, i.line) for i in lst]
    return (
        report.name,
        report.policy,
        report.records,
        report.accepted,
        report.skipped,
        report.quarantined,
        report.filtered,
        issues(report.errors),
        issues(report.quarantine),
    )


def assert_parses_match(columnar, reference):
    assert list(columnar) == list(reference)
    assert columnar.name == reference.name
    assert _report_tuple(columnar.parse_report) == _report_tuple(
        reference.parse_report
    )
    report = columnar.parse_report
    assert report.records == (
        report.accepted + report.skipped + report.quarantined + report.filtered
    )


def _csv_reference(text, name="trace", policy="strict", capacity_sectors=None):
    return read_csv_rows(
        csv.reader(io.StringIO(text)),
        trace_name=name,
        policy=policy,
        capacity_sectors=capacity_sectors,
        report=make_report(None, name, policy),
    )


@contextlib.contextmanager
def block_chars(chars):
    """Shrink the driver's block so that a few lines already span several."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar_module, "_BLOCK_CHARS", chars)
        yield


def assert_file_parses_match(path, data, parse, **kwargs):
    """``data`` as a file: the columnar engine, cutting it into 16- and
    64-character blocks, does what the reference engine does — the same
    trace and report, or the same error."""
    path.write_bytes(data)

    def outcome(engine):
        try:
            return parse(path, engine=engine, **kwargs)
        except (TraceParseError, UnicodeDecodeError) as exc:
            return exc

    reference = outcome("reference")
    for chars in (16, 64):
        with block_chars(chars):
            columnar = outcome("columnar")
        if isinstance(reference, Exception):
            assert type(columnar) is type(reference)
            if isinstance(reference, TraceParseError):
                assert str(columnar) == str(reference)
                assert columnar.line == reference.line
        else:
            assert_parses_match(columnar, reference)


@pytest.fixture(scope="module")
def soup_file(tmp_path_factory):
    """One path the generated examples overwrite (function-scoped fixtures
    are not reset between hypothesis examples)."""
    return tmp_path_factory.mktemp("soup") / "s.csv"


# --- Table I workloads through every format writer -----------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_msr_file_round_trip(traces, workload, tmp_path, per_line_calls, request_constructions):
    path = tmp_path / f"{workload}.csv"
    write_msr_trace(traces[workload], path)
    columnar = parse_msr_file(path)
    assert not per_line_calls  # the bulk path served it
    assert not request_constructions  # and built no per-op object
    reference = parse_msr_file(path, engine="reference")
    assert_parses_match(columnar, reference)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cloudphysics_file_round_trip(traces, workload, tmp_path):
    path = tmp_path / f"{workload}.csv"
    write_cloudphysics_trace(traces[workload], path)
    assert_parses_match(
        parse_cloudphysics_file(path),
        parse_cloudphysics_file(path, engine="reference"),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_native_csv_file_round_trip(traces, workload, tmp_path):
    path = tmp_path / f"{workload}.csv"
    write_csv_trace(traces[workload], path)
    assert_parses_match(
        read_csv_trace(path), read_csv_trace(path, engine="reference")
    )


def test_invalid_engine_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.0,read,0,8\n")
    with pytest.raises(ValueError, match="engine"):
        read_csv_trace(path, engine="turbo")


# --- parse options -------------------------------------------------------

MSR_CLEAN = "\n".join(
    f"{128166372003061629 + i * 10_000},hm,{i % 3},"
    f"{'Read' if i % 3 else 'Write'},{(i * 7 % 5000) * 512},{(1 + i % 64) * 512},42"
    for i in range(500)
)


@pytest.mark.parametrize("max_ops", [None, 0, 1, 7, 250, 9999])
@pytest.mark.parametrize("disk_number", [None, 0, 2, 99])
def test_msr_options_match(max_ops, disk_number):
    kwargs = dict(max_ops=max_ops, disk_number=disk_number)
    assert_parses_match(
        parse_msr_text(MSR_CLEAN, name="m", **kwargs),
        parse_msr_lines(MSR_CLEAN.split("\n"), name="m", **kwargs),
    )


@pytest.mark.parametrize("capacity_sectors", [None, 10_000, 100_000_000])
def test_capacity_filter_matches(capacity_sectors):
    assert_parses_match(
        parse_msr_text(MSR_CLEAN, name="m", policy="lenient",
                       capacity_sectors=capacity_sectors),
        parse_msr_lines(MSR_CLEAN.split("\n"), name="m", policy="lenient",
                        capacity_sectors=capacity_sectors),
    )


# --- dirty inputs under every policy -------------------------------------

MSR_DIRTY = MSR_CLEAN + (
    "\ngarbage line\n"
    "128166372003061629,hm,1,Read,512,0,9\n"  # zero size
    "bad,hm,1,Read,512,512,9\n"  # non-numeric ticks
    "128166372003061629,hm,1,Peek,512,512,9\n"  # unknown op
    "1,hm,1,Read,512\n"  # too few fields
)

CP_DIRTY = (
    "timestamp_us,op,lba,length\n"
    "100,r,0,8\n"
    "1.5,x,3,4\n"  # unknown op
    "200,w, 16 ,8\n"  # whitespace the reference strips
    "2,r,nine,4\n"  # non-numeric lba
    "3,r,5,0\n"  # zero length
    "300,r,24,8\n"
)

CSV_DIRTY = (
    "timestamp,op,lba,length\n"
    "0.1,read,0,8\n"
    "zz,read,1,1\n"  # bad timestamp
    "0.5,read,-5,1\n"  # negative lba
    "#comment,x\n"
    "0.6,read,2,\n"  # empty length
    "0.7,write,16,8\n"
)


@pytest.mark.parametrize("policy", ["lenient", "quarantine"])
def test_dirty_msr_matches(policy):
    assert_parses_match(
        parse_msr_text(MSR_DIRTY, name="m", policy=policy),
        parse_msr_lines(MSR_DIRTY.split("\n"), name="m", policy=policy),
    )


@pytest.mark.parametrize("policy", ["lenient", "quarantine"])
def test_dirty_cloudphysics_matches(policy):
    assert_parses_match(
        parse_cloudphysics_text(CP_DIRTY, name="c", policy=policy),
        parse_cloudphysics_lines(CP_DIRTY.split("\n"), name="c", policy=policy),
    )


@pytest.mark.parametrize("policy", ["lenient", "quarantine"])
def test_dirty_csv_matches(policy):
    assert_parses_match(
        parse_csv_text(CSV_DIRTY, name="c", policy=policy),
        _csv_reference(CSV_DIRTY, name="c", policy=policy),
    )


def test_strict_errors_identical():
    with pytest.raises(TraceParseError) as columnar_exc:
        parse_msr_text(MSR_DIRTY, name="m", policy="strict")
    with pytest.raises(TraceParseError) as reference_exc:
        parse_msr_lines(MSR_DIRTY.split("\n"), name="m", policy="strict")
    assert str(columnar_exc.value) == str(reference_exc.value)
    assert columnar_exc.value.line_no == reference_exc.value.line_no
    assert columnar_exc.value.line == reference_exc.value.line


# --- fallback-trigger edge cases -----------------------------------------

EDGE_TEXTS = [
    "",  # empty input
    "timestamp_us,op,lba,length\n",  # header only
    "1,r,2,3\n2,w,4,5,6\n",  # ragged: extra field
    "1,r,2,3,9\n2,w,4,5\n",  # ragged: missing field
    "1_000,r,2,3\n",  # Python-only int spelling
    "1,r,1_0,3\n",
    "9223372036854775808,r,2,3\n",  # int64 overflow
    "1,READ      junk,2,3\n",  # token with interior whitespace
    "1," + "r" + " " * 20 + ",2,3\n",  # wider than the fast path's op field
    "۱,r,2,3\n",  # non-ASCII digits (Python-only int spelling)
    "1,r\0,2,3\n",  # a NUL would end the token in a fixed-width field
    "1, Read ,2,3\n2,wR,4,5\n3,\x1cw,6,7\n",  # padded / oddly-cased tokens the reference accepts
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_cloudphysics_edge_texts_match(text):
    assert_parses_match(
        parse_cloudphysics_text(text, name="c", policy="lenient"),
        parse_cloudphysics_lines(text.split("\n"), name="c", policy="lenient"),
    )


CSV_EDGE_TEXTS = [
    '0.1,"read",2,3\n',  # quoting: csv.reader semantics
    "0.1,read,2,3\r\n0.2,write,4,5\n",  # carriage returns
    "   \n0.1,read,2,3\n",  # whitespace-only line is a (bad) record
    "0.1,read,2,3",  # no trailing newline
]


@pytest.mark.parametrize("text", CSV_EDGE_TEXTS)
def test_csv_edge_texts_match(text):
    assert_parses_match(
        parse_csv_text(text, name="c", policy="lenient"),
        _csv_reference(text, name="c", policy="lenient"),
    )


# --- hypothesis line soup ------------------------------------------------

_soup_line = st.text(
    alphabet="0123456789,rwRW.#eE+- _\t",
    max_size=30,
)
_clean_line = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["r", "w", "Read", "write", "0", "1"]),
    st.integers(0, 10**9),
    st.integers(1, 10**4),
).map(lambda t: f"{t[0]},{t[1]},{t[2]},{t[3]}")
_texts = st.lists(st.one_of(_clean_line, _soup_line), max_size=25).map("\n".join)


_msr_line = st.tuples(
    st.integers(0, 10**17),
    st.integers(0, 2),
    st.sampled_from(["Read", "Write", "r", "W", "RD", "wr", "0", "1", "rEAD"]),
    st.integers(-512, 10**12),
    st.integers(0, 10**6),
).map(lambda t: f"{t[0]},hm,{t[1]},{t[2]},{t[3]},{t[4]},9")
_msr_texts = st.lists(st.one_of(_msr_line, _msr_line, _soup_line), max_size=25).map(
    "\n".join
)


@given(
    text=_msr_texts,
    policy=st.sampled_from(["lenient", "quarantine"]),
    disk_number=st.sampled_from([None, 1]),
    max_ops=st.sampled_from([None, 3]),
)
@settings(max_examples=200, deadline=None)
# A span of 2**53 or more ticks: float64 cannot hold the difference exactly.
@example(
    text="0,hm,0,Read,0,1,9\n0,hm,0,Read,0,1,9\n12499999999999997,hm,0,Read,0,1,9",
    policy="lenient", disk_number=None, max_ops=None,
)
def test_msr_soup_matches(text, policy, disk_number, max_ops, soup_file):
    kwargs = dict(policy=policy, disk_number=disk_number, max_ops=max_ops)
    assert_parses_match(
        parse_msr_text(text, name="s", **kwargs),
        parse_msr_lines(text.split("\n"), name="s", **kwargs),
    )
    assert_file_parses_match(soup_file, text.encode(), parse_msr_file, **kwargs)


@given(text=_texts)
@settings(max_examples=200, deadline=None)
def test_cloudphysics_soup_matches(text, soup_file):
    assert_parses_match(
        parse_cloudphysics_text(text, name="s", policy="lenient"),
        parse_cloudphysics_lines(text.split("\n"), name="s", policy="lenient"),
    )
    assert_file_parses_match(
        soup_file, text.encode(), parse_cloudphysics_file, policy="lenient"
    )


@given(text=_texts, policy=st.sampled_from(["lenient", "quarantine"]))
@settings(max_examples=200, deadline=None)
def test_csv_soup_matches(text, policy, soup_file):
    assert_parses_match(
        parse_csv_text(text, name="s", policy=policy),
        _csv_reference(text, name="s", policy=policy),
    )
    assert_file_parses_match(soup_file, text.encode(), read_csv_trace, policy=policy)


# --- files, cut at every position ----------------------------------------

FILE_PARSERS = {
    "msr": parse_msr_file,
    "cloudphysics": parse_cloudphysics_file,
    "csv": read_csv_trace,
}
#: Two clean records and the header line of each dialect (MSR has none: there
#: it is one more malformed record).
FILE_LINES = {
    "msr": (
        b"128166372003061629,hm,0,Read,512,4096,9",
        b"128166372003071629,hm,1,WRITE,8192,512,9",
        b"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
    ),
    "cloudphysics": (b"100,r,0,8", b"250.5,Write,16,8", b"timestamp_us,op,lba,length"),
    "csv": (b"0.1,read,0,8", b"0.7,W,16,8", b"timestamp,op,lba,length"),
}
FILE_SHAPES = {
    "crlf": b"H\r\nA\r\nB\r\nA\r\n",
    "lone_cr": b"A\rB\rA\r",
    "mixed_newlines": b"A\nB\r\nA\rB\n",
    "no_trailing_newline": b"H\nA\nB\nA",
    "no_newline_at_all": b"A",
    "header_only": b"H",
    "blank_run": b"A\n" + b"\n" * 40 + b"B\n\n\n",
    "only_blank_lines": b"\n" * 40,
    "comment_over_a_cut": b"A\n# " + b"a comment longer than any block " * 3 + b"\nB\n",
    "hash_mid_line": b"A\nB # trailing note\nA\n",
    "header_in_a_later_block": b"A\nB\nA\nB\nA\nH\nB\n",
    "header_opens_a_later_block": b"A\nB\nH\nA\n",
    "header_twice": b"H\nH\nA\nB\n",
    "whitespace": b"  A  \n\t\nB\x1c\n \n",
    "bom": b"\xef\xbb\xbfA\nB\n",
    "non_ascii_extra_field": b"A,caf\xc3\xa9\nB\nA,\xe2\x80\xa8\nB\n",
    "undecodable": b"A\nB\nA\nB\nA\n\xff\xfe\nB\n",
    "nul": b"A\nB\0\nA\n",
    "quoted": b'A\n"B"\nA\n',
    "malformed_tail": b"A\nB\nA\nB\nA\nB\n1,2\n",
}


@pytest.mark.parametrize("policy", ["strict", "quarantine"])
@pytest.mark.parametrize("shape", sorted(FILE_SHAPES))
@pytest.mark.parametrize("fmt", sorted(FILE_PARSERS))
def test_file_shapes_match(fmt, shape, policy, tmp_path):
    first, second, header = FILE_LINES[fmt]
    data = (
        FILE_SHAPES[shape].replace(b"A", first).replace(b"B", second).replace(b"H", header)
    )
    assert_file_parses_match(tmp_path / "f.csv", data, FILE_PARSERS[fmt], policy=policy)


TEXT_TABLES = {
    "msr-clean": MSR_CLEAN,
    "msr-dirty": MSR_DIRTY,
    "cloudphysics-dirty": CP_DIRTY,
    "csv-dirty": CSV_DIRTY,
    **{f"cloudphysics-edge{i}": text for i, text in enumerate(EDGE_TEXTS)},
    **{f"csv-edge{i}": text for i, text in enumerate(EDGE_TEXTS + CSV_EDGE_TEXTS)},
}


@pytest.mark.parametrize("policy", ["strict", "lenient"])
@pytest.mark.parametrize("table", sorted(TEXT_TABLES))
def test_text_tables_match_as_files(table, policy, tmp_path):
    parse = FILE_PARSERS[table.split("-")[0]]
    assert_file_parses_match(
        tmp_path / "f.csv", TEXT_TABLES[table].encode(), parse, policy=policy
    )


# --- max_ops bounds the work, not just the result ------------------------

CP_CLEAN = "timestamp_us,op,lba,length\n" + "".join(
    f"{i * 100},{'rW'[i % 2]},{i * 8},8\n" for i in range(2000)
)


@pytest.fixture
def per_line_calls(monkeypatch):
    """Count calls to the per-line reference parsers the bulk path falls back to."""
    calls = []
    for module, name in ((msr, "parse_msr_lines"), (cloudphysics, "parse_cloudphysics_lines")):
        def counting(*args, _parse=getattr(module, name), **kwargs):
            calls.append(args)
            return _parse(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def tokenizer_calls(monkeypatch):
    """Count the blocks that reach numpy's tokenizer."""
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


@pytest.mark.parametrize("max_ops", [-1, 0, 1, 7, 40])
@pytest.mark.parametrize(
    "fmt, text, kwargs",
    [
        ("msr", MSR_CLEAN + "\n", {}),
        ("msr", MSR_CLEAN + "\n", {"disk_number": 2}),
        ("cloudphysics", CP_CLEAN, {}),
    ],
    ids=["msr", "msr-disk2", "cloudphysics"],
)
def test_max_ops_stops_the_read(fmt, text, kwargs, max_ops, tmp_path, tokenizer_calls,
                                per_line_calls):
    parse = FILE_PARSERS[fmt]
    clean, dirty = tmp_path / "clean" / "t.csv", tmp_path / "dirty" / "t.csv"
    clean.parent.mkdir()
    dirty.parent.mkdir()
    clean.write_text(text)
    dirty.write_bytes(text.encode() + b"what the reference parser never reads\n\xff\xfe")
    reference = parse(clean, engine="reference", max_ops=max_ops, **kwargs)
    assert reference.parse_report.records < 200  # the cut is well inside the file
    chars = 256
    for path in (clean, dirty):
        del tokenizer_calls[:], per_line_calls[:]
        with block_chars(chars):
            columnar = parse(path, max_ops=max_ops, **kwargs)
        assert not per_line_calls  # no fallback, garbage or not
        assert_parses_match(columnar, reference)
        # Blocks are `chars` characters and the rest of a line: the lines
        # the reference consumed fit in this many, plus the header's.
        consumed = sum(len(line) + 1 for line in text.split("\n")[: reference.parse_report.records])
        assert len(tokenizer_calls) <= -(-consumed // chars) + 1
