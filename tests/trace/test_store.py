"""The persistent compiled-trace store (repro.trace.store).

Invalidation is by construction — the entry key hashes the complete parse
identity — so these tests pin the behaviours that matter: byte-exact
round-trips (columns *and* the full ParseReport), hits that skip the
parser, forced misses whenever the source bytes / policy / parse args /
parser version change, and corrupt-entry healing.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import repro.trace.store as store_mod
from repro.trace.store import TraceStore, file_meta, load_trace, meta_key, synthetic_meta
from repro.workloads import synthesize_workload

CSV_DIRTY = (
    "timestamp,op,lba,length\n"
    "0.0,read,0,8\n"
    "0.1,write,16,8\n"
    "zz,read,1,1\n"  # bad row: exercises report round-tripping
    "0.2,read,0,24\n"
)


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "dirty.csv"
    path.write_text(CSV_DIRTY)
    return path


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


@pytest.fixture
def parse_counter(monkeypatch):
    """Count how often the store actually parses (vs. serves a hit)."""
    calls = []
    original = store_mod._parse

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(store_mod, "_parse", counting)
    return calls


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
        report.max_error_samples,
    )


def _entries(store):
    return sorted(store.root.iterdir()) if store.root.is_dir() else []


class TestRoundTrip:
    def test_columns_and_report_identical(self, source, store):
        parsed = load_trace(source, "csv", store=store, policy="quarantine")
        loaded = load_trace(source, "csv", store=store, policy="quarantine")
        assert store.hits == 1
        assert loaded.name == parsed.name
        assert list(loaded) == list(parsed)
        for got, want in zip(loaded.as_arrays(), parsed.as_arrays()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(loaded.timestamps(), parsed.timestamps())
        assert loaded.timestamps().dtype == np.float64
        assert _report_tuple(loaded.parse_report) == _report_tuple(parsed.parse_report)

    def test_report_header_keeps_the_field_by_field_encoding(self, source, store):
        parsed = load_trace(source, "csv", store=store, policy="quarantine")
        issue = {"line_no": 4, "line": "zz,read,1,1",
                 "reason": "bad trace row: could not convert string to float: 'zz'"}
        literal = {"name": parsed.parse_report.name, "policy": "quarantine", "records": 4,
                   "accepted": 3, "skipped": 0, "quarantined": 1, "filtered": 0,
                   "errors": [issue], "quarantine": [issue], "max_error_samples": 10}
        meta = file_meta(source, "csv", policy="quarantine")
        header_path = store.path_for(meta) / "header.json"
        header = json.loads(header_path.read_text())
        assert header["report"] == literal
        header_path.write_text(json.dumps({**header, "report": literal}))
        assert store.load(meta).parse_report == parsed.parse_report

    def test_copies_in_two_directories_keep_their_own_report_name(self, source, store):
        copy = source.parent / "copy" / source.name
        copy.parent.mkdir()
        shutil.copy(source, copy)
        load_trace(source, "csv", store=store, policy="lenient")
        served = load_trace(copy, "csv", store=store, policy="lenient")
        fresh = load_trace(copy, "csv", policy="lenient")
        assert served.parse_report.name == str(copy)
        assert _report_tuple(served.parse_report) == _report_tuple(fresh.parse_report)

    def test_synthetic_round_trip_without_report(self, store):
        trace = synthesize_workload("hm_1", seed=7, scale=0.01)
        meta = synthetic_meta("hm_1", 7, 0.01)
        store.store(trace, meta)
        loaded = store.load(meta)
        assert list(loaded) == list(trace)
        assert loaded.parse_report is None

    def test_store_without_a_store_is_a_plain_parse(self, source):
        trace = load_trace(source, "csv", policy="lenient")
        assert len(trace) == 3

    def test_unknown_format_rejected(self, source, store):
        with pytest.raises(ValueError, match="fmt"):
            load_trace(source, "binary", store=store)


class TestHitsAndMisses:
    def test_unchanged_source_hits(self, source, store, parse_counter):
        load_trace(source, "csv", store=store, policy="lenient")
        load_trace(source, "csv", store=store, policy="lenient")
        assert len(parse_counter) == 1
        assert len(_entries(store)) == 1

    def test_source_byte_change_misses(self, source, store, parse_counter):
        load_trace(source, "csv", store=store, policy="lenient")
        source.write_text(CSV_DIRTY + "0.3,write,32,8\n")
        trace = load_trace(source, "csv", store=store, policy="lenient")
        assert len(parse_counter) == 2
        assert len(trace) == 4
        assert len(_entries(store)) == 2  # the stale entry lands on a different key

    def test_source_changed_during_the_parse_is_not_stored(
        self, source, store, parse_counter, monkeypatch
    ):
        parse = store_mod._parse

        def collector_still_writing(path, *args):
            if not parse_counter:
                with open(path, "a") as handle:
                    handle.write("0.3,write,32,8\n")
            return parse(path, *args)

        monkeypatch.setattr(store_mod, "_parse", collector_still_writing)
        # The key was hashed from three good rows, the parse then read four:
        # filed under that key, the four would be served for the old bytes.
        assert len(load_trace(source, "csv", store=store, policy="lenient")) == 4
        assert len(_entries(store)) == 0
        assert len(load_trace(source, "csv", store=store, policy="lenient")) == 4
        assert len(parse_counter) == 2 and len(_entries(store)) == 1

    def test_policy_change_misses(self, source, store, parse_counter):
        load_trace(source, "csv", store=store, policy="lenient")
        load_trace(source, "csv", store=store, policy="quarantine")
        assert len(parse_counter) == 2

    def test_parse_arg_change_misses(self, source, store, parse_counter):
        load_trace(source, "csv", store=store, policy="lenient")
        load_trace(source, "csv", store=store, policy="lenient", capacity_sectors=10**9)
        assert len(parse_counter) == 2

    def test_parser_version_change_misses(self, source, store, parse_counter, monkeypatch):
        load_trace(source, "csv", store=store, policy="lenient")
        monkeypatch.setattr(store_mod, "COLUMNAR_PARSER_VERSION", 999_999)
        load_trace(source, "csv", store=store, policy="lenient")
        assert len(parse_counter) == 2

    def test_entries_compiled_by_the_whole_file_parser_still_hit(self, tmp_path, store):
        """The literals are what commit 20ba2eb (``read_text()``, one
        ``np.loadtxt`` over the whole file) compiled for this file: the
        block driver lands on the same key with the same bytes, so a store
        filled before it keeps serving (COLUMNAR_PARSER_VERSION not bumped)."""
        import hashlib

        source = tmp_path / "hm.csv"
        source.write_text("".join(
            f"{128166372003061629 + i * 10_000},hm,{i % 3},{'Read' if i % 3 else 'Write'},"
            f"{(i * 7 % 5000) * 512},{(1 + i % 64) * 512},42\n"
            for i in range(500)
        ))
        trace = load_trace(source, "msr", store=store, disk_number=1)
        (entry,) = _entries(store)
        assert entry.name == "c7ce35004efd77da9daafb67017412f81e0c211c561661e7b4c820d12a52c2ec"
        columns = b"".join(
            (entry / f"{key}.npy").read_bytes()
            for key in ("timestamp", "is_read", "lba", "length")
        )
        assert hashlib.sha256(columns).hexdigest() == (
            "6b226b2a9e8db7e02030ab8a9dbe454d6f2073a65999d76b17a4564fd1a45107"
        )
        assert trace.content_key() == (
            "ae860683c70695536f5659c3422331fb674fa021f1a4de3c576cba41e2dc9e34"
        )
        report = trace.parse_report
        assert (report.records, report.accepted, report.filtered) == (500, 167, 333)

    def test_meta_key_is_canonical(self):
        a = {"kind": "synthetic", "name": "x", "seed": 1, "scale": 1.0, "version": "1"}
        b = dict(reversed(list(a.items())))
        assert meta_key(a) == meta_key(b)


class TestCorruption:
    def test_corrupt_header_is_a_miss_and_removed(self, source, store):
        meta = file_meta(source, "csv", policy="lenient")
        load_trace(source, "csv", store=store, policy="lenient")
        path = store.path_for(meta)
        (path / "header.json").write_text("not json")
        assert store.load(meta) is None
        assert not path.exists()
        # The next load_trace heals the entry.
        trace = load_trace(source, "csv", store=store, policy="lenient")
        assert len(trace) == 3 and path.exists()

    def test_torn_column_is_a_miss_and_removed(self, source, store):
        meta = file_meta(source, "csv", policy="lenient")
        load_trace(source, "csv", store=store, policy="lenient")
        path = store.path_for(meta)
        # Simulate a torn write: the column file exists but is not a
        # complete .npy (a crash between publish steps cannot produce
        # this — commits are tmp-dir+rename — but disks happen).
        (path / "lba.npy").write_bytes(b"torn")
        assert store.load(meta) is None
        assert not path.exists()
        trace = load_trace(source, "csv", store=store, policy="lenient")
        assert len(trace) == 3 and path.exists()

    def test_truncated_column_is_a_miss_and_removed(self, source, store):
        meta = file_meta(source, "csv", policy="lenient")
        load_trace(source, "csv", store=store, policy="lenient")
        path = store.path_for(meta)
        # A valid .npy holding the wrong number of rows (header 'ops'
        # disagrees) must not be served.
        lba = path / "lba.npy"
        data = lba.read_bytes()
        lba.write_bytes(data[:-8])
        assert store.load(meta) is None
        assert not path.exists()

    def test_header_meta_mismatch_is_a_miss(self, source, store):
        meta = file_meta(source, "csv", policy="lenient")
        other = file_meta(source, "csv", policy="quarantine")
        load_trace(source, "csv", store=store, policy="lenient")
        # A foreign entry squatting on another key must not be served.
        shutil.copytree(store.path_for(meta), store.path_for(other))
        assert store.load(other) is None
        assert not store.path_for(other).exists()

    def test_foreign_schema_is_a_miss(self, source, store):
        import json

        meta = file_meta(source, "csv", policy="lenient")
        load_trace(source, "csv", store=store, policy="lenient")
        path = store.path_for(meta)
        header = json.loads((path / "header.json").read_text())
        header["schema"] = store_mod.STORE_SCHEMA + 1
        (path / "header.json").write_text(json.dumps(header))
        assert store.load(meta) is None
        assert not path.exists()


class TestExperimentIntegration:
    def test_workload_trace_round_trips_through_store(self, tmp_path, monkeypatch):
        from repro.experiments import sweep

        direct = synthesize_workload("hm_1", seed=3, scale=0.01)
        engine = sweep.SweepEngine(3, 0.01, trace_store=str(tmp_path / "store"))
        first = engine.trace("hm_1")
        assert list(first) == list(direct)
        assert len(_entries(engine.trace_store)) == 1

        # A cold engine (empty memo) must load from the store, not
        # re-synthesize: poison the generator to prove it.
        monkeypatch.setattr(
            sweep,
            "synthesize_workload",
            lambda *a, **k: pytest.fail("store should have served this"),
        )
        second = sweep.SweepEngine(3, 0.01, trace_store=str(tmp_path / "store")).trace("hm_1")
        assert second.name == first.name
        assert list(second) == list(direct)
