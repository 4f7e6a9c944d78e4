"""The persistent fragment-stream store (repro.core.stream_store).

The store publishes recorded plain-LS streams keyed by trace *content*
(:meth:`~repro.trace.trace.Trace.content_key`), so any process replaying
the same workload shares one recording.  These
tests pin the contract: exact round-trips (arrays, scalars and the
downstream kernels), read-only memory-mapped views, and healing — torn,
truncated, corrupt or foreign-schema entries count as misses, are
unlinked, and the next store call repairs them.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.config import PAPER_CONFIGS
from repro.core.stream import (record_fragment_stream, stream_fragment_stats, stream_replay,
                               stream_windowed_long_seeks)
from repro.core.stream_store import STREAM_SCHEMA, StreamStore, stream_key
from repro.workloads import synthesize_workload

SEED, SCALE = 42, 0.03


@pytest.fixture(scope="module")
def trace():
    return synthesize_workload("hm_1", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def recorded(trace):
    return record_fragment_stream(trace)


@pytest.fixture
def store(tmp_path):
    return StreamStore(tmp_path / "streams")


class TestKey:
    def test_key_is_content_addressed(self, trace):
        again = synthesize_workload("hm_1", seed=SEED, scale=SCALE)
        assert trace is not again
        assert stream_key(trace) == stream_key(again)

    def test_key_separates_workloads(self, trace):
        other = synthesize_workload("hm_1", seed=SEED + 1, scale=SCALE)
        assert stream_key(trace) != stream_key(other)


class TestStreamRoundTrip:
    def test_arrays_scalars_and_kernels_identical(self, trace, recorded, store):
        store.store_stream(trace, recorded)
        loaded = store.load_stream(trace)
        assert loaded is not None
        assert loaded.layout is None  # store-loaded streams carry no translator
        for name in ("pba", "length", "kind", "op_index", "group_start", "group_size"):
            got, want = getattr(loaded, name), getattr(recorded, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
            assert not got.flags.writeable, name
        for name in (
            "trace_name", "frontier_base", "frontier", "reads", "writes",
            "sectors_read", "sectors_written", "read_fragments",
            "fragmented_reads",
        ):
            assert getattr(loaded, name) == getattr(recorded, name), name

        # Every downstream kernel must see the identical stream.
        for config in PAPER_CONFIGS:
            if config.defrag is not None:
                continue
            a = stream_replay(recorded, config)
            b = stream_replay(loaded, config)
            assert a.run_result.stats == b.run_result.stats, config.name
        assert stream_fragment_stats(loaded) == stream_fragment_stats(recorded)
        assert stream_windowed_long_seeks(loaded) == stream_windowed_long_seeks(
            recorded
        )

    def test_loaded_views_are_mmap_backed(self, trace, recorded, store):
        import mmap

        store.store_stream(trace, recorded)
        loaded = store.load_stream(trace)
        base = loaded.pba
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        assert isinstance(base, mmap.mmap), "stream columns must stay zero-copy"

    def test_miss_on_empty_store(self, trace, store):
        assert store.load_stream(trace) is None
        assert (store.hits, store.misses) == (0, 1)


class TestStreamHealing:
    def _primed(self, trace, recorded, store):
        path = store.store_stream(trace, recorded)
        assert store.load_stream(trace) is not None
        store.hits = store.misses = 0
        return path

    def test_corrupt_header_heals(self, trace, recorded, store):
        path = self._primed(trace, recorded, store)
        (path / "header.json").write_text("not json")
        assert store.load_stream(trace) is None
        assert not path.exists()
        assert (store.hits, store.misses) == (0, 1)
        store.store_stream(trace, recorded)
        assert store.load_stream(trace) is not None

    def test_torn_array_heals(self, trace, recorded, store):
        path = self._primed(trace, recorded, store)
        (path / "op_index.npy").write_bytes(b"torn")
        assert store.load_stream(trace) is None
        assert not path.exists()

    def test_truncated_array_heals(self, trace, recorded, store):
        path = self._primed(trace, recorded, store)
        pba = path / "pba.npy"
        pba.write_bytes(pba.read_bytes()[:-8])
        assert store.load_stream(trace) is None
        assert not path.exists()

    def test_foreign_schema_heals(self, trace, recorded, store):
        path = self._primed(trace, recorded, store)
        header = json.loads((path / "header.json").read_text())
        header["schema"] = STREAM_SCHEMA + 1
        (path / "header.json").write_text(json.dumps(header))
        assert store.load_stream(trace) is None
        assert not path.exists()

    def test_entry_for_another_trace_heals(self, trace, recorded, store):
        path = self._primed(trace, recorded, store)
        other = synthesize_workload("hm_1", seed=SEED + 1, scale=SCALE)
        squatting = store.path_for(other)
        shutil.copytree(path, squatting)
        assert store.load_stream(other) is None
        assert not squatting.exists()
        assert store.load_stream(trace) is not None  # original untouched
