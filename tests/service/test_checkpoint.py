"""CheckpointStore: checksummed commit, pruning, self-healing fallback."""

import json

import numpy as np
import pytest

from repro.service.checkpoint import KEEP_CHECKPOINTS, CheckpointCorruptError, CheckpointStore
from repro.util.npystore import PAGE_ALIGN
from tests.service.helpers import flip_byte


def _state(tag: int) -> dict:
    return {
        "tag": tag,
        "nested": {
            "columns": np.arange(2000, dtype=np.int64) * tag,
            "flags": np.array([True, False, tag % 2 == 0]),
        },
        "items": [
            {"distance": np.full(700, tag, dtype=np.int64)},
            {"scalar": 3.5 + tag},
        ],
        "np_scalar": np.int64(tag),
    }


def test_roundtrip_preserves_arrays_and_scalars(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(4, _state(9))
    loaded = store.load(4)
    assert loaded["tag"] == 9
    assert loaded["np_scalar"] == 9
    assert loaded["items"][1]["scalar"] == 12.5
    np.testing.assert_array_equal(loaded["nested"]["columns"], np.arange(2000, dtype=np.int64) * 9)
    assert loaded["nested"]["columns"].dtype == np.int64
    np.testing.assert_array_equal(loaded["nested"]["flags"], [True, False, False])
    np.testing.assert_array_equal(loaded["items"][0]["distance"], np.full(700, 9))


def test_prune_keeps_newest_entries(tmp_path):
    store = CheckpointStore(tmp_path)
    for seq in (1, 2, 3, 4):
        store.save(seq, _state(seq))
    assert store.sequence_numbers() == [3, 4][-KEEP_CHECKPOINTS:]


def test_flipped_payload_byte_fails_checksum(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(7, _state(1))
    target = sorted(store.entry_path(7).glob("*.npy"))[0]
    flip_byte(target, PAGE_ALIGN + 16)
    with pytest.raises(CheckpointCorruptError, match="checksum"):
        store.load(7)


def test_tampered_header_state_fails_checksum(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(2, _state(1))
    header_path = store.entry_path(2) / "header.json"
    header = json.loads(header_path.read_text())
    header["state"]["tag"] = 999
    header_path.write_text(json.dumps(header))
    with pytest.raises(CheckpointCorruptError):
        store.load(2)


def test_load_latest_falls_back_and_self_heals(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(1, _state(1))
    store.save(5, _state(5))
    newest = sorted(store.entry_path(5).glob("*.npy"))[0]
    flip_byte(newest, PAGE_ALIGN + 8)
    seq, state = store.load_latest()
    assert seq == 1
    assert state["tag"] == 1
    # The damaged entry must be gone, or it would mask seq 1 forever.
    assert store.sequence_numbers() == [1]


def test_load_latest_empty_store_returns_none(tmp_path):
    assert CheckpointStore(tmp_path).load_latest() is None


def test_foreign_entry_is_rejected(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(3, _state(3))
    header_path = store.entry_path(3) / "header.json"
    header = json.loads(header_path.read_text())
    header["kind"] = "something-else"
    header_path.write_text(json.dumps(header))
    with pytest.raises(CheckpointCorruptError, match="foreign"):
        store.load(3)
