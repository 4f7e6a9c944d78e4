"""Aligned ``.npy`` files for any shape; one-shot header encoding; no
temp directory survives a failed commit."""

from __future__ import annotations

import errno
import json

import numpy as np
import pytest

from repro.util import npystore
from repro.util.npystore import PAGE_ALIGN, commit_entry_dir, load_mmap_npy, write_aligned_npy


@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.int64).reshape(6, 2),
        np.empty((0, 2), dtype=np.int64),
        np.arange(30, dtype=np.int64).reshape(10, 3)[::2],  # non-contiguous rows
        np.arange(12, dtype=np.int64).reshape(2, 6).T,  # Fortran-ordered view
        np.array([True, False, True]),
        np.empty(0, dtype=bool),
    ],
    ids=["pairs", "empty-pairs", "strided", "transposed", "bool", "empty-bool"],
)
def test_any_shape_round_trips_page_aligned(tmp_path, array):
    path = write_aligned_npy(tmp_path / "a.npy", array)
    assert path.stat().st_size == PAGE_ALIGN + array.nbytes
    for loaded in (np.load(path), load_mmap_npy(path)):
        assert loaded.shape == array.shape and loaded.dtype == array.dtype
        assert loaded.flags.c_contiguous
        np.testing.assert_array_equal(loaded, array)
    assert load_mmap_npy(path).offset == PAGE_ALIGN


def test_header_dict_and_pre_encoded_text_commit_the_same_bytes(tmp_path):
    header = {"b": [1, 2], "a": {"z": None, "y": 1.5}}
    arrays = {"x": np.arange(4, dtype=np.int64)}
    as_dict, _ = commit_entry_dir(tmp_path / "dict", arrays, header)
    as_text, _ = commit_entry_dir(
        tmp_path / "text", arrays, json.dumps(header, sort_keys=True)
    )
    committed = (as_dict / "header.json").read_text()
    assert committed == (as_text / "header.json").read_text()
    assert committed == json.dumps(header, sort_keys=True)


def test_failed_commit_leaves_no_temp_directory(tmp_path, monkeypatch):
    written = []

    def full_disk(path, array):
        if written:
            raise OSError(errno.ENOSPC, "No space left on device")
        written.append(path)
        path.write_bytes(b"partial")
        return path

    monkeypatch.setattr(npystore, "write_aligned_npy", full_disk)
    arrays = {"a": np.arange(4), "b": np.arange(4)}
    with pytest.raises(OSError, match="No space left"):
        commit_entry_dir(tmp_path / "entry", arrays, {"schema": 1})
    assert written and list(tmp_path.iterdir()) == []
