"""Checkpoints cost bytes, not Python objects.

Bulk session state (extent map, seek-distance and fragment histograms,
technique containers) must reach the checkpoint store as arrays: one
``.npy`` each, a kilobyte-scale JSON skeleton beside them.  These tests
are count-based tripwires against per-element JSON state coming back,
plus the compatibility and corruption guarantees that moving the
histograms out of ``header.json`` must not weaken.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.core.config import LS, LS_ALL, PAPER_CONFIGS, MultiFrontierConfig
from repro.service import checkpoint as checkpoint_module
from repro.service.checkpoint import CheckpointCorruptError, CheckpointStore
from repro.service.session import ReplaySession
from repro.util.npystore import PAGE_ALIGN

from tests.service.helpers import CAPACITY, batches, flip_byte, make_columns, session_queries

MULTI_FRONTIER = dataclasses.replace(LS, name="LS+MF", multi_frontier=MultiFrontierConfig())


def _answers(session: ReplaySession) -> str:
    """Every data-plane query kind's reply, as the bytes a client would see."""
    return json.dumps(session_queries(session))


@pytest.mark.parametrize("config", PAPER_CONFIGS + (LS_ALL, MULTI_FRONTIER), ids=lambda c: c.name)
def test_checkpoint_skeleton_stays_small(tmp_path, monkeypatch, config):
    """30k ops, thousands of distinct seek distances: the committed header
    stays under 16 KiB and the array split walks a few hundred nodes."""
    capacity = 1 << 22
    session = ReplaySession.create("t", tmp_path, config, capacity, checkpoint_interval_ops=10**9)
    for batch in batches(make_columns(30_000, capacity=capacity, seed=3), 1000):
        session.apply_batch(*batch)
    distances = session.state_dict()["distances"]
    assert len(distances["read_hist"]) + len(distances["write_hist"]) >= 5000

    visits = []
    split = checkpoint_module._split_arrays

    def counting_split(state, path, arrays):
        visits.append(path)
        return split(state, path, arrays)

    # The walk recurses through the module global, so this counts every node.
    monkeypatch.setattr(checkpoint_module, "_split_arrays", counting_split)
    entry = session.checkpoint()
    assert len(visits) <= 500
    assert (entry / "header.json").stat().st_size <= 16 * 1024
    session.close()


def _as_written_before_arrays(state: dict) -> dict:
    """The same session state in the shape PR <= 11 checkpointed it: every
    histogram and technique container a JSON list, not an array."""
    engine, translator = state["engine"], state["engine"]["translator"]
    engine["fragment_hist"] = engine["fragment_hist"].tolist()
    for key in ("read_hist", "write_hist"):
        state["distances"][key] = state["distances"][key].tolist()
    for part, key in (("defrag", "access_counts"), ("cache", "blocks"), ("classifier", "recent")):
        if translator.get(part):
            translator[part][key] = translator[part][key].tolist()
    return state


@pytest.mark.parametrize("config", [LS_ALL, MULTI_FRONTIER], ids=lambda c: c.name)
def test_pair_list_checkpoint_opens_like_an_array_one(tmp_path, config):
    capacity = CAPACITY if config is LS_ALL else 1 << 22
    stream = batches(make_columns(600, capacity=capacity, seed=11), 50)
    new_root, old_root = tmp_path / "new", tmp_path / "old"
    session = ReplaySession.create("t", new_root, config, capacity)
    for seq, is_read, lba, length in stream[:8]:
        session.apply_batch(seq, is_read, lba, length)
    session.close()

    shutil.copytree(new_root, old_root)
    store = CheckpointStore(old_root)
    seq, state = store.load_latest()
    old_state = _as_written_before_arrays(state)
    assert isinstance(old_state["distances"]["read_hist"], list)
    shutil.rmtree(old_root / "checkpoints")
    store.save(seq, old_state)
    header = json.loads((store.entry_path(seq) / "header.json").read_text())
    assert isinstance(header["state"]["distances"]["read_hist"], list)

    reopened_new = ReplaySession.open("t", new_root, config, capacity)
    reopened_old = ReplaySession.open("t", old_root, config, capacity)
    assert reopened_old.applied_seq == reopened_new.applied_seq == 8
    assert _answers(reopened_old) == _answers(reopened_new)
    for seq, is_read, lba, length in stream[8:]:
        reopened_new.apply_batch(seq, is_read, lba, length)
        reopened_old.apply_batch(seq, is_read, lba, length)
    assert _answers(reopened_old) == _answers(reopened_new)
    reopened_new.close()
    reopened_old.close()


def test_flipped_histogram_byte_fails_checksum_and_falls_back(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY, checkpoint_interval_ops=10**9)
    for batch in batches(make_columns(400, seed=5), 40)[:7]:
        session.apply_batch(*batch)
        if batch[0] in (4, 7):
            newest = session.checkpoint()
    del session
    (histogram,) = newest.glob("*distances.read_hist.npy")
    assert histogram.stat().st_size > PAGE_ALIGN
    flip_byte(histogram, PAGE_ALIGN + 8)  # the first pair's count
    store = CheckpointStore(tmp_path)
    with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
        store.load(7)
    assert store.load_latest()[0] == 4
    assert store.sequence_numbers() == [4]  # the damaged entry was removed


def test_header_is_one_canonical_json_document(tmp_path):
    """The skeleton text is spliced into the header, not re-encoded: the
    result must still be exactly what ``json.dumps(header, sort_keys=True)``
    (the pre-PR-12 writer) produces."""
    store = CheckpointStore(tmp_path)
    state = {"z": [1, 2.5, None, "a\"b"], "a": {"k": np.arange(3)}, "": True}
    text = (store.save(3, state) / "header.json").read_text()
    header = json.loads(text)
    assert sorted(header) == ["kind", "seq", "sha256", "state"]
    assert header["seq"] == 3
    assert text == json.dumps(header, sort_keys=True)
    np.testing.assert_array_equal(store.load(3)["a"]["k"], np.arange(3))
