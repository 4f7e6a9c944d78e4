"""ReplaySession: WAL contract, dedupe/gap, background saves, crash recovery, live queries."""

import errno
import os
import shutil
import sys
import threading
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LS, LS_ALL, LS_DEFRAG, NOLS, config_to_dict
from repro.service.checkpoint import CheckpointStore
from repro.service.journal import OpJournal
from repro.service.session import ReplaySession, SequenceGapError
from repro.service.wire import encode_payload
from repro.util import npystore
from repro.util.npystore import remove_entry
from tests.differential.test_serving_vs_offline import group_payload
from tests.service.helpers import CAPACITY, batches, flip_byte, make_columns
from tests.service.helpers import reference_queries, session_queries


def test_apply_acks_and_counts(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY)
    columns = make_columns(120)
    for seq, is_read, lba, length in batches(columns, 40):
        ack = session.apply_batch(seq, is_read, lba, length)
        assert ack == {"seq": seq, "applied_seq": seq, "ops": seq * 40, "duplicate": False}
    assert session.applied_seq == 3
    assert session.ops_applied == 120
    session.close()


def test_duplicate_batch_is_acked_without_effect(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY)
    columns = make_columns(80)
    for seq, is_read, lba, length in batches(columns, 40):
        session.apply_batch(seq, is_read, lba, length)
    before = session_queries(session)

    ack = session.apply_batch(1, *batches(columns, 40)[0][1:])
    assert ack["duplicate"] is True
    assert ack["applied_seq"] == 2
    assert session_queries(session) == before
    session.close()


def test_gap_raises_with_resync_hint(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY)
    is_read, lba, length = make_columns(10)
    with pytest.raises(SequenceGapError) as excinfo:
        session.apply_batch(5, is_read, lba, length)
    assert excinfo.value.expected == 1
    assert excinfo.value.got == 5
    # In a group, each batch past the gap gets the same structured reply.
    acks = session.apply_group_payload(5, *group_payload([(5, is_read, lba, length)] * 2))
    assert [(ack["kind"], ack["expected"], ack["got"]) for ack in acks] == [
        ("SequenceGapError", 1, 5), ("SequenceGapError", 1, 6)]
    session.close()


def test_invalid_batch_rejected_before_journaling(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY)
    is_read, lba, length = make_columns(10)
    bad_lba = lba.copy()
    bad_lba[3] = CAPACITY  # lba+length crosses the declared capacity
    with pytest.raises(ValueError, match="beyond the declared capacity"):
        session.apply_batch(1, is_read, bad_lba, length)
    with pytest.raises(ValueError, match="length > 0"):
        session.apply_batch(1, is_read, lba, np.zeros_like(length))
    with pytest.raises(ValueError, match="equal length"):
        session.apply_batch(1, is_read[:-1], lba, length)
    (ack,) = session.apply_group_payload(1, *group_payload([(1, is_read, bad_lba, length)]))
    assert not ack["ok"] and "beyond the declared capacity" in ack["error"]
    # Nothing was journaled or applied: seq 1 is still next, and the
    # stream continues exactly as if the bad batches never happened.
    assert session.applied_seq == 0
    ack = session.apply_batch(1, is_read, lba, length)
    assert ack["duplicate"] is False
    session.close()


def test_open_refuses_mismatched_config_or_capacity(tmp_path):
    ReplaySession.create("t", tmp_path, LS_DEFRAG, CAPACITY).close()
    with pytest.raises(ValueError, match="refusing to mix"):
        ReplaySession.open("t", tmp_path, LS, CAPACITY)
    with pytest.raises(ValueError, match="refusing to mix"):
        ReplaySession.open("t", tmp_path, LS_DEFRAG, CAPACITY * 2)


def test_auto_checkpoint_every_interval(tmp_path, monkeypatch):
    """Interval saves run on the writer, one at a time: the save due at
    batch 4 while batch 2's is still writing is taken at batch 5."""
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY, checkpoint_interval_ops=100)
    store = CheckpointStore(tmp_path)
    release, save = threading.Event(), CheckpointStore._save
    monkeypatch.setattr(CheckpointStore, "_save", lambda *args: release.wait() and save(*args))
    all_batches = batches(make_columns(250), 50)
    for batch in all_batches[:4]:
        session.apply_batch(*batch)
    assert store.sequence_numbers() == [0] and session._saving is not None
    release.set()
    futures.wait([session._saving])
    session.apply_batch(*all_batches[4])
    session._collect_save(wait=True)
    assert store.sequence_numbers() == [2, 5]
    session.close()


def test_background_saves_hold_the_state_of_their_seq(tmp_path, monkeypatch):
    """Batches keep applying while the writer hashes and writes (switch
    interval shortened so the threads interleave finely): each entry must
    checksum to the state an undisturbed session had at its seq."""
    capacity, switch, published, save = 1 << 20, sys.getswitchinterval(), {}, CheckpointStore._save
    columns = make_columns(20_000, capacity, seed=17)
    columns[0][:] = np.arange(20_000) // 500 % 2 == 1  # 500-op write runs merge into the base
    all_batches = batches(columns, 500)

    def kept(store, seq, state):
        path = save(store, seq, state)
        published[seq] = (path / "header.json").read_text()  # before a later save prunes it
        store.load(seq)  # the bytes written are the bytes hashed
        return path

    monkeypatch.setattr(CheckpointStore, "_save", kept)
    session = ReplaySession.create("t", tmp_path / "t", LS_DEFRAG, capacity, 1000)
    sys.setswitchinterval(1e-6)
    try:
        for batch in all_batches:
            session.apply_batch(*batch)
        session.close()  # waits for, and collects, the save in flight
    finally:
        sys.setswitchinterval(switch)
    monkeypatch.undo()
    reference = ReplaySession.create("t", tmp_path / "r", LS_DEFRAG, capacity, 10**9)
    for seq, *columns in all_batches:
        reference.apply_batch(seq, *columns)
        if seq in published:
            entry = CheckpointStore(tmp_path / "r").save(seq, reference.state_dict())
            assert (entry / "header.json").read_text() == published[seq]
    assert len(published) >= 3
    reference.close()


def test_open_removes_the_temp_entry_of_a_killed_writer(tmp_path):
    ReplaySession.create("t", tmp_path, LS, CAPACITY).close()
    stale = tmp_path / "checkpoints" / "ckpt-000000000007.99999.tmp"
    stale.mkdir()
    (stale / "a0_engine.npy").write_bytes(b"torn")
    ReplaySession.open("t", tmp_path, LS, CAPACITY).close()
    assert not stale.exists()


@pytest.mark.parametrize("config", [LS, LS_DEFRAG, LS_ALL, NOLS], ids=lambda c: c.name)
def test_kill9_recovery_is_bit_identical(tmp_path, monkeypatch, config):
    """``kill -9`` at every point where it can cut a WAL write or a checkpoint.

    The tenant directory is copied after each WAL record and at each step
    of an interval save: after each ``.npy``, around the rename, before the
    journal rotates and before it prunes.  Each copy, and a twin whose
    newest entry is then damaged, must recover to an offline replay of the
    journaled prefix, lose no acknowledged batch and drop the killed
    writer's temp entry; the WAL must cover every batch after the newest
    published entry."""
    columns = make_columns(360, seed=13)
    all_batches = batches(columns, 40)
    root = tmp_path / "tenant"
    session = ReplaySession.create("t", root, config, CAPACITY, checkpoint_interval_ops=80)
    crashes, acked = [], [0]

    def hook(owner, name, crash_first):
        original = getattr(owner, name)

        def crash():
            crashes.append((shutil.copytree(root, tmp_path / str(len(crashes))), acked[0]))

        def hooked(*args):
            if crash_first:
                crash()
            done = original(*args)
            if not crash_first:
                crash()
            return done

        monkeypatch.setattr(owner, name, hooked)

    hook(npystore, "write_aligned_npy", False)
    hook(os, "rename", True)
    hook(os, "rename", False)
    hook(OpJournal, "rotate", True)
    hook(OpJournal, "prune_below", True)
    hook(OpJournal, "_write_durably", False)
    for start, stop in ((0, 1), (1, 3), (3, 4), (4, 7), (7, 9)):  # saves due at 3, 7, 9
        run = all_batches[start:stop]
        if len(run) == 1:
            session.apply_batch(*run[0])
        else:
            session.apply_group_payload(start + 1, *group_payload(run))
        acked[0] = stop
        session._collect_save(wait=True)  # the writer runs while nothing else moves
    monkeypatch.undo()
    assert len(crashes) > 30

    expected = {}
    for copy, acked_then in crashes:
        newest = CheckpointStore(copy).sequence_numbers()[-1]
        assert newest + len(list(OpJournal(copy).replay_after(newest))) >= acked_then
        # A twin whose newest entry then loses a histogram byte falls back to
        # the older entry (or to the WAL alone) and must land on the same state.
        twin = shutil.copytree(copy, copy.with_name(f"{copy.name}-damaged"))
        (hist,) = twin.glob(f"checkpoints/ckpt-{newest:012d}/*distances.read_hist.npy")
        flip_byte(hist, hist.stat().st_size - 1)
        for tenant in (copy, twin):
            recovered = ReplaySession.open("t", tenant, config, CAPACITY)
            seq = recovered.applied_seq
            assert seq >= acked_then and not list(Path(tenant).glob("checkpoints/*.tmp"))
            if seq not in expected:
                prefix = tuple(column[: 40 * seq] for column in columns)
                expected[seq] = reference_queries(tmp_path / f"ref{seq}", config, prefix, 40)
            assert session_queries(recovered) == expected[seq]
            recovered.close()


def test_checkpoint_header_carrying_a_fast_key_recovers_bit_identical(tmp_path):
    """Headers written while ``TechniqueConfig`` had a ``fast`` field carry
    the key; it changed no simulated number, so it is ignored on open."""
    columns = make_columns(280, seed=3)
    expected = reference_queries(tmp_path / "ref", LS_DEFRAG, columns, batch_ops=40)
    session = ReplaySession.create("t", tmp_path / "old", LS_DEFRAG, CAPACITY)
    for batch in batches(columns, 40):
        session.apply_batch(*batch)
    session.close()

    store = CheckpointStore(tmp_path / "old")
    for seq in store.sequence_numbers():
        state = store.load(seq)
        assert state["config"] == config_to_dict(LS_DEFRAG)
        state["config"]["fast"] = True
        remove_entry(store.entry_path(seq))
        store.save(seq, state)
    recovered = ReplaySession.open("t", tmp_path / "old", LS_DEFRAG, CAPACITY)
    assert session_queries(recovered) == expected
    recovered.close()


def test_corrupt_newest_checkpoint_falls_back_bit_identical(tmp_path):
    """Damaged newest checkpoint: recovery must fall back to the previous
    one, replay the *longer* journal tail, and still match exactly."""
    columns = make_columns(400, seed=5)
    expected = reference_queries(tmp_path / "ref", LS_DEFRAG, columns, batch_ops=40)
    session = ReplaySession.create("t", tmp_path / "t", LS_DEFRAG, CAPACITY, 10**9)
    all_batches = batches(columns, 40)
    for batch in all_batches[:7]:
        session.apply_batch(*batch)
        if batch[0] in (4, 7):
            newest = session.checkpoint()  # 4 stays intact, 7 is about to be damaged
    largest = max(newest.glob("*.npy"), key=lambda path: path.stat().st_size)
    flip_byte(largest, largest.stat().st_size - 1)
    del session  # kill -9
    recovered = ReplaySession.open("t", tmp_path / "t", LS_DEFRAG, CAPACITY)
    assert recovered.applied_seq == 7  # checkpoint 4 + journal batches 5..7
    for batch in all_batches[7:]:
        recovered.apply_batch(*batch)
    assert session_queries(recovered) == expected
    recovered.close()


def test_total_checkpoint_loss_replays_from_scratch(tmp_path):
    columns = make_columns(200, seed=8)
    expected = reference_queries(tmp_path / "ref", LS, columns, batch_ops=50)
    session = ReplaySession.create("t", tmp_path / "t", LS, CAPACITY, 10**9)
    for batch in batches(columns, 50):
        session.apply_batch(*batch)
    del session  # kill -9: the journal holds everything past checkpoint 0
    shutil.rmtree(tmp_path / "t" / "checkpoints")  # only the journal remains
    recovered = ReplaySession.open("t", tmp_path / "t", LS, CAPACITY)
    assert recovered.applied_seq == 4
    assert session_queries(recovered) == expected
    recovered.close()


def test_wal_of_single_and_group_records_recovers_bit_identical(tmp_path):
    """A journal holding both record kinds — ``RJL1`` (per-batch applies)
    and ``RJG1`` (group commits) — recovers to the uninterrupted run."""
    columns = make_columns(450, seed=9)
    expected = reference_queries(tmp_path / "ref", LS_ALL, columns, batch_ops=50)
    all_batches = batches(columns, 50)
    session = ReplaySession.create("t", tmp_path / "t", LS_ALL, CAPACITY, 10**9)
    for start, stop in ((0, 1), (1, 2), (2, 5), (5, 6), (6, 9)):
        if stop - start == 1:
            session.apply_batch(*all_batches[start])
        else:
            acks = session.apply_group_payload(start + 1, *group_payload(all_batches[start:stop]))
            assert all(ack["ok"] for ack in acks)
    wal = session._journal._segment.read_bytes()
    assert wal.startswith(b"1LJR") and wal.count(b"1GJR") >= 2
    del session  # kill -9: checkpoint zero plus the mixed journal is all there is
    recovered = ReplaySession.open("t", tmp_path / "t", LS_ALL, CAPACITY)
    assert recovered.applied_seq == 9
    assert session_queries(recovered) == expected
    recovered.close()


def test_query_kinds_and_unknown(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY)
    for seq, is_read, lba, length in batches(make_columns(100), 50):
        session.apply_batch(seq, is_read, lba, length)
    stats = session.query("stats")
    assert stats["reads"] + stats["writes"] == 100
    saf = session.query("saf")
    assert set(saf) >= {"read", "write", "total", "baseline_read_seeks"}
    cdf = session.query("fragment_cdf")["points"]
    assert all(0 <= frac <= 1 for _, frac in cdf)
    budget = session.query("seek_budget", window_gib=1.0)
    assert budget["total_seek_ms"] >= budget["read_seek_ms"] >= 0
    assert 0 <= budget["fraction_within"] <= 1
    with pytest.raises(ValueError, match="unknown query kind"):
        session.query("nope")
    session.close()


def test_health_query_reports_checkpoint_cost(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY, checkpoint_interval_ops=100)
    for batch in batches(make_columns(200), 50):
        if session._saving:
            futures.wait([session._saving])
        session.apply_batch(*batch)
    futures.wait([session._saving])  # batch 4's save is written; the query collects it
    health = session.query("health")
    assert set(health) == {
        "checkpoints", "checkpoint_failures", "last_checkpoint_error",
        "last_checkpoint_ms", "last_checkpoint_bytes", "extent_map",
    }
    # The array-tier map's gauges, read without forcing a flush.
    assert set(health["extent_map"]) == {
        "base_rows", "overlay_rows", "flush_count", "realloc_count",
        "rows_merged", "rows_moved", "run_merges",
    }
    assert health["extent_map"]["base_rows"] + health["extent_map"]["overlay_rows"] > 0
    # Checkpoint zero plus the two interval ones; nothing failed.
    assert health["checkpoints"] == 3
    assert health["checkpoint_failures"] == 0
    assert health["last_checkpoint_error"] is None
    newest = CheckpointStore(tmp_path).entry_path(4)
    assert health["last_checkpoint_bytes"] == sum(
        member.stat().st_size for member in newest.iterdir()
    )
    # The data-plane replies did not gain or lose a key.
    assert set(session.query("applied")) == {"applied_seq", "ops"}
    session.close()


def test_health_has_no_extent_map_without_the_array_tier(tmp_path):
    session = ReplaySession.create("t", tmp_path, NOLS, CAPACITY)
    for seq, is_read, lba, length in batches(make_columns(100), 50):
        session.apply_batch(seq, is_read, lba, length)
    assert "extent_map" not in session.query("health")
    session.close()


@pytest.mark.parametrize("grouped", [False, True], ids=["batch", "group"])
def test_failed_auto_checkpoint_does_not_fail_the_durable_batch(tmp_path, monkeypatch, grouped):
    """ENOSPC under an interval checkpoint: the batch is already journaled
    and applied, so it is acked; the failure is counted when the save is
    collected, the journal does not rotate, and the next interval retries."""
    session = ReplaySession.create("t", tmp_path, LS_DEFRAG, CAPACITY, checkpoint_interval_ops=120)
    store = CheckpointStore(tmp_path)

    def apply(seq, is_read, lba, length):
        if grouped:
            (ack,) = session.apply_group_payload(
                seq, [len(lba)], encode_payload(is_read, lba, length)
            )
            assert ack.pop("ok") is True
        else:
            ack = session.apply_batch(seq, is_read, lba, length)
        session._collect_save(wait=True)  # as the next batch would, once written
        return ack

    def disk_full(path, array):
        raise OSError(errno.ENOSPC, "No space left on device")

    all_batches = batches(make_columns(280, seed=3), 40)
    with monkeypatch.context() as patch:
        patch.setattr(npystore, "write_aligned_npy", disk_full)
        for batch in all_batches[:5]:
            ack = apply(*batch)
            assert ack["duplicate"] is False and ack["applied_seq"] == batch[0]
        # The checkpoint due at batch 3 failed once — not again at 4 and 5.
        health = session.query("health")
        assert health["checkpoint_failures"] == 1
        assert "No space left on device" in health["last_checkpoint_error"]
        assert store.sequence_numbers() == [0] and session._journal.segment_first_seqs() == [1]
        assert not list((tmp_path / "checkpoints").glob("*.tmp"))
        # Explicit checkpoints still raise.
        with pytest.raises(OSError):
            session.checkpoint()
    apply(*all_batches[5])  # one interval after the failure: retried, succeeds
    assert store.sequence_numbers() == [0, 6]
    assert session.query("health")["checkpoint_failures"] == 1
    session.close()
