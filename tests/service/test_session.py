"""ReplaySession: WAL contract, dedupe/gap, crash recovery, live queries."""

import errno
import shutil

import numpy as np
import pytest

from repro.core.config import LS, LS_ALL, LS_DEFRAG, NOLS, config_to_dict
from repro.service.checkpoint import CheckpointStore
from repro.service.session import ReplaySession, SequenceGapError
from repro.service.wire import encode_payload
from repro.util.npystore import remove_entry
from tests.service.helpers import (
    CAPACITY,
    batches,
    flip_byte,
    make_columns,
    reference_queries,
    session_queries,
)


def test_apply_acks_and_counts(tmp_path):
    session = ReplaySession.create("t", tmp_path, LS, CAPACITY)
    columns = make_columns(120)
    for seq, is_read, lba, length in batches(columns, 40):
        ack = session.apply_batch(seq, is_read, lba, length)
        assert ack == {
            "seq": seq,
            "applied_seq": seq,
            "ops": seq * 40,
            "duplicate": False,
        }
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


def test_auto_checkpoint_every_interval(tmp_path):
    session = ReplaySession.create(
        "t", tmp_path, LS, CAPACITY, checkpoint_interval_ops=100
    )
    columns = make_columns(250)
    store = CheckpointStore(tmp_path)
    assert store.sequence_numbers() == [0]
    for seq, is_read, lba, length in batches(columns, 50):
        session.apply_batch(seq, is_read, lba, length)
    # Auto-checkpoints fired at 100 and 200 ops (batches 2 and 4).
    assert store.sequence_numbers() == [2, 4]
    session.close()


@pytest.mark.parametrize("config", [LS, LS_DEFRAG, LS_ALL, NOLS], ids=lambda c: c.name)
def test_kill9_recovery_is_bit_identical(tmp_path, config):
    """Abandon a session mid-stream (no close): reopen must replay the
    journal tail onto the checkpoint and match the uninterrupted run."""
    columns = make_columns(400, seed=3)
    expected = reference_queries(tmp_path / "ref", config, columns, batch_ops=40)

    root = tmp_path / "crashed"
    session = ReplaySession.create(
        "t", root, config, CAPACITY, checkpoint_interval_ops=120
    )
    all_batches = batches(columns, 40)
    # 7 batches of 40 ops with a 120-op interval: auto-checkpoints land at
    # batches 3 and 6, so batch 7 lives only in the journal tail.
    for seq, is_read, lba, length in all_batches[:7]:
        session.apply_batch(seq, is_read, lba, length)
    # kill -9: drop the session without close(); journaled batches beyond
    # the newest auto-checkpoint only survive via the WAL.  A torn partial
    # record at the tail (the write the crash interrupted) must not matter.
    with open(session._journal._segment, "ab") as handle:
        handle.write(b"\x31LJR\x00torn")
    del session

    recovered = ReplaySession.open(
        "t", root, config, CAPACITY, checkpoint_interval_ops=120
    )
    assert recovered.applied_seq == 7
    for seq, is_read, lba, length in all_batches[7:]:
        recovered.apply_batch(seq, is_read, lba, length)
    assert session_queries(recovered) == expected
    recovered.close()


def test_checkpoint_header_carrying_a_fast_key_recovers_bit_identical(tmp_path):
    """Headers written while ``TechniqueConfig`` had a ``fast`` field carry
    the key; it changed no simulated number, so it is ignored on open."""
    columns = make_columns(400, seed=3)
    expected = reference_queries(tmp_path / "ref", LS_DEFRAG, columns, batch_ops=40)
    root = tmp_path / "old"
    session = ReplaySession.create(
        "t", root, LS_DEFRAG, CAPACITY, checkpoint_interval_ops=120
    )
    all_batches = batches(columns, 40)
    for seq, is_read, lba, length in all_batches[:7]:
        session.apply_batch(seq, is_read, lba, length)
    del session  # kill -9: batch 7 lives only in the journal tail

    store = CheckpointStore(root)
    for seq in store.sequence_numbers():
        state = store.load(seq)
        assert state["config"] == config_to_dict(LS_DEFRAG)
        state["config"]["fast"] = True
        remove_entry(store.entry_path(seq))
        store.save(seq, state)

    recovered = ReplaySession.open(
        "t", root, LS_DEFRAG, CAPACITY, checkpoint_interval_ops=120
    )
    assert recovered.applied_seq == 7
    for seq, is_read, lba, length in all_batches[7:]:
        recovered.apply_batch(seq, is_read, lba, length)
    assert session_queries(recovered) == expected
    recovered.close()


def test_corrupt_newest_checkpoint_falls_back_bit_identical(tmp_path):
    """Damaged newest checkpoint: recovery must fall back to the previous
    one, replay the *longer* journal tail, and still match exactly."""
    config = LS_DEFRAG
    columns = make_columns(400, seed=5)
    expected = reference_queries(tmp_path / "ref", config, columns, batch_ops=40)

    root = tmp_path / "crashed"
    session = ReplaySession.create(
        "t", root, config, CAPACITY, checkpoint_interval_ops=10**9
    )
    all_batches = batches(columns, 40)
    for seq, is_read, lba, length in all_batches[:4]:
        session.apply_batch(seq, is_read, lba, length)
    session.checkpoint()  # older, intact
    for seq, is_read, lba, length in all_batches[4:7]:
        session.apply_batch(seq, is_read, lba, length)
    newest = session.checkpoint()  # about to be damaged
    largest = max(newest.glob("*.npy"), key=lambda path: path.stat().st_size)
    flip_byte(largest, largest.stat().st_size - 1)
    del session

    recovered = ReplaySession.open("t", root, config, CAPACITY)
    assert recovered.applied_seq == 7  # checkpoint 4 + journal batches 5..7
    for seq, is_read, lba, length in all_batches[7:]:
        recovered.apply_batch(seq, is_read, lba, length)
    assert session_queries(recovered) == expected
    recovered.close()


def test_total_checkpoint_loss_replays_from_scratch(tmp_path):
    config = LS
    columns = make_columns(200, seed=8)
    expected = reference_queries(tmp_path / "ref", config, columns, batch_ops=50)

    root = tmp_path / "crashed"
    session = ReplaySession.create(
        "t", root, config, CAPACITY, checkpoint_interval_ops=10**9
    )
    for seq, is_read, lba, length in batches(columns, 50):
        session.apply_batch(seq, is_read, lba, length)
    del session  # no close: the journal holds everything past checkpoint 0

    # Destroy every checkpoint; only the journal remains.
    import shutil

    shutil.rmtree(root / "checkpoints")
    recovered = ReplaySession.open("t", root, config, CAPACITY)
    assert recovered.applied_seq == 4
    assert session_queries(recovered) == expected
    recovered.close()


def test_wal_of_single_and_group_records_recovers_bit_identical(tmp_path):
    """A tenant directory whose journal holds both record kinds — ``RJL1``
    (per-batch applies) and ``RJG1`` (group commits) — recovers to the
    uninterrupted run's state."""
    config = LS_ALL
    columns = make_columns(450, seed=9)
    expected = reference_queries(tmp_path / "ref", config, columns, batch_ops=50)
    all_batches = batches(columns, 50)

    def apply_group(session, run):
        payload = b"".join(encode_payload(*batch[1:]) for batch in run)
        acks = session.apply_group_payload(run[0][0], [50] * len(run), payload)
        assert all(ack["ok"] for ack in acks)

    root = tmp_path / "crashed"
    session = ReplaySession.create(
        "t", root, config, CAPACITY, checkpoint_interval_ops=10**9
    )
    for batch in all_batches[:2]:
        session.apply_batch(*batch)
    apply_group(session, all_batches[2:5])
    session.apply_batch(*all_batches[5])
    apply_group(session, all_batches[6:9])
    wal = session._journal._segment.read_bytes()
    assert wal.startswith(b"1LJR") and wal.count(b"1GJR") >= 2
    del session  # kill -9: checkpoint zero plus the mixed journal is all there is

    recovered = ReplaySession.open("t", root, config, CAPACITY)
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
    session = ReplaySession.create(
        "t", tmp_path, LS, CAPACITY, checkpoint_interval_ops=100
    )
    for seq, is_read, lba, length in batches(make_columns(250), 50):
        session.apply_batch(seq, is_read, lba, length)
    health = session.query("health")
    assert set(health) == {
        "checkpoints",
        "checkpoint_failures",
        "last_checkpoint_error",
        "last_checkpoint_ms",
        "last_checkpoint_bytes",
        "extent_map",
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
def test_failed_auto_checkpoint_does_not_fail_the_durable_batch(
    tmp_path, monkeypatch, grouped
):
    """ENOSPC under an interval checkpoint: the batch is already journaled
    and applied, so it is acked; the failure is counted, the next interval
    retries, and recovery from the older checkpoint plus the longer WAL
    tail is bit-identical."""
    columns = make_columns(400, seed=3)
    expected = reference_queries(tmp_path / "ref", LS_DEFRAG, columns, batch_ops=40)
    root = tmp_path / "tenant"
    session = ReplaySession.create(
        "t", root, LS_DEFRAG, CAPACITY, checkpoint_interval_ops=120
    )
    store = CheckpointStore(root)

    def apply(seq, is_read, lba, length):
        if not grouped:
            return session.apply_batch(seq, is_read, lba, length)
        (ack,) = session.apply_group_payload(
            seq, [len(lba)], encode_payload(is_read, lba, length)
        )
        assert ack.pop("ok") is True
        return ack

    def disk_full(self, seq, state):
        raise OSError(errno.ENOSPC, "No space left on device")

    all_batches = batches(columns, 40)
    with monkeypatch.context() as patch:
        patch.setattr(CheckpointStore, "save", disk_full)
        for batch in all_batches[:5]:
            ack = apply(*batch)
            assert ack["duplicate"] is False and ack["applied_seq"] == batch[0]
        # The checkpoint due at batch 3 failed once — not again at 4 and 5.
        health = session.query("health")
        assert health["checkpoint_failures"] == 1
        assert "No space left on device" in health["last_checkpoint_error"]
        assert store.sequence_numbers() == [0]
        assert not list(store.directory.glob("*.tmp"))
        # Explicit checkpoints still raise.
        with pytest.raises(OSError):
            session.checkpoint()
    apply(*all_batches[5])  # one interval after the failure: retried, succeeds
    assert store.sequence_numbers() == [0, 6]
    assert session.query("health")["checkpoint_failures"] == 1
    apply(*all_batches[6])
    del session  # kill -9

    # Recovery from checkpoint 0 + the WAL of batches 1..7 (the failed
    # checkpoint never rotated the journal) equals the uninterrupted run.
    shutil.rmtree(store.entry_path(6))
    recovered = ReplaySession.open("t", root, LS_DEFRAG, CAPACITY)
    assert recovered.applied_seq == 7
    for seq, is_read, lba, length in all_batches[7:]:
        recovered.apply_batch(seq, is_read, lba, length)
    assert session_queries(recovered) == expected
    recovered.close()
