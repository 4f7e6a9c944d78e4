"""OpJournal: fsynced WAL append, torn-tail truncation, segments, pruning."""

import struct

import numpy as np
import pytest

from repro.service.journal import OpJournal
from repro.service.wire import encode_payload
from tests.service.helpers import make_columns


def _batch(seq: int, n: int = 8):
    is_read, lba, length = make_columns(n, seed=seq)
    return seq, is_read, lba, length


def test_append_replay_roundtrip(tmp_path):
    journal = OpJournal(tmp_path)
    journal.open_segment(1)
    sent = [_batch(seq) for seq in (1, 2, 3)]
    for seq, is_read, lba, length in sent:
        journal.append(seq, is_read, lba, length)
    journal.close()

    records = list(OpJournal(tmp_path).replay_after(0))
    assert [r.seq for r in records] == [1, 2, 3]
    for record, (_, is_read, lba, length) in zip(records, sent):
        np.testing.assert_array_equal(record.is_read, is_read)
        np.testing.assert_array_equal(record.lba, lba)
        np.testing.assert_array_equal(record.length, length)
        assert record.lba.dtype == np.int64


def test_replay_after_skips_absorbed_batches(tmp_path):
    journal = OpJournal(tmp_path)
    journal.open_segment(1)
    for seq in (1, 2, 3, 4):
        journal.append(seq, *_batch(seq)[1:])
    journal.close()
    assert [r.seq for r in OpJournal(tmp_path).replay_after(2)] == [3, 4]


def _two_records(root, group):
    """A segment holding batch 1, then batch 2 as a batch or a group record;
    returns the segment and its bytes up to the end of batch 1."""
    journal = OpJournal(root)
    journal.open_segment(1)
    journal.append(1, *_batch(1)[1:])
    segment = root / "journal" / "seg-000000000001.log"
    intact = segment.read_bytes()
    if group:
        payload = b"".join(encode_payload(*_batch(seq, n)[1:]) for seq, n in ((2, 3), (3, 5)))
        journal.append_group(2, [3, 5], payload)
    else:
        journal.append(2, *_batch(2)[1:])
    journal.close()
    return segment, intact


def test_torn_tail_is_truncated_in_place(tmp_path):
    # A tear at every byte of the last record, batch or group, truncates
    # back to batch 1.
    for root in (tmp_path / "batch", tmp_path / "group"):
        segment, intact = _two_records(root, group=root.name == "group")
        whole = segment.read_bytes()
        for cut in range(len(intact) + 1, len(whole)):
            segment.write_bytes(whole[:cut])
            assert [r.seq for r in OpJournal(root).replay_after(0)] == [1]
            assert segment.read_bytes() == intact


def test_corrupt_crc_drops_record_and_tail(tmp_path):
    for root in (tmp_path / "batch", tmp_path / "group"):
        segment, _ = _two_records(root, group=root.name == "group")
        data = bytearray(segment.read_bytes())
        # Flip a payload byte of the *last* record; CRC catches it and the
        # scan stops at the still-intact first record.
        data[-3] ^= 0xFF
        segment.write_bytes(data)
        assert [r.seq for r in OpJournal(root).replay_after(0)] == [1]


def test_retired_by_reference_record_raises_instead_of_truncating(tmp_path):
    journal = OpJournal(tmp_path)
    journal.open_segment(1)
    journal.append(1, *_batch(1)[1:])
    journal.close()
    segment = tmp_path / "journal" / "seg-000000000001.log"
    intact = segment.read_bytes()
    # As the retired writer framed it: magic "RJR1", seq, start, stop, crc,
    # then the 32-byte pool key.  An acknowledged batch this version cannot
    # decode is not a torn tail.
    by_reference = struct.pack("<IQQQI", 0x524A5231, 2, 0, 8, 0) + bytes(32)
    segment.write_bytes(intact + by_reference)
    with pytest.raises(ValueError, match="by-reference records are no longer supported"):
        list(OpJournal(tmp_path).replay_after(0))
    assert segment.read_bytes() == intact + by_reference

    # Any other unknown magic is still a tear: truncated, nothing raised.
    segment.write_bytes(intact + b"1XJR" + by_reference[4:])
    assert [r.seq for r in OpJournal(tmp_path).replay_after(0)] == [1]
    assert segment.read_bytes() == intact


def test_gap_between_segments_raises(tmp_path):
    journal = OpJournal(tmp_path)
    journal.open_segment(1)
    journal.append(1, *_batch(1)[1:])
    journal.rotate(4)
    journal.append(4, *_batch(4)[1:])
    journal.close()
    with pytest.raises(ValueError, match="journal gap"):
        list(OpJournal(tmp_path).replay_after(0))


def test_rotate_and_prune_respect_retained_needs(tmp_path):
    journal = OpJournal(tmp_path)
    journal.open_segment(1)
    journal.append(1, *_batch(1)[1:])
    journal.rotate(2)
    journal.append(2, *_batch(2)[1:])
    journal.rotate(3)
    journal.append(3, *_batch(3)[1:])
    assert journal.segment_first_seqs() == [1, 2, 3]

    # A checkpoint retained at batch 1 still needs seg-2; only seg-1 goes.
    journal.prune_below(2)
    assert journal.segment_first_seqs() == [2, 3]
    # The live (last) segment is never pruned.
    journal.prune_below(10)
    assert journal.segment_first_seqs() == [3]
    assert [r.seq for r in journal.replay_after(2)] == [3]
    journal.close()


def test_record_layouts_are_pinned(tmp_path):
    """One RJL1 record and one RJG1 group, byte for byte (little-endian)."""
    journal = OpJournal(tmp_path)
    journal.open_segment(1)
    journal.append(1, np.array([True, False]), np.array([8, 16]), np.array([8, 24]))
    journal.append_group(
        2, [1, 2],
        encode_payload(np.array([False]), np.array([32]), np.array([8]))
        + encode_payload(np.array([True, True]), np.array([0, 2**40]), np.array([1, 4096])),
    )
    journal.close()
    (segment,) = (tmp_path / "journal").iterdir()
    assert segment.read_bytes().hex() == (
        "314c4a52" "0100000000000000" "02000000" "a4c3c125"  # RJL1, seq, n, crc
        "0100" "0800000000000000" "1000000000000000" "0800000000000000" "1800000000000000"
        "31474a52" "0200000000000000" "02000000" "be1268b2"  # RJG1, first_seq, k, crc
        "01000000" "02000000"  # ops per batch
        "00" "2000000000000000" "0800000000000000"
        "0101" "0000000000000000" "0000000000010000" "0100000000000000" "0010000000000000"
    )
    records = list(OpJournal(tmp_path).replay_after(0))
    assert [(r.seq, r.lba.tolist()) for r in records] == [(1, [8, 16]), (2, [32]), (3, [0, 2**40])]
