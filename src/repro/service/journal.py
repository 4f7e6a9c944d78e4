"""Write-ahead op journal: the recovery half of checkpoint + journal.

Checkpoints are periodic; every batch *between* checkpoints must survive
``kill -9`` too, or recovered stats drift from the uninterrupted run.
The session therefore journals each batch — fsynced — **before** applying
it to the resident engine (classic WAL ordering): if the process dies
mid-apply, recovery replays the journaled batch on top of the restored
checkpoint and reaches the identical state; if it dies before the journal
write completes, the torn record is truncated away and the client (which
never got an acknowledgement) resends.

Record formats, little-endian, self-delimiting (dispatch on the leading
magic).  A single batch::

    magic   u32   0x524A4C31 ("RJL1")
    seq     u64   batch sequence number (contiguous per tenant, from 1)
    n       u32   ops in the batch
    crc     u32   CRC-32 of the payload bytes
    payload       is_read u8[n] · lba i64[n] · length i64[n]

A **coalesced group** (the group-commit frame: one CRC, one fsync for a
whole run of contiguous batches — see :meth:`OpJournal.append_group`)::

    magic     u32   0x524A4731 ("RJG1")
    first_seq u64   sequence number of the group's first batch
    k         u32   batches in the group
    crc       u32   CRC-32 of counts + payload
    counts    u32[k]  ops per batch
    payload         per-batch payloads, concatenated in batch order

The group payload is the byte concatenation of each batch's single-batch
payload (the :mod:`repro.service.wire` layout), so the daemon's coalesced
buffer journals verbatim — no re-encoding between the socket and the WAL.

Torn tails are detected structurally (short header/payload, unknown
magic) or by CRC and truncated in place; anything before the tear is
intact because each record (or group) was fsynced before acknowledgement.
The one magic that is *not* a tear is the retired by-reference record
("RJR1", ops held in an external pool): it marks acknowledged batches
this version cannot decode, so recovery raises instead of truncating.

Segments: one append-only file per checkpoint epoch,
``<root>/journal/seg-<first_seq:012d>.log`` (named by the first batch seq
it may contain).  After a checkpoint at batch ``S`` the session rotates
to ``seg-<S+1>``; pruning keeps every segment that any *retained*
checkpoint might need, so falling back to the older checkpoint always
finds its tail.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.service.wire import decode_payload, encode_payload, payload_nbytes

_MAGIC = 0x524A4C31
_HEADER = struct.Struct("<IQII")  # magic, seq, n, crc
_GROUP_MAGIC = 0x524A4731
_GROUP_HEADER = struct.Struct("<IQII")  # magic, first_seq, k, crc
_RETIRED_REF_MAGIC = 0x524A5231


class JournalRecord:
    """One journaled batch, decoded back to column arrays."""

    __slots__ = ("seq", "is_read", "lba", "length")

    def __init__(
        self, seq: int, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        self.seq = seq
        self.is_read = is_read
        self.lba = lba
        self.length = length


def _scan_one(data: bytes, offset: int):
    """Decode the record starting at ``offset``; ``(records, end)`` or None.

    Returns None on any structural damage or CRC mismatch — the caller
    truncates there.  A group record expands into one
    :class:`JournalRecord` per member batch.  Raises ``ValueError`` on a
    retired by-reference record (see module docs).
    """
    if offset + 4 > len(data):
        return None
    (magic,) = struct.unpack_from("<I", data, offset)
    if magic == _MAGIC:
        if offset + _HEADER.size > len(data):
            return None
        _, seq, n, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + payload_nbytes(n)
        if end > len(data):
            return None
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            return None
        return [JournalRecord(seq, *decode_payload(payload, n))], end
    if magic == _GROUP_MAGIC:
        if offset + _GROUP_HEADER.size > len(data):
            return None
        _, first_seq, k, crc = _GROUP_HEADER.unpack_from(data, offset)
        counts_at = offset + _GROUP_HEADER.size
        payload_at = counts_at + 4 * k
        if payload_at > len(data):
            return None
        counts = struct.unpack_from(f"<{k}I", data, counts_at)
        end = payload_at + payload_nbytes(sum(counts))
        if end > len(data):
            return None
        if zlib.crc32(data[counts_at:end]) != crc:
            return None
        records = []
        at = payload_at
        for i, n in enumerate(counts):
            nxt = at + payload_nbytes(n)
            records.append(JournalRecord(first_seq + i, *decode_payload(data[at:nxt], n)))
            at = nxt
        return records, end
    if magic == _RETIRED_REF_MAGIC:
        raise ValueError(
            f"journal record at byte {offset}: by-reference records are no "
            "longer supported"
        )
    return None


def _scan_segment(path: Path, truncate_torn: bool) -> List[JournalRecord]:
    """Decode a segment, optionally truncating a torn/corrupt tail in place.

    Valid records strictly precede the first damaged byte (records are
    fsynced in order), so truncation never discards acknowledged data.
    """
    records: List[JournalRecord] = []
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    good_end = 0
    while offset < len(data):
        decoded = _scan_one(data, offset)
        if decoded is None:
            break
        batch_records, offset = decoded
        records.extend(batch_records)
        good_end = offset
    if truncate_torn and good_end < len(data):
        with open(path, "r+b") as handle:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
    return records


class OpJournal:
    """Per-session segmented WAL of op batches.

    Args:
        root: Session directory; segments live in ``root/journal``.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._dir = Path(root) / "journal"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._handle = None
        self._segment: Optional[Path] = None

    @property
    def directory(self) -> Path:
        return self._dir

    def segment_first_seqs(self) -> List[int]:
        segments = self._dir.glob("seg-" + "[0-9]" * 12 + ".log")
        return sorted(int(entry.name[len("seg-") : -len(".log")]) for entry in segments)

    def _segment_path(self, first_seq: int) -> Path:
        return self._dir / f"seg-{first_seq:012d}.log"

    # ----------------------------------------------------------------- #
    # Writing
    # ----------------------------------------------------------------- #

    def open_segment(self, first_seq: int) -> None:
        """Start (or reopen for append) the segment beginning at ``first_seq``."""
        self.close()
        self._segment = self._segment_path(first_seq)
        self._handle = open(self._segment, "ab")

    def append(
        self, seq: int, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        """Durably journal one batch (fsync before returning)."""
        payload = encode_payload(is_read, lba, length)
        self._write_durably(
            _HEADER.pack(_MAGIC, seq, len(lba), zlib.crc32(payload)) + payload
        )

    def append_group(
        self, first_seq: int, counts: Sequence[int], payload: bytes
    ) -> None:
        """Durably journal a coalesced run of contiguous batches.

        ``payload`` is the byte concatenation of the batches' columnar
        payloads (:mod:`repro.service.wire` layout) and ``counts[i]`` the
        op count of batch ``first_seq + i``.  The whole group lands as one
        record under one CRC with **one** fsync — the group-commit write;
        recovery expands it back into per-batch records, so dedupe/gap
        semantics are unchanged.
        """
        k = len(counts)
        counts_bytes = struct.pack(f"<{k}I", *counts)
        expected = payload_nbytes(sum(int(n) for n in counts))
        if len(payload) != expected:
            raise ValueError(
                f"group payload is {len(payload)} bytes; counts need {expected}"
            )
        crc = zlib.crc32(counts_bytes + payload)
        self._write_durably(
            _GROUP_HEADER.pack(_GROUP_MAGIC, first_seq, k, crc)
            + counts_bytes
            + payload
        )

    def _write_durably(self, blob: bytes) -> None:
        if self._handle is None:
            raise RuntimeError("journal segment not open; call open_segment first")
        self._handle.write(blob)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rotate(self, next_seq: int) -> None:
        """Close the live segment and start ``seg-<next_seq>`` (post-checkpoint)."""
        self.open_segment(next_seq)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._segment = None

    # ----------------------------------------------------------------- #
    # Recovery
    # ----------------------------------------------------------------- #

    def replay_after(self, applied_seq: int) -> Iterator[JournalRecord]:
        """Records with ``seq > applied_seq`` across segments, in order.

        Group records are expanded into their member batches.

        Scans every segment that could contain such records (ascending),
        truncating torn tails as it goes.  Records at or below
        ``applied_seq`` — duplicates the checkpoint already absorbed — are
        skipped; a gap in the remainder raises, because it means a
        journal segment was lost and recovered stats could silently
        diverge (losing the *tail* is indistinguishable from a clean
        stop; losing a *middle* segment is not).
        """
        expected = applied_seq + 1
        for first_seq in self.segment_first_seqs():
            path = self._segment_path(first_seq)
            for record in _scan_segment(path, truncate_torn=True):
                if record.seq <= applied_seq:
                    continue
                if record.seq != expected:
                    raise ValueError(
                        f"journal gap: expected batch {expected}, "
                        f"found {record.seq} in {path.name}"
                    )
                expected += 1
                yield record

    def prune_below(self, first_seq_needed: int) -> None:
        """Delete whole segments no retained checkpoint can need.

        A segment is removable only when the *next* segment still covers
        ``first_seq_needed`` (i.e. its own range ends strictly below it).
        """
        seqs = self.segment_first_seqs()
        for first, nxt in zip(seqs, seqs[1:]):
            if nxt <= first_seq_needed:
                try:
                    self._segment_path(first).unlink()
                except OSError:
                    pass
