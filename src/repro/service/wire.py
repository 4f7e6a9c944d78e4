"""Columnar wire format: one batch = one buffer, end to end.

A batch keeps a *single* byte layout for its whole journey — client
frame, daemon queue, worker pipe, and WAL group record all carry the
same bytes:

    payload(n) = is_read u8[n] · lba i64[n] · length i64[n]   (little-endian)

which is exactly the column triple :meth:`repro.trace.trace.Trace.as_arrays`
produces and :meth:`repro.core.batch.IncrementalBatchReplay.feed_arrays`
consumes, and exactly the payload layout of a journal record — so the
daemon coalesces batches by *byte concatenation* and the session journals
a coalesced group by *byte slicing*, with zero per-op work anywhere.

Framing on the socket is newline-JSON for headers and replies (one small
dict per request), with the binary payload following an ``apply`` header
line verbatim::

    {"op": "apply", "tenant": t, "seq": s, "wire": "bin", "n": N, "crc": C}\n
    <N * OP_BYTES raw bytes>

``crc`` is the CRC-32 of the payload; the daemon verifies it at
admission, before the batch can reach a queue or the WAL.  The ``"wire":
"bin"`` tag is what tells the daemon's reader that a payload follows the
header; an ``apply`` without it is refused (``unknown wire``) and no
payload is read for it.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Tuple

import numpy as np

#: Bytes per op in a columnar payload (u8 flag + i64 lba + i64 length).
OP_BYTES = 1 + 8 + 8

WIRE_BINARY = "bin"

#: Wires the daemon offers in its ``hello`` response.
SUPPORTED_WIRES = (WIRE_BINARY,)


def payload_nbytes(n_ops: int) -> int:
    """Size in bytes of a columnar payload holding ``n_ops`` operations."""
    return int(n_ops) * OP_BYTES


def encode_payload(
    is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
) -> bytes:
    """Pack op columns into one contiguous payload buffer."""
    if not (len(is_read) == len(lba) == len(length)):
        raise ValueError("batch columns must have equal length")
    return (
        np.ascontiguousarray(is_read, dtype=np.uint8).tobytes()
        + np.ascontiguousarray(lba, dtype="<i8").tobytes()
        + np.ascontiguousarray(length, dtype="<i8").tobytes()
    )


def decode_payload(
    payload, n_ops: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack a payload back into ``(is_read, lba, length)`` columns.

    The integer columns are copied out of the byte buffer (they sit at
    odd offsets, and the replay kernels want aligned arrays); the copy is
    one memcpy per column, never per-op work.
    """
    if len(payload) != payload_nbytes(n_ops):
        raise ValueError(
            f"payload is {len(payload)} bytes; {n_ops} ops need "
            f"{payload_nbytes(n_ops)}"
        )
    is_read = np.frombuffer(payload, dtype=np.uint8, count=n_ops).astype(bool)
    lba = np.array(np.frombuffer(payload, dtype="<i8", count=n_ops, offset=n_ops))
    length = np.array(
        np.frombuffer(payload, dtype="<i8", count=n_ops, offset=9 * n_ops)
    )
    return is_read, lba, length


def payload_crc(payload) -> int:
    """CRC-32 of a payload buffer (the frame's admission check)."""
    return zlib.crc32(payload)


def split_group_payload(
    payload, counts: Sequence[int]
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split a concatenation of per-batch payloads back into column triples.

    ``counts[i]`` is the op count of batch ``i``; the group payload is the
    byte concatenation of each batch's :func:`encode_payload`.  Returns one
    ``(is_read, lba, length)`` triple per batch.
    """
    view = memoryview(payload)
    batches = []
    offset = 0
    for n in counts:
        n = int(n)
        nbytes = payload_nbytes(n)
        batches.append(decode_payload(view[offset : offset + nbytes], n))
        offset += nbytes
    if offset != len(view):
        raise ValueError(
            f"group payload is {len(view)} bytes; counts {list(counts)} "
            f"need {offset}"
        )
    return batches


def concat_columns(
    batches: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-batch column triples into one whole-group triple.

    Feeding the concatenation to the resumable engine in one call is
    bit-identical to feeding the batches one by one (the kernels are
    chunk-size invariant; ``tests/differential`` holds the proof), and
    pays the per-call overhead once per *group* instead of per batch.
    """
    if len(batches) == 1:
        return batches[0]
    return (
        np.concatenate([b[0] for b in batches]),
        np.concatenate([b[1] for b in batches]),
        np.concatenate([b[2] for b in batches]),
    )
