"""Columnar wire format: roundtrips, CRC admission, group splitting."""

import numpy as np
import pytest

from repro.service.wire import (OP_BYTES, SUPPORTED_WIRES, WIRE_BINARY, concat_columns,
                                decode_payload, encode_payload, payload_crc, payload_nbytes,
                                split_group_payload)
from tests.service.helpers import make_columns


def test_encode_decode_roundtrip_preserves_columns():
    is_read, lba, length = make_columns(257)
    payload = encode_payload(is_read, lba, length)
    assert len(payload) == payload_nbytes(257) == 257 * OP_BYTES
    out_read, out_lba, out_length = decode_payload(payload, 257)
    np.testing.assert_array_equal(out_read, is_read)
    np.testing.assert_array_equal(out_lba, lba)
    np.testing.assert_array_equal(out_length, length)
    assert out_lba.dtype == np.int64 and out_length.dtype == np.int64


def test_empty_batch_roundtrips():
    payload = encode_payload(*make_columns(0))
    assert payload == b""
    for column in decode_payload(payload, 0):
        assert len(column) == 0


def test_encode_rejects_ragged_columns():
    is_read, lba, length = make_columns(10)
    with pytest.raises(ValueError, match="equal length"):
        encode_payload(is_read[:9], lba, length)


def test_decode_rejects_wrong_size():
    payload = encode_payload(*make_columns(10))
    with pytest.raises(ValueError, match="bytes"):
        decode_payload(payload, 11)
    with pytest.raises(ValueError, match="bytes"):
        decode_payload(payload[:-1], 10)


def test_crc_detects_any_flip():
    payload = bytearray(encode_payload(*make_columns(64)))
    crc = payload_crc(bytes(payload))
    payload[100] ^= 0x40
    assert payload_crc(bytes(payload)) != crc


def test_split_group_payload_roundtrips_uneven_batches():
    counts = [50, 1, 173]
    batches = [make_columns(n, seed=n) for n in counts]
    group = b"".join(encode_payload(*b) for b in batches)
    out = split_group_payload(group, counts)
    assert len(out) == len(batches)
    for (got_r, got_l, got_n), (exp_r, exp_l, exp_n) in zip(out, batches):
        np.testing.assert_array_equal(got_r, exp_r)
        np.testing.assert_array_equal(got_l, exp_l)
        np.testing.assert_array_equal(got_n, exp_n)


def test_split_group_payload_rejects_leftover_bytes():
    group = b"".join(encode_payload(*make_columns(n)) for n in (10, 20))
    with pytest.raises(ValueError, match="group payload"):
        split_group_payload(group, [10])
    with pytest.raises(ValueError):
        split_group_payload(group, [10, 21])


def test_concat_columns_matches_numpy_concatenate():
    batches = [make_columns(n, seed=n) for n in (7, 13, 1)]
    is_read, lba, length = concat_columns(batches)
    np.testing.assert_array_equal(is_read, np.concatenate([b[0] for b in batches]))
    np.testing.assert_array_equal(lba, np.concatenate([b[1] for b in batches]))
    np.testing.assert_array_equal(length, np.concatenate([b[2] for b in batches]))
    # Single batch passes through without copying.
    single = make_columns(5)
    assert concat_columns([single]) is single


def test_supported_wires_lead_with_binary():
    assert SUPPORTED_WIRES == (WIRE_BINARY,) == ("bin",)
