"""The daemon's one decoder answers every request it cannot serve.

A real socket, raw bytes: each malformed or retired-wire request gets
exactly one structured ``ok: false`` reply, the stream stays in sync (the
next requests on the same socket are answered) and no refused batch
reaches the tenant.  The seeded loop at the end is the first slice of a
wire fuzz: mutated ``apply`` headers, each followed by exactly the
payload its header announces.
"""

import json
import random
import socket

import pytest

from repro.core.config import LS
from repro.service import daemon
from repro.service.client import ReplayClient
from repro.service.supervisor import Supervisor
from repro.service.wire import OP_BYTES, encode_payload, payload_crc
from tests.service.helpers import CAPACITY, DaemonThread, make_columns

MAX_FRAME_BYTES = 4096  # cheap to exceed
TOO_MANY_OPS = MAX_FRAME_BYTES // OP_BYTES + 1
PAYLOAD = encode_payload(*make_columns(3, seed=41))
CRC = payload_crc(PAYLOAD)
JSON_OPS = {"is_read": [0, 1, 0], "lba": [0, 8, 16], "length": [8, 8, 8]}


@pytest.fixture(scope="module")
def port(tmp_path_factory):
    server = DaemonThread(Supervisor(tmp_path_factory.mktemp("protocol-state")))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(daemon, "MAX_FRAME_BYTES", MAX_FRAME_BYTES)
        port = server.start()
        with ReplayClient("127.0.0.1", port, "t") as client:
            client.open(LS, CAPACITY)
        yield port
        server.stop()


def exchange(client: ReplayClient, sent: bytes) -> dict:
    """Raw bytes out, one reply line in — no client-side framing help."""
    client._file.write(sent)
    client._file.flush()
    reply = client._file.readline()
    assert reply, "daemon closed the connection without replying"
    return json.loads(reply)


def line(message) -> bytes:
    return json.dumps(message).encode() + b"\n"


def apply_line(**overrides) -> bytes:
    """A valid 3-op apply header for tenant ``t``; ``key=...`` drops a key."""
    header = {"op": "apply", "tenant": "t", "seq": 1, "wire": "bin", "n": 3, "crc": CRC}
    header.update(overrides)
    return line({key: value for key, value in header.items() if value is not ...})


def decoder(error: str, **rest) -> dict:
    """What the connection reader's own refusals carry besides ``ok``."""
    return {"error": error, "kind": "ValueError", **rest}


#: (case, bytes sent, what the reply must hold; ``error`` by substring)
CASES = [
    ("bad json", b"this is not json\n", decoder("bad json")),
    ("not utf-8", b"\xff\xfe{}\n", decoder("bad json")),
    ("nested past the parser's depth", b"[" * 50_000 + b"\n", decoder("bad json")),
    ("json array", b"[]\n", decoder("JSON object")),
    ("json scalar", b"42\n", decoder("JSON object")),
    ("json null", b"null\n", decoder("JSON object")),
    ("missing tenant", line({"op": "query", "kind": "stats"}), {"error": "tenant"}),
    ("unknown op", line({"op": "frobnicate", "tenant": "t"}), {"error": "unknown op"}),
    (
        "non-numeric deadline",
        line({"op": "query", "tenant": "t", "deadline_s": "soon"}),
        decoder("soon"),
    ),
    (
        "apply without a wire",
        apply_line(wire=..., n=..., crc=..., ops=JSON_OPS),
        decoder("unknown wire None"),
    ),
    (
        "apply on the retired json wire",
        apply_line(wire="json", n=..., crc=..., ops=JSON_OPS),
        decoder("unknown wire 'json'"),
    ),
    (
        "apply on the retired ref wire",
        apply_line(wire="ref", n=..., crc=..., key="00" * 32, start=0, stop=3),
        decoder("unknown wire 'ref'"),
    ),
    ("n negative", apply_line(n=-1), decoder("op count")),
    ("n a string", apply_line(n="3"), decoder("op count")),
    ("n a float", apply_line(n=3.0), decoder("op count")),
    ("n a bool", apply_line(n=True), decoder("op count")),
    ("n missing", apply_line(n=...), decoder("op count")),
    ("crc a string", apply_line(crc="abc") + PAYLOAD, decoder("crc")),
    ("crc a float", apply_line(crc=float(CRC)) + PAYLOAD, decoder("crc")),
    ("crc mismatch", apply_line(crc=CRC ^ 1) + PAYLOAD, decoder("crc mismatch")),
    ("seq a string", apply_line(seq="first") + PAYLOAD, {"error": "bad apply header"}),
    ("seq missing", apply_line(seq=...) + PAYLOAD, {"error": "bad apply header"}),
    (
        "oversized frame",
        apply_line(n=TOO_MANY_OPS, crc=...) + bytes(TOO_MANY_OPS * OP_BYTES),
        decoder("too_large", what="frame", max_frame_bytes=MAX_FRAME_BYTES),
    ),
    (
        "oversized line",
        line({"op": "ping", "pad": "x" * (daemon.MAX_LINE_BYTES + 1)}),
        decoder("too_large", what="line", max_line_bytes=64 * 1024),
    ),
]


@pytest.mark.parametrize("sent, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refused_request_gets_one_reply_and_the_stream_stays_usable(port, sent, expected):
    with ReplayClient("127.0.0.1", port, "t") as client:
        refusal = exchange(client, sent)
        assert refusal["ok"] is False
        wanted = dict(expected)
        assert wanted.pop("error") in refusal["error"]
        assert {key: refusal[key] for key in wanted} == wanted
        # Replies are FIFO: were the refusal followed by a second reply,
        # or had the daemon misjudged how many bytes the request held,
        # these two would not be the answers to these two questions.
        ping = client.request({"op": "ping"})
        assert ping["ok"] and "t" in ping["tenants"]
        assert client.query("applied") == {"applied_seq": 0, "ops": 0}


def test_past_the_transport_limit_or_torn_mid_frame_only_that_connection_ends(
        tmp_path, monkeypatch):
    monkeypatch.setattr(daemon, "MAX_LINE_BYTES", 64)
    server = DaemonThread(Supervisor(tmp_path))
    port = server.start()  # with a transport limit of twice that
    monkeypatch.undo()
    try:
        with ReplayClient("127.0.0.1", port, "t") as client:
            assert exchange(client, b"x" * 300 + b"\n")["what"] == "line"
            assert client._file.readline() == b""  # and hung up
        with ReplayClient("127.0.0.1", port, "t") as client:
            client._file.write(apply_line() + PAYLOAD[:5])
            client._file.flush()
            client._sock.shutdown(socket.SHUT_WR)  # the client dies mid-frame
            assert client._file.readline() == b""
        with ReplayClient("127.0.0.1", port, "t") as client:
            assert client.request({"op": "ping"})["ok"]
    finally:
        server.stop()


#: Values a mutated header field may take.  No "shutdown" (the daemon
#: must outlive the loop) and no "t" (the table above pins that tenant).
_VALUES = (
    None, True, False, -1, 0, 1, 2, 3, 7, 1.5, -0.0, "", "x", "3", "bin", "json",
    "ref", "fuzz", "apply", "open", "query", "close", "checkpoint", "ping",
    "hello", [], [1], {}, {"a": 1}, CRC, 2**31, 2**63,
)
#: ``n`` stays small enough that the payload it announces is cheap to
#: send, and crosses MAX_FRAME_BYTES (240 ops fit, 241 do not).
_N_VALUES = (None, True, -1, 0, 1, 2, 3, 240, 241, 300, 1.5, "3", [], {})
_KEYS = ("op", "tenant", "seq", "wire", "n", "crc", "deadline_s", "kind", "ops", "config")


def _announced_payload_bytes(sent: bytes) -> int:
    """The framing rule: an object with op ``apply``, wire ``bin`` and an
    integer ``n >= 0`` is followed by ``n`` ops of payload — nothing else is."""
    try:
        header = json.loads(sent)
    except ValueError:
        return 0
    if not isinstance(header, dict) or header.get("op") != "apply":
        return 0
    n = header.get("n")
    if header.get("wire") != "bin" or type(n) is not int or n < 0:
        return 0
    return n * OP_BYTES


@pytest.mark.slow
def test_mutated_headers_always_get_a_reply(port):
    rng = random.Random(0)
    seq = 1
    with ReplayClient("127.0.0.1", port, "fuzz") as client:
        client.open(LS, CAPACITY)
        for _ in range(400):
            header = {
                "op": "apply", "tenant": "fuzz", "seq": seq, "wire": "bin",
                "n": 3, "crc": CRC,
            }
            for _ in range(rng.randint(1, 3)):
                key = rng.choice(_KEYS)
                if rng.random() < 0.25:
                    header.pop(key, None)
                else:
                    header[key] = rng.choice(_N_VALUES if key == "n" else _VALUES)
            sent = json.dumps(header).encode()
            roll = rng.random()
            if roll < 0.1:  # not an object at all
                sent = json.dumps(rng.choice(_VALUES)).encode()
            elif roll < 0.25:  # damaged text: a flipped byte or a torn end
                damaged = bytearray(sent)
                if rng.random() < 0.5:
                    damaged[rng.randrange(len(damaged))] = rng.randrange(256)
                else:
                    del damaged[rng.randrange(1, len(damaged)) :]
                sent = bytes(damaged).replace(b"\n", b" ")
            n_bytes = _announced_payload_bytes(sent)
            body = PAYLOAD if n_bytes == len(PAYLOAD) else rng.randbytes(n_bytes)
            reply = exchange(client, sent + b"\n" + body)
            assert isinstance(reply.get("ok"), bool)
            if reply["ok"] and "applied_seq" in reply:
                seq = reply["applied_seq"] + 1  # the mutation left a valid batch
            if reply.get("closed"):  # ...or a valid close: carry on fuzzing applies
                client.open(LS, CAPACITY)
        assert client.request({"op": "ping"})["ok"]

    is_read, lba, length = make_columns(50, seed=42)
    with ReplayClient("127.0.0.1", port, "after") as client:
        client.open(LS, CAPACITY)
        assert client.apply_stream([(is_read, lba, length)])["ok"]
        assert client.query("applied") == {"applied_seq": 1, "ops": 50}
