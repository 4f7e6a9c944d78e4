"""Open-loop load generator for the replay daemon.

One thread, one ``selectors`` loop, two connections: batches go out on the
apply connection when they are *due*, acks are read whenever they arrive,
and ``stats`` queries tick on their own schedule on the second connection.
Every latency is taken from the time the request was due, not from the
time it left: when the daemon stalls (a checkpoint blocks the tenant's
only worker) later batches queue behind the in-flight cap, and their wait
is part of what a client at this offered rate sees.  ``repro.load`` times
send→ack inside a pipelining client that only reads acks once its window
is full, which measures the window, not the daemon — so nothing of it is
used here.

The generator never retries: a shed, an error or a sequence-gap reply is a
failed batch, counted and reported.  A run in which the generator itself
sent late is reported invalid.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.service.wire import WIRE_BINARY, encode_payload, payload_crc

#: A send that leaves more than this late while the in-flight cap is not
#: the reason invalidates the run: the generator, not the daemon, was slow.
MAX_GEN_LATE_MS = 20.0

_SPIN_S = 0.0015  # select() sleeps in whole ms; spin through the last one


def encode_frame(tenant: str, seq: int, is_read, lba, length) -> bytes:
    """One binary-wire ``apply`` request: JSON header line + columnar body."""
    payload = encode_payload(is_read, lba, length)
    header = {
        "op": "apply",
        "tenant": tenant,
        "seq": seq,
        "wire": WIRE_BINARY,
        "n": int(len(lba)),
        "crc": payload_crc(payload),
    }
    return json.dumps(header).encode("utf-8") + b"\n" + payload


def query_frame(tenant: str, kind: str) -> bytes:
    return json.dumps({"op": "query", "tenant": tenant, "kind": kind}).encode() + b"\n"


class Connection:
    """A socket to the daemon: blocking for set-up, non-blocking in a phase."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rbuf = bytearray()
        self._wbuf: deque = deque()

    def request(self, message: dict) -> dict:
        """Blocking request/response (set-up and tear-down only)."""
        self.sock.setblocking(True)
        self.sock.settimeout(60.0)
        self.sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
        while b"\n" not in self._rbuf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self._rbuf += chunk
        line, _, rest = bytes(self._rbuf).partition(b"\n")
        self._rbuf = bytearray(rest)
        return json.loads(line)

    def queue(self, frame: bytes) -> None:
        self._wbuf.append(memoryview(frame))

    @property
    def wants_write(self) -> bool:
        return bool(self._wbuf)

    def flush(self) -> None:
        """Write as much queued data as the socket takes without blocking."""
        while self._wbuf:
            view = self._wbuf[0]
            try:
                sent = self.sock.send(view)
            except (BlockingIOError, InterruptedError):
                return
            if sent == len(view):
                self._wbuf.popleft()
            else:
                self._wbuf[0] = view[sent:]

    def read_lines(self) -> List[bytes]:
        """Every complete response line currently readable."""
        try:
            chunk = self.sock.recv(262144)
        except (BlockingIOError, InterruptedError):
            return []
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._rbuf += chunk
        if b"\n" not in chunk:
            return []
        *lines, rest = bytes(self._rbuf).split(b"\n")
        self._rbuf = bytearray(rest)
        return lines

    def close(self) -> None:
        self.sock.close()


@dataclass
class PhaseResult:
    """What one phase saw.  Times are ``time.perf_counter`` seconds."""

    batches: int
    batch_ops: int
    started: float = 0.0
    finished: float = 0.0
    apply_ms: List[float] = field(default_factory=list)   # due -> ack, acked batches
    late_ms: List[float] = field(default_factory=list)    # send lateness, cap excluded
    query_ms: List[float] = field(default_factory=list)   # due -> reply
    queries: int = 0
    failed_batches: int = 0
    failed_queries: int = 0
    shed: int = 0
    resyncs: int = 0
    ack_reads: int = 0       # reads that carried at least one ack
    timed_out: bool = False

    @property
    def wall_s(self) -> float:
        return self.finished - self.started

    @property
    def acked_ops(self) -> int:
        return len(self.apply_ms) * self.batch_ops

    @property
    def valid(self) -> bool:
        """Whether the generator, as opposed to the daemon, kept up."""
        late = float(np.percentile(self.late_ms, 99)) if self.late_ms else 0.0
        return not self.timed_out and late <= MAX_GEN_LATE_MS


def run_phase(
    apply_conn: Connection,
    frames: Sequence[bytes],
    first_seq: int,
    batch_ops: int,
    in_flight_cap: int,
    rate_ops_per_s: Optional[float] = None,
    query_conn: Optional[Connection] = None,
    query: Optional[bytes] = None,
    query_hz: float = 0.0,
    timeout_s: float = 90.0,
) -> PhaseResult:
    """Send ``frames`` (seq ``first_seq``…) and collect every ack.

    With ``rate_ops_per_s`` the phase is open loop: batch *i* is due at
    ``start + i * batch_ops / rate`` whatever happened to the ones before
    it.  Without it the phase is closed loop at saturation: a batch is due
    the moment a slot under ``in_flight_cap`` is free.  Queries (open loop
    only) are due every ``1 / query_hz`` s for as long as batches are due;
    one is outstanding at a time, and a query whose turn came while its
    predecessor was still unanswered is sent late and timed from its due
    time — never skipped.
    """
    n = len(frames)
    interval = batch_ops / rate_ops_per_s if rate_ops_per_s else 0.0
    n_queries = int(n * interval * query_hz) if query_conn is not None else 0
    result = PhaseResult(batches=n, batch_ops=batch_ops, queries=n_queries)

    selector = selectors.DefaultSelector()
    apply_conn.sock.setblocking(False)
    selector.register(apply_conn.sock, selectors.EVENT_READ, apply_conn)
    if n_queries:
        query_conn.sock.setblocking(False)
        selector.register(query_conn.sock, selectors.EVENT_READ, query_conn)

    clock = time.perf_counter
    start = result.started = clock()
    give_up = start + timeout_s
    due_at = deque()        # due time of each in-flight batch, send order
    next_batch = 0
    acked = 0
    slot_free_at = start    # when the in-flight count last dropped below the cap
    next_query = 0
    answered = 0
    query_due_at: Optional[float] = None  # due time of the outstanding query

    try:
        while acked + result.failed_batches < n or answered < n_queries:
            now = clock()
            if now > give_up:
                result.timed_out = True
                break
            # -- send whatever is due ---------------------------------- #
            while next_batch < n and len(due_at) < in_flight_cap:
                due = start + next_batch * interval if interval else now
                if due > now:
                    break
                apply_conn.queue(frames[next_batch])
                apply_conn.flush()
                result.late_ms.append((clock() - max(due, slot_free_at)) * 1e3)
                due_at.append(due)
                next_batch += 1
            if next_query < n_queries and query_due_at is None:
                due = start + next_query / query_hz
                if due <= now:
                    query_conn.queue(query)
                    query_conn.flush()
                    query_due_at = due
                    next_query += 1
            # -- sleep until the next due time or the next reply ------- #
            wake = give_up
            if next_batch < n and len(due_at) < in_flight_cap:
                wake = min(wake, start + next_batch * interval)
            if next_query < n_queries and query_due_at is None:
                wake = min(wake, start + next_query / query_hz)
            wait = wake - clock()
            for conn in (apply_conn, query_conn):
                if conn is not None and conn.wants_write:
                    selector.modify(
                        conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
                    )
            events = selector.select(0 if wait < _SPIN_S else wait - _SPIN_S)
            for key, mask in events:
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                    if not conn.wants_write:
                        selector.modify(conn.sock, selectors.EVENT_READ, conn)
                if not mask & selectors.EVENT_READ:
                    continue
                lines = conn.read_lines()
                got = clock()
                if conn is apply_conn:
                    if lines:
                        result.ack_reads += 1
                    for line in lines:
                        reply = json.loads(line)
                        due = due_at.popleft()
                        seq = first_seq + acked + result.failed_batches
                        if (
                            reply.get("ok")
                            and reply.get("seq") == seq
                            and not reply.get("duplicate")
                        ):
                            result.apply_ms.append((got - due) * 1e3)
                            acked += 1
                        else:
                            result.failed_batches += 1
                            result.shed += bool(reply.get("shed"))
                            result.resyncs += reply.get("kind") == "SequenceGapError"
                        if len(due_at) == in_flight_cap - 1:
                            slot_free_at = got
                else:
                    for line in lines:
                        reply = json.loads(line)
                        if reply.get("ok"):
                            result.query_ms.append((got - query_due_at) * 1e3)
                        else:
                            result.failed_queries += 1
                        answered += 1
                        query_due_at = None
    finally:
        selector.close()
    result.finished = clock()
    # Whatever never came back failed.
    result.failed_batches += n - acked - result.failed_batches
    result.failed_queries += n_queries - answered
    return result
