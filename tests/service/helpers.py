"""Shared helpers for the service test suite."""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

import numpy as np

from repro.core.config import TechniqueConfig
from repro.service.daemon import DaemonConfig, ReplayDaemon
from repro.service.session import ReplaySession
from repro.service.supervisor import Supervisor

#: Declared LBA capacity for synthetic service streams (sectors).
CAPACITY = 4096


def make_columns(n: int, capacity: int = CAPACITY, seed: int = 7):
    """Deterministic synthetic op columns that fit under ``capacity``."""
    rng = np.random.default_rng(seed)
    length = rng.integers(1, 33, size=n).astype(np.int64)
    lba = rng.integers(0, capacity - 33, size=n).astype(np.int64)
    is_read = rng.random(n) < 0.5
    # Lead with a write so reads can hit translated extents early.
    if n:
        is_read[0] = False
    return np.ascontiguousarray(is_read), lba, length


def batches(columns, batch_ops):
    """Slice op columns into (seq, is_read, lba, length) batches from 1;
    ``batch_ops`` is one size for all of them or a sequence of sizes."""
    if isinstance(batch_ops, int):
        batch_ops = [batch_ops] * -(-len(columns[1]) // batch_ops)
    edges = np.cumsum([0, *batch_ops])
    return [
        (seq, *(column[start:end] for column in columns))
        for seq, (start, end) in enumerate(zip(edges, edges[1:]), start=1)
    ]


def flip_byte(path, offset: int) -> None:
    """Invert the byte of ``path`` at ``offset`` in place."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def send(client, is_read, lba, length, seq=None, deadline_s=None) -> dict:
    """One apply request at ``seq`` (default: the client's next) and its
    reply — the single-batch frame, for tests that set seq or deadline."""
    seq = client.next_seq if seq is None else seq
    if client._file is None:
        client.connect()
    client._file.write(client._apply_frame(is_read, lba, length, seq, deadline_s))
    client._file.flush()
    response = client._read_response()
    if response.get("ok"):
        client.next_seq = max(client.next_seq, seq + 1)
    return response


def reference_queries(tmp_root, config: TechniqueConfig, columns, batch_ops=50) -> dict:
    """Queries of an uninterrupted session fed the whole stream."""
    session = ReplaySession.create("reference", tmp_root, config, CAPACITY, 10**9)
    for batch in batches(columns, batch_ops):
        session.apply_batch(*batch)
    out = session_queries(session)
    session.close()
    return out


def session_queries(session: ReplaySession) -> dict:
    return {
        kind: session.query(kind)
        for kind in ("applied", "stats", "saf", "fragment_cdf", "seek_budget")
    }


class DaemonThread:
    """A real daemon on its own event loop in a background thread, for
    tests that need a live daemon without owning the process."""

    def __init__(
        self, supervisor: Supervisor, config: Optional[DaemonConfig] = None
    ) -> None:
        self.supervisor = supervisor
        self.daemon = ReplayDaemon(supervisor, config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-daemon-thread", daemon=True
        )
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.daemon.start())
        self._started.set()
        self._loop.run_forever()

    def start(self) -> int:
        """Boot the daemon; returns the bound port."""
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("daemon failed to start within 30s")
        return self.daemon.port

    def stop(self) -> None:
        """Clean shutdown: every session checkpoints, loop torn down."""
        future = asyncio.run_coroutine_threadsafe(self.daemon.stop(), self._loop)
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
