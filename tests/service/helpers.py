"""Shared helpers for the service test suite."""

from __future__ import annotations

import numpy as np

from repro.core.config import TechniqueConfig
from repro.service.session import ReplaySession

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
