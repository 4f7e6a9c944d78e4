"""Concurrent same-key writers: the loser detects the winner.

Two processes publishing the same store entry is the normal steady state
of a shared on-disk store (``--jobs N`` workers, several hosts on one
filesystem).  The commit discipline makes the race *safe* — one atomic
rename wins — but safety alone is not enough: the loser must *know* it
lost, reuse the published entry, and report the outcome as a hit so the
caller's accounting stays truthful.  These tests race two real processes
through a barrier so both writers build their temp directories before
either publishes.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.trace.store import TraceStore, synthetic_meta
from repro.util.npystore import commit_entry_dir, load_mmap_npy
from repro.workloads import synthesize_workload

SEED, SCALE = 11, 0.01


def _entry_arrays():
    return {"payload": np.arange(2048, dtype=np.int64)}


def _race_commit(root: str, barrier, queue) -> None:
    arrays = _entry_arrays()
    barrier.wait()
    outcome = commit_entry_dir(Path(root) / "entry", arrays, {"schema": 1})
    queue.put(bool(outcome.won))


def _race_trace_store(root: str, barrier, queue) -> None:
    trace = synthesize_workload("hm_1", seed=SEED, scale=SCALE)
    meta = synthetic_meta("hm_1", SEED, SCALE)
    store = TraceStore(root)
    barrier.wait()
    store.store(trace, meta)
    queue.put(store.hits)


def _run_pair(target, root: Path):
    """Race two processes through ``target``; return their queue payloads."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(str(root), barrier, queue))
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    results = [queue.get(timeout=60) for _ in range(2)]
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    return results


def test_two_processes_racing_commit_one_wins_one_detects(tmp_path):
    outcomes = _run_pair(_race_commit, tmp_path)
    # Exactly one writer's rename landed; the other detected the winner.
    assert sorted(outcomes) == [False, True]
    entry = tmp_path / "entry"
    assert entry.is_dir()
    # No temp debris from either writer survives the race.
    assert [p.name for p in tmp_path.glob("*.tmp")] == []
    payload = load_mmap_npy(entry / "payload.npy")
    assert np.array_equal(payload, _entry_arrays()["payload"])


def test_trace_store_race_loser_counts_hit_and_entry_is_served(tmp_path):
    hits = _run_pair(_race_trace_store, tmp_path / "store")
    assert sorted(hits) == [0, 1]
    store = TraceStore(tmp_path / "store")
    loaded = store.load(synthetic_meta("hm_1", SEED, SCALE))
    assert loaded is not None
    reference = synthesize_workload("hm_1", seed=SEED, scale=SCALE)
    assert len(loaded) == len(reference)
    assert store.hits == 1


def test_second_commit_of_published_entry_reports_lost_without_rebuilding(
    tmp_path,
):
    first = commit_entry_dir(tmp_path / "entry", _entry_arrays(), {"schema": 1})
    assert first.won
    mtime = (tmp_path / "entry" / "payload.npy").stat().st_mtime_ns
    second = commit_entry_dir(tmp_path / "entry", _entry_arrays(), {"schema": 1})
    assert not second.won
    assert second.path == first.path
    # The already-published entry stands untouched.
    assert (tmp_path / "entry" / "payload.npy").stat().st_mtime_ns == mtime


def test_outcome_unpacks_to_path_and_won(tmp_path):
    outcome = commit_entry_dir(tmp_path / "entry", _entry_arrays(), {"s": 1})
    path, won = outcome
    assert isinstance(path, Path) and won is True
