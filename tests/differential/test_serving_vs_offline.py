"""Differential oracle for the serving data plane.

The coalesced path earns its throughput only if it is
*indistinguishable* from an offline replay in every observable:

* a coalesced group commit leaves the session in exactly the state N
  per-batch applies would have (same queries, same stats);
* a daemon serving a pipelined client (``apply_stream``) converges to
  the state of an offline replay of the same columns (see also
  ``tests/service/test_daemon.py``);
* ``kill -9`` mid-group recovers byte-identically (a group WAL record
  expands to the same ops the per-batch records would have held), also
  with a live window in flight and when the newest checkpoint is damaged;
* overload sheds + client resend converge to the reference state with
  no ops lost or double-applied.
"""

import os
import signal
import threading

import pytest

from repro.core.config import LS, LS_ALL, LS_DEFRAG
from repro.load.mixture import build_mixture
from repro.service.checkpoint import CheckpointStore
from repro.service.client import ReplayClient
from repro.service.daemon import DaemonConfig
from repro.service.session import ReplaySession
from repro.service.supervisor import Supervisor
from repro.service.wire import encode_payload
from repro.util.npystore import PAGE_ALIGN
from tests.service.helpers import (CAPACITY, DaemonThread, batches, flip_byte, make_columns,
                                   reference_queries, session_queries)

QUERY_KINDS = ("applied", "stats", "saf", "fragment_cdf", "seek_budget")


def jsonify(queries: dict) -> dict:
    """Session-level query results as a daemon client would see them
    (the socket's JSON hop turns tuples into lists)."""
    import json

    return json.loads(json.dumps(queries))


def group_payload(batch_list):
    """(counts, payload) for a run of (seq, is_read, lba, length) batches."""
    counts = [len(b[1]) for b in batch_list]
    payload = b"".join(encode_payload(*b[1:]) for b in batch_list)
    return counts, payload


@pytest.mark.parametrize("group_size", [1, 3, 16])
def test_group_commit_equals_per_batch(tmp_path, group_size):
    columns = make_columns(1600, seed=11)
    all_batches = batches(columns, 100)

    per_batch = ReplaySession.create(
        "pb", tmp_path / "pb", LS_ALL, CAPACITY, checkpoint_interval_ops=10**9
    )
    for seq, is_read, lba, length in all_batches:
        per_batch.apply_batch(seq, is_read, lba, length)

    grouped = ReplaySession.create(
        "gp", tmp_path / "gp", LS_ALL, CAPACITY, checkpoint_interval_ops=10**9
    )
    for start in range(0, len(all_batches), group_size):
        run = all_batches[start : start + group_size]
        counts, payload = group_payload(run)
        responses = grouped.apply_group_payload(run[0][0], counts, payload)
        assert [r["seq"] for r in responses] == [b[0] for b in run]
        assert all(r["ok"] and not r["duplicate"] for r in responses)

    assert session_queries(grouped) == session_queries(per_batch)
    assert grouped.stats() == per_batch.stats()
    per_batch.close()
    grouped.close()


def test_group_commit_acks_duplicates_like_sequential(tmp_path):
    columns = make_columns(600, seed=13)
    all_batches = batches(columns, 100)
    session = ReplaySession.create(
        "t", tmp_path / "t", LS, CAPACITY, checkpoint_interval_ops=10**9
    )
    counts, payload = group_payload(all_batches[:4])
    session.apply_group_payload(1, counts, payload)

    # Resend a group whose head overlaps already-applied seqs: the tail
    # applies, the head acks as duplicate — exactly the sequential
    # contract the client's resync path relies on.
    counts, payload = group_payload(all_batches[2:])
    responses = session.apply_group_payload(3, counts, payload)
    assert [r["duplicate"] for r in responses] == [True, True, False, False]
    assert session.applied_seq == 6

    reference = ReplaySession.create(
        "ref", tmp_path / "ref", LS, CAPACITY, checkpoint_interval_ops=10**9
    )
    for seq, is_read, lba, length in all_batches:
        reference.apply_batch(seq, is_read, lba, length)
    assert session_queries(session) == session_queries(reference)
    session.close()
    reference.close()


def test_kill9_mid_group_recovers_byte_identical(tmp_path):
    """Crash after group commits, with a torn record at the WAL tail."""
    columns = make_columns(900, seed=5)
    all_batches = batches(columns, 100)
    expected = reference_queries(
        tmp_path / "ref", LS_ALL, columns, batch_ops=100
    )

    root = tmp_path / "crashed"
    session = ReplaySession.create(
        "t", root, LS_ALL, CAPACITY, checkpoint_interval_ops=250
    )
    # Two groups of three: an auto-checkpoint lands inside (250-op
    # interval), so recovery replays a group-record tail on top of it.
    for start in (0, 3):
        counts, payload = group_payload(all_batches[start : start + 3])
        session.apply_group_payload(start + 1, counts, payload)
    with open(session._journal._segment, "ab") as handle:
        handle.write(b"\x31GJR\x00torn-group")
    del session  # kill -9: no close, no final checkpoint

    recovered = ReplaySession.open(
        "t", root, LS_ALL, CAPACITY, checkpoint_interval_ops=250
    )
    assert recovered.applied_seq == 6
    for seq, is_read, lba, length in all_batches[6:]:
        recovered.apply_batch(seq, is_read, lba, length)
    assert session_queries(recovered) == expected
    recovered.close()


@pytest.mark.slow
def test_overload_shed_and_resend_converge(tmp_path):
    """A queue two deep against a 16-wide window must shed; the client's
    resync+resend must still land every op exactly once."""
    columns = make_columns(4000, seed=33)
    all_batches = batches(columns, 100)
    expected = jsonify(
        reference_queries(tmp_path / "ref", LS, columns, batch_ops=100)
    )

    server = DaemonThread(Supervisor(tmp_path / "state"), DaemonConfig(queue_depth=2))
    port = server.start()
    try:
        with ReplayClient("127.0.0.1", port, "t") as client:
            client.open(LS, CAPACITY)
            result = client.apply_stream(
                (b[1:] for b in all_batches), window=16
            )
            live = {k: client.query(k) for k in QUERY_KINDS}
    finally:
        server.stop()

    assert result["batches"] == len(all_batches)
    assert result["resyncs"] > 0, "queue_depth=2 never shed a 16-wide window"
    assert live == expected


@pytest.mark.slow
def test_mixture_stream_is_replayable_offline(tmp_path):
    """A ``build_mixture`` stream through the daemon == offline: a served
    mixture is reproducible from (components, seed, ops) after the fact."""
    *columns, capacity = build_mixture(
        (("hm_1", 0.8), ("usr_1", 0.2)), 6_000, seed=29
    )
    stream = batches(columns, 500)
    server = DaemonThread(
        Supervisor(tmp_path / "state"), DaemonConfig(queue_depth=64)
    )
    port = server.start()
    try:
        with ReplayClient("127.0.0.1", port, "t0") as client:
            client.open(LS, capacity)
            result = client.apply_stream((b[1:] for b in stream), window=8)
            live_stats = client.query("stats")
    finally:
        server.stop()
    assert (result["batches"], result["resyncs"]) == (len(stream), 0)

    offline = ReplaySession.create(
        "offline", tmp_path / "offline", LS, capacity,
        checkpoint_interval_ops=10**9,
    )
    for batch in stream:
        offline.apply_batch(*batch)
    assert live_stats == offline.query("stats")
    offline.close()


@pytest.mark.slow
def test_kill9_and_corrupt_checkpoint_mid_window_match_offline(tmp_path):
    """Two pipelined tenants, each held halfway with a window in flight:
    alpha's worker is ``kill -9``'d; bravo checkpoints, has a payload byte
    of that checkpoint flipped (only the SHA can tell) and is killed.
    Both resume and must equal an offline replay exactly."""
    configs = {"alpha": LS, "bravo": LS_DEFRAG}
    columns = {t: make_columns(2400, seed=31 + i) for i, t in enumerate(configs)}
    halfway, resume = ({t: threading.Event() for t in configs} for _ in range(2))
    errors = []
    server = DaemonThread(Supervisor(tmp_path / "state", checkpoint_interval_ops=500))
    port = server.start()

    def stream(tenant):
        def held():
            for seq, *batch in batches(columns[tenant], 100):
                yield batch
                if seq == 12:  # up to 7 earlier batches are still in flight
                    halfway[tenant].set()
                    assert resume[tenant].wait(timeout=60), "never resumed"

        try:
            with ReplayClient("127.0.0.1", port, tenant) as client:
                client.open(configs[tenant], CAPACITY)
                assert client.apply_stream(held(), window=8)["batches"] == 24
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)
            halfway[tenant].set()

    threads = [threading.Thread(target=stream, args=(t,), daemon=True) for t in configs]
    try:
        for thread in threads:
            thread.start()
        for tenant in configs:
            assert halfway[tenant].wait(timeout=60) and not errors, errors
            if tenant == "bravo":
                with ReplayClient("127.0.0.1", port, tenant) as client:
                    client.checkpoint()
                store = CheckpointStore(tmp_path / "state" / tenant)
                entry = store.entry_path(store.sequence_numbers()[-1])
                target = max(entry.glob("*.npy"), key=lambda path: path.stat().st_size)
                flip_byte(target, (PAGE_ALIGN + target.stat().st_size) // 2)
            os.kill(server.supervisor.worker_pid(tenant), signal.SIGKILL)
            resume[tenant].set()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "a tenant stream did not finish"
        assert not errors, errors
        for tenant, config in configs.items():
            expected = jsonify(reference_queries(tmp_path / tenant, config, columns[tenant]))
            with ReplayClient("127.0.0.1", port, tenant) as client:
                for kind in ("stats", "saf", "fragment_cdf", "seek_budget"):
                    assert client.query(kind) == expected[kind], (tenant, kind)
            assert server.supervisor.restart_count(tenant) >= 1, tenant
    finally:
        for event in resume.values():
            event.set()
        server.stop()
