"""Supervisor: spawned workers, transparent restart, backoff, crash budget.

These tests boot real spawned worker processes; op counts are kept small
so the suite stays fast (each boot is one interpreter start).
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.core.config import LS, LS_DEFRAG, config_to_dict
from repro.service import supervisor as supervision
from repro.service.supervisor import Supervisor, TenantFailedError, WorkerCallError
from repro.service.wire import encode_payload
from repro.service.worker import worker_main
from tests.service.helpers import CAPACITY, batches, make_columns, reference_queries


def _apply(supervisor, tenant, batch):
    """One batch through the worker's only apply command; returns its ack."""
    seq, is_read, lba, length = batch
    response = supervisor.call(
        tenant,
        {
            "cmd": "apply_group",
            "first_seq": seq,
            "counts": [len(lba)],
            "payload": encode_payload(is_read, lba, length),
        },
    )
    assert response["ok"], response
    (ack,) = response["acks"]
    return ack


def test_kill9_midstream_restart_is_transparent(tmp_path):
    columns = make_columns(300, seed=2)
    expected = reference_queries(tmp_path / "ref", LS_DEFRAG, columns, batch_ops=50)
    supervisor = Supervisor(tmp_path / "state", checkpoint_interval_ops=100)
    try:
        supervisor.ensure_tenant("t", LS_DEFRAG, CAPACITY)
        with pytest.raises(ValueError, match="different"):
            supervisor.ensure_tenant("t", LS, CAPACITY)

        all_batches = batches(columns, 50)
        for batch in all_batches[:3]:
            assert _apply(supervisor, "t", batch)["ok"]

        pid = supervisor.worker_pid("t")
        assert pid is not None
        os.kill(pid, signal.SIGKILL)

        # The very next call detects the death, restarts the worker (WAL
        # recovery inside) and replays the call once — the caller just
        # sees a successful ack.
        for batch in all_batches[3:]:
            assert _apply(supervisor, "t", batch)["ok"]
        assert supervisor.restart_count("t") == 1
        assert supervisor.worker_pid("t") != pid

        for kind in ("stats", "saf", "fragment_cdf", "seek_budget"):
            live = supervisor.call("t", {"cmd": "query", "kind": kind})
            assert live["ok"]
            reference = expected[kind]
            if kind == "fragment_cdf":
                assert [list(p) for p in live["result"]["points"]] == [
                    list(p) for p in reference["points"]
                ]
            else:
                assert live["result"] == reference
    finally:
        supervisor.shutdown()


class _ExitOnUnpickle:
    """Kills whichever process unpickles it, before it can answer."""

    def __reduce__(self):
        return os._exit, (42,)


def test_crash_during_call_twice_raises_then_recovers(tmp_path):
    supervisor = Supervisor(tmp_path / "state")
    try:
        supervisor.ensure_tenant("t", LS, CAPACITY)
        # The worker dies receiving the message; the replayed attempt
        # dies again, so the call itself must fail cleanly...
        with pytest.raises(WorkerCallError, match="died twice"):
            supervisor.call("t", {"cmd": "ping", "poison": _ExitOnUnpickle()})
        # ...but the tenant is not poisoned: the next call restarts.
        response = supervisor.call("t", {"cmd": "ping"})
        assert response["ok"]
        assert supervisor.restart_count("t") == 2
    finally:
        supervisor.shutdown()


def test_restart_budget_retires_tenant(tmp_path, monkeypatch):
    sleeps = []
    monkeypatch.setattr(supervision, "BACKOFF_BASE_S", 0.25)
    monkeypatch.setattr(supervision, "MAX_RESTARTS", 2)
    supervisor = Supervisor(
        tmp_path / "state",
        clock=lambda: 0.0,  # every crash lands in one window
        sleep=sleeps.append,  # recorded, never actually slept
    )
    try:
        supervisor.ensure_tenant("t", LS, CAPACITY)
        for _ in range(2):
            os.kill(supervisor.worker_pid("t"), signal.SIGKILL)
            assert supervisor.call("t", {"cmd": "ping"})["ok"]
        # The first restart in the window relaunched at once; the second
        # slept the base.
        assert sleeps == [0.25]
        assert supervisor.restart_count("t") == 2

        os.kill(supervisor.worker_pid("t"), signal.SIGKILL)
        with pytest.raises(TenantFailedError, match="retiring"):
            supervisor.call("t", {"cmd": "ping"})
        # The tenant stays failed: no further boot attempts are made.
        with pytest.raises(TenantFailedError):
            supervisor.call("t", {"cmd": "ping"})
        assert supervisor.restart_count("t") == 2
    finally:
        supervisor.shutdown()


def test_wedged_and_unbootable_workers_are_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(supervision, "CALL_TIMEOUT_S", 3.0)
    supervisor = Supervisor(tmp_path / "state")
    try:
        supervisor.ensure_tenant("t", LS, CAPACITY)
        os.kill(supervisor.worker_pid("t"), signal.SIGSTOP)  # alive, never answers
        assert supervisor.call("t", {"cmd": "ping"})["ok"]  # killed, restarted, replayed
        assert supervisor.restart_count("t") == 1
        os.kill(supervisor.worker_pid("t"), signal.SIGSTOP)
        supervisor.stop_tenant("t")  # killed once the graceful wait runs out
        # A worker whose session cannot open fails its boot handshake...
        with pytest.raises(WorkerCallError, match="failed to boot"):
            Supervisor(tmp_path / "state").ensure_tenant("t", LS_DEFRAG, CAPACITY)
        # ...and one that does not answer it in time is killed.
        monkeypatch.setattr(supervision, "CALL_TIMEOUT_S", 0.01)
        with pytest.raises(WorkerCallError, match="boot timed out"):
            Supervisor(tmp_path / "other").ensure_tenant("t", LS, CAPACITY)
    finally:
        supervisor.shutdown()


def test_worker_refuses_bad_commands_and_leaves_when_the_parent_hangs_up(tmp_path):
    parent, child = multiprocessing.Pipe()
    worker = threading.Thread(target=worker_main, args=(
        child, "t", str(tmp_path), config_to_dict(LS), CAPACITY, 50_000))
    worker.start()
    assert parent.recv()["ready"]
    for message in ({"cmd": "bogus"}, {"cmd": "query", "kind": "bogus"}):
        parent.send(message)
        assert parent.recv()["kind"] == "ValueError"
    parent.close()  # the worker checkpoints and returns
    worker.join(timeout=60)
    assert not worker.is_alive()
