"""Daemon + client over real sockets: protocol, dedupe/gap, shedding."""

import asyncio
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import LS, LS_DEFRAG, config_to_dict
from repro.service import daemon
from repro.service.client import ReplayClient, ServiceError
from repro.service.session import ReplaySession
from repro.service.supervisor import Supervisor, TenantFailedError
from repro.service.wire import encode_payload
from tests.service.helpers import (CAPACITY, DaemonThread, batches, make_columns,
                                   reference_queries, send)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    thread = DaemonThread(Supervisor(tmp_path_factory.mktemp("daemon-state")))
    thread.start()
    yield thread
    thread.stop()


def _client(server, tenant):
    return ReplayClient("127.0.0.1", server.daemon.port, tenant)


def test_stream_matches_offline_reference(server, tmp_path):
    columns = make_columns(300, seed=21)
    expected = reference_queries(tmp_path / "ref", LS_DEFRAG, columns, batch_ops=50)
    with _client(server, "roundtrip") as client:
        client.open(LS_DEFRAG, CAPACITY)
        result = client.apply_stream(b[1:] for b in batches(columns, 50))
        assert result["batches"] == 6
        assert client.applied_seq() == 6
        assert client.query("stats") == expected["stats"]
        assert client.query("saf") == expected["saf"]
        assert client.query("seek_budget", window_gib=2.0) == expected["seek_budget"]
        assert [list(p) for p in client.query("fragment_cdf")["points"]] == [
            list(p) for p in expected["fragment_cdf"]["points"]
        ]


def test_duplicate_ack_and_gap_resync(server):
    is_read, lba, length = make_columns(30, seed=22)
    with _client(server, "dedupe") as client:
        client.open(LS, CAPACITY)
        first = send(client, is_read[:10], lba[:10], length[:10], seq=1)
        assert first["ok"] and first["duplicate"] is False

        resent = send(client, is_read[:10], lba[:10], length[:10], seq=1)
        assert resent["ok"] and resent["duplicate"] is True
        assert resent["applied_seq"] == 1

        gap = send(client, is_read[10:20], lba[10:20], length[10:20], seq=7)
        assert not gap["ok"]
        assert gap["kind"] == "SequenceGapError"
        assert gap["expected"] == 2

        # The refused batch left next_seq at the server's expected seq.
        ack = client.apply_stream([(is_read[10:20], lba[10:20], length[10:20])])
        assert ack["ok"] and ack["applied_seq"] == 2

        def severed():  # the connection drops with both frames unsent
            yield is_read[20:25], lba[20:25], length[20:25]
            client._sock.shutdown(socket.SHUT_RDWR)
            yield is_read[25:], lba[25:], length[25:]

        ack = client.apply_stream(severed())
        assert (ack["applied_seq"], ack["resyncs"]) == (4, 1)
        client.next_seq = 4  # a stale client resends what the daemon has
        assert client.apply_stream([(is_read[25:], lba[25:], length[25:])])["duplicate_acks"] == 1


def test_expired_deadline_is_shed_not_applied(server):
    is_read, lba, length = make_columns(20, seed=23)
    with _client(server, "deadline") as client:
        client.open(LS, CAPACITY)
        shed = send(client, is_read, lba, length, deadline_s=-1.0)
        assert not shed["ok"]
        assert shed["shed"] is True
        assert client.applied_seq() == 0
        # The shed batch was refused, not half-applied: a plain resend of
        # the same seq goes through.
        ack = client.apply_stream([(is_read, lba, length)])
        assert ack["ok"]
        assert client.applied_seq() == 1


def test_close_and_reattach_preserves_applied_seq(server):
    with _client(server, "reattach") as client:
        client.open(LS, CAPACITY)
        client.apply_stream(b[1:] for b in batches(make_columns(40, seed=24), 20))
        client.close_session()
    with _client(server, "reattach") as client:
        response = client.open(LS, CAPACITY)
        assert response["applied_seq"] == 2
        assert client.next_seq == 3
        # And the config is pinned: reopening differently is refused.
        with pytest.raises(ServiceError, match="different"):
            client.open(LS_DEFRAG, CAPACITY)


def test_open_request_carrying_a_fast_key_is_the_same_config(server):
    """Clients written while ``TechniqueConfig`` had a ``fast`` field send
    the key; a re-open differing only in it attaches instead of refusing."""
    is_read, lba, length = make_columns(20, seed=25)
    with _client(server, "stale-key") as client:
        client.open(LS, CAPACITY)
        client.apply_stream([(is_read, lba, length)])
        response = client.request(
            {
                "op": "open",
                "tenant": "stale-key",
                "config": {**config_to_dict(LS), "fast": True},
                "capacity_sectors": CAPACITY,
            }
        )
        assert response["ok"] and response["applied_seq"] == 1


def test_ops_require_an_open_session(server):
    with _client(server, "ghost") as client:
        with pytest.raises(ServiceError, match="not open"):
            client.query("stats")


def test_ping_lists_tenants(server):
    with _client(server, "pinger") as client:
        response = client.request({"op": "ping"})
        assert response["ok"]
        assert isinstance(response["tenants"], list)


def test_malformed_requests_get_error_replies(server):
    with _client(server, "mallory") as client:
        client.connect()
        client._file.write(b"this is not json\n")
        client._file.flush()
        assert not json.loads(client._file.readline())["ok"]
        assert not client.request({"op": "query"})["ok"]  # missing tenant
        assert not client.request({"op": "frobnicate", "tenant": "x"})["ok"]


@pytest.mark.slow
def test_closed_and_never_opened_tenants_leave_no_queue_or_task(tmp_path):
    """A tenant's queue and dispatcher live from its open to its close."""
    columns = make_columns(40, seed=25)
    expected = reference_queries(tmp_path / "ref", LS, columns, batch_ops=20)
    server = DaemonThread(Supervisor(tmp_path / "state"))
    server.start()
    try:
        for i in range(50):
            with _client(server, f"cycle-{i}") as client:
                client.open(LS, CAPACITY)
                if i == 0:
                    client.apply_stream(b[1:] for b in batches(columns, 20))
                client.close_session()
                with pytest.raises(ServiceError, match="not open"):
                    client.query("applied")
            with _client(server, f"ghost-{i}") as client:
                refused = client.request(
                    {
                        "op": "open",
                        "tenant": f"ghost-{i}",
                        "config": {"no": "name"},
                        "capacity_sectors": CAPACITY,
                    }
                )
                assert not refused["ok"]
        assert server.daemon._queues == {}
        assert server.daemon._dispatchers == {}
        assert not [
            task.get_name()
            for task in asyncio.all_tasks(server._loop)
            if task.get_name().startswith("dispatch-")
        ]

        with _client(server, "cycle-0") as client:
            assert client.open(LS, CAPACITY)["applied_seq"] == 2
            assert client.query("stats") == expected["stats"]
        assert list(server.daemon._queues) == ["cycle-0"]
    finally:
        server.stop()


def test_requests_queued_behind_a_close_are_shed(server):
    """Pipelined behind a close, an apply is refused as shed, not run
    against a stopped worker (which would count as a crash and restart it)."""
    payload = encode_payload(*make_columns(10, seed=26))
    with _client(server, "closing") as client:
        client.open(LS, CAPACITY)
        apply_header = {"op": "apply", "tenant": "closing", "seq": 1, "wire": "bin", "n": 10}
        client._file.write(
            json.dumps({"op": "close", "tenant": "closing"}).encode() + b"\n"
            + json.dumps(apply_header).encode() + b"\n" + payload
            + json.dumps({"op": "query", "tenant": "closing", "kind": "applied"}).encode() + b"\n"
        )
        client._file.flush()
        closed, apply, query = (json.loads(client._file.readline()) for _ in range(3))
        assert closed["ok"] and closed["closed"]
        for late in (apply, query):
            assert not late["ok"] and "not open" in late["error"]
        assert server.supervisor.restart_count("closing") == 0
        assert client.open(LS, CAPACITY)["applied_seq"] == 0


class _BlockingSupervisor:
    """Answers every call at once, except those of tenants named
    ``stuck-*``, which block until ``release`` is set, and ``failed-*``,
    which are retired."""

    def __init__(self):
        self.release, self.stuck = threading.Event(), set()

    def call(self, name, message):
        if name.startswith("failed-"):
            raise TenantFailedError(f"tenant {name!r} is failed")
        if name.startswith("stuck-"):
            self.stuck.add(name)
            self.release.wait(timeout=30)
        return {"ok": True, "result": {"applied_seq": 0}}

    def ensure_tenant(self, *args):
        pass

    shutdown = ensure_tenant


def test_blocked_tenants_do_not_stall_a_new_one():
    """Nine tenants each wedged in a worker call; a tenth still answers."""
    supervisor = _BlockingSupervisor()
    server = DaemonThread(supervisor)
    port = server.start()
    try:
        with ReplayClient("127.0.0.1", port, "stuck") as stuck:
            config = config_to_dict(LS)
            for i in range(9):
                opening = {"op": "open", "tenant": f"stuck-{i}", "config": config,
                           "capacity_sectors": CAPACITY}
                stuck._file.write(json.dumps(opening).encode() + b"\n")
            stuck._file.flush()
            deadline = time.monotonic() + 2.0
            while len(supervisor.stuck) < 9 and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.monotonic()
            with ReplayClient("127.0.0.1", port, "free", timeout_s=1.0) as free:
                free.open(LS, CAPACITY)
                assert free.query("stats") == {"applied_seq": 0}
            assert time.monotonic() - started < 1.0
    finally:
        supervisor.release.set()
        server.stop()


def test_coalescing_stops_at_an_expired_apply_a_query_or_the_byte_cap(monkeypatch):
    payload = encode_payload(*make_columns(10, seed=27))
    monkeypatch.setattr(daemon, "COALESCE_BYTES", 2 * len(payload))
    supervisor = _BlockingSupervisor()
    server = DaemonThread(supervisor)
    port = server.start()

    def request(tenant, op, **fields):
        message = {"op": op, "tenant": tenant, **fields}
        if op == "apply":
            message.update(wire="bin", n=10)
        return json.dumps(message).encode() + b"\n" + (payload if op == "apply" else b"")

    try:
        with ReplayClient("127.0.0.1", port, "stuck-c") as client:
            opening = dict(config=config_to_dict(LS), capacity_sectors=CAPACITY)
            # Queued behind the blocked open: 1 coalesces nothing (2 expired),
            # 3 stops at the query, 4 and 5 fill the byte cap.
            client._file.write(b"".join([
                request("stuck-c", "open", **opening), request("stuck-c", "apply", seq=1),
                request("stuck-c", "apply", seq=2, deadline_s=-1.0),
                request("stuck-c", "apply", seq=3), request("stuck-c", "query", kind="applied"),
                request("stuck-c", "apply", seq=4), request("stuck-c", "apply", seq=5),
                request("failed-c", "open", **opening)]))
            client._file.flush()
            queues, deadline = server.daemon._queues, time.monotonic() + 2.0
            while time.monotonic() < deadline and not (
                    supervisor.stuck and queues["stuck-c"].qsize() == 6):
                time.sleep(0.01)
            supervisor.release.set()
            replies = [json.loads(client._file.readline()) for _ in range(8)]
            assert [reply["ok"] for reply in replies] == [True, True, False] + [True] * 4 + [False]
            assert replies[2]["shed"] and replies[7]["failed"]
            server.daemon._stopping = True  # as stop() first sets it
            assert client.request({"op": "query", "tenant": "stuck-c", "kind": "applied"})["shed"]
    finally:
        supervisor.release.set()
        server.stop()


def test_shutdown_op_checkpoints_every_session_and_exits_zero(tmp_path):
    """A remote ``shutdown`` stops ``repro serve`` the way SIGTERM does:
    every session checkpoints, the verb says bye and exits 0, and the
    state directory reopens at the last acknowledged batch."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    root = tmp_path / "state"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root), "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        port = int(re.search(r"listening on [^:]+:(\d+)", daemon.stdout.readline())[1])
        with ReplayClient("127.0.0.1", port, "t") as client:
            client.open(LS, CAPACITY)
            assert client.apply_stream([make_columns(50, seed=25)])["applied_seq"] == 1
            assert client.shutdown_daemon()["stopping"]
        output, _ = daemon.communicate(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    assert daemon.returncode == 0, output
    assert "all sessions checkpointed; bye" in output
    session = ReplaySession.open("t", root / "t", LS, CAPACITY)
    assert session.applied_seq == 1
    session.close()
