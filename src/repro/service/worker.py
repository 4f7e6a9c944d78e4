"""Session worker: one tenant's session hosted in a spawned process.

Isolation is the point: a worker that segfaults, leaks, is ``kill -9``'d,
or wedges in a long apply takes down *one* tenant's process, and the
supervisor restarts it — :meth:`ReplaySession.open`
recovers the state from checkpoint + journal, so the restart is
semantically invisible to the client (at most one resent batch, deduped
by sequence number).

The parent speaks a tiny message protocol over a duplex
:func:`multiprocessing.Pipe` — dicts in, dicts out, one response per
request, op columns as raw ``bytes`` (the pickle cost of a list of ints
dwarfs everything else at streaming rates):

* ``{"cmd": "apply_group", "first_seq", "counts", "payload"}`` — a run
  of one or more contiguous batches; ``payload`` is the daemon's
  concatenated columnar buffer (:mod:`repro.service.wire`), passed
  through the pipe *verbatim* and journaled by byte slice.  Responds
  ``{"ok": True, "acks": [one response dict per batch]}``.
* ``{"cmd": "query", "kind", "params"}``
* ``{"cmd": "checkpoint"}``
* ``{"cmd": "shutdown"}`` — checkpoint, ack, exit 0.

Responses are ``{"ok": True, ...}`` or ``{"ok": False, "error", "kind"}``.
A request that raises keeps the worker alive (the error is the client's);
only ``shutdown`` or pipe EOF ends the loop.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.config import config_from_dict
from repro.service.session import ReplaySession


def worker_main(
    conn,
    tenant: str,
    root: str,
    config_dict: dict,
    frontier_base: int,
    checkpoint_interval_ops: int,
) -> None:
    """Entry point of the spawned worker process."""
    session: Optional[ReplaySession] = None
    try:
        session = ReplaySession.open(
            tenant=tenant,
            root=root,
            config=config_from_dict(config_dict),
            frontier_base=frontier_base,
            checkpoint_interval_ops=checkpoint_interval_ops,
        )
        conn.send({"ok": True, "ready": True, "applied_seq": session.applied_seq})
    except Exception as exc:
        try:
            conn.send({"ok": False, "ready": False, "error": str(exc), "kind": type(exc).__name__})
        finally:
            os._exit(1)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Parent died or hung up: checkpoint and leave quietly.
            session.close()
            return
        cmd = message.get("cmd")
        try:
            if cmd == "apply_group":
                acks = session.apply_group_payload(
                    int(message["first_seq"]),
                    [int(n) for n in message["counts"]],
                    message["payload"],
                )
                conn.send({"ok": True, "acks": acks})
            elif cmd == "query":
                result = session.query(
                    message["kind"], **message.get("params", {})
                )
                conn.send({"ok": True, "result": result})
            elif cmd == "checkpoint":
                session.checkpoint()
                conn.send({"ok": True, "applied_seq": session.applied_seq})
            elif cmd == "ping":
                conn.send({"ok": True, "pid": os.getpid()})
            elif cmd == "shutdown":
                session.close()
                conn.send({"ok": True, "applied_seq": session.applied_seq})
                return
            else:
                conn.send(
                    {"ok": False, "error": f"unknown cmd {cmd!r}", "kind": "ValueError"}
                )
        except Exception as exc:
            conn.send({"ok": False, "error": str(exc), "kind": type(exc).__name__})
