"""Asyncio front end: many clients, per-tenant queues, deadline shedding.

The daemon is the concurrency boundary of the service.  Everything below
it is blocking and single-threaded-per-tenant (a supervisor call holds
the tenant's lock while the worker computes); everything above it is a
TCP conversation of newline-JSON requests and replies, where an ``apply``
header is followed by its framed columnar payload
(:mod:`repro.service.wire`), CRC-checked at admission.  The shape:

* One reader task per client connection parses requests and dispatches
  each as its own task; one writer task per connection sends responses
  back in strict request order (FIFO), so clients may **pipeline** —
  keep many requests in flight on one socket — and still match
  responses positionally.  In-flight requests per connection are
  bounded (:data:`PIPELINE_DEPTH`).
* Per tenant, one **bounded** :class:`asyncio.Queue`, one dispatcher
  task and one thread.  The dispatcher pops a request, checks its
  deadline, and runs the supervisor call on the tenant's thread — so a
  slow tenant occupies its own thread, never the event loop or a
  neighbour's, and ops for a tenant stay strictly ordered.  The three
  live from a tenant's ``open`` to its ``close`` (or to a first ``open``
  that fails); whatever is still queued then is shed.

**Coalescing + group commit:** when a tenant's dispatcher pops an apply
and more contiguous applies are already queued behind it, it merges
them — until the group holds :data:`COALESCE_BYTES` of payload or the
queue runs out — into ONE worker call (byte concatenation; the payloads
are never re-encoded).  The session journals the group under a single
CRC frame with a single fsync and acks every member batch exactly as
the one-at-a-time path would have (see
:meth:`ReplaySession.apply_group_payload`), so at streaming rates the
dominant per-batch costs — pipe crossings and WAL fsyncs — are paid per
*group*.

Backpressure and shedding, per tenant:

* **Admission.**  A request arriving to a full queue is refused
  immediately (``error: "tenant … queue full"``, ``shed: true``) — the client
  slows down or goes away; memory stays bounded either way.  Oversized
  requests get a structured ``error: "too_large"`` (the frame is drained
  exactly, never desynced) instead of a dropped connection.
* **Deadline.**  Each request carries its enqueue time; if the
  dispatcher pops it after ``deadline_s`` (daemon default, overridable
  per request), it is shed without touching the worker — a queue that
  built up behind a slow batch drains at queue speed, not worker speed.
* **Isolation.**  Queues, dispatchers, threads and worker processes are
  per tenant, so a dead-slow or disconnected client stalls only its own
  stream; neighbours' queries keep answering at their own pace.

Shed/refused batches are *not* lost: the sequence-number protocol means
the client just resends from its last acknowledged batch.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import config_from_dict
from repro.service.supervisor import Supervisor, TenantFailedError
from repro.service.wire import (
    SUPPORTED_WIRES,
    WIRE_BINARY,
    payload_crc,
    payload_nbytes,
)

#: Ceiling on one request header line (headers carry no ops); an
#: oversized line gets a structured ``too_large`` error, not a dropped
#: connection.
MAX_LINE_BYTES = 64 * 1024

#: Ceiling on one binary payload; an oversized frame is drained exactly
#: (its length is in the header) and refused with ``too_large``.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: In-flight requests allowed per client connection (responses always
#: return in request order).
PIPELINE_DEPTH = 256

#: A coalesced group stops growing once it holds this much payload.  At
#: 17 B/op that is under 2**20 ops; the tenant's queue bounds its batches.
COALESCE_BYTES = 16 * 1024 * 1024


def _refusal(error: str) -> dict:
    """The reader's reply to a request it cannot decode."""
    return {"ok": False, "error": error, "kind": "ValueError"}


@dataclass(frozen=True)
class DaemonConfig:
    """Front-end deployment settings.

    Attributes:
        host/port: Bind address (``port=0`` picks a free port; read it
            back from :attr:`ReplayDaemon.port`).
        queue_depth: Bounded per-tenant queue length (admission control).
        deadline_s: Default time a request may wait in queue before being
            shed.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_depth: int = 16
    deadline_s: float = 30.0

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")


class _Pending:
    __slots__ = (
        "message",
        "future",
        "enqueued_at",
        "deadline_s",
        "seq",
        "n",
        "payload",
    )

    def __init__(
        self,
        message,
        future,
        enqueued_at,
        deadline_s,
        seq=None,
        n=None,
        payload=None,
    ):
        self.message = message
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline_s = deadline_s
        self.seq = seq            # batch seq (applies only)
        self.n = n                # op count (applies only)
        self.payload = payload    # columnar bytes (applies only)


class ReplayDaemon:
    """The streaming replay daemon (see module docs).

    Usage::

        daemon = ReplayDaemon(Supervisor(root), DaemonConfig(port=0))
        await daemon.start()
        ...                      # clients connect to daemon.port
        await daemon.stop()      # checkpoints every session
    """

    def __init__(
        self, supervisor: Supervisor, config: Optional[DaemonConfig] = None
    ) -> None:
        self._config = config or DaemonConfig()
        self._supervisor = supervisor
        self._server: Optional[asyncio.AbstractServer] = None
        self._queues: Dict[str, asyncio.Queue] = {}
        self._dispatchers: Dict[str, asyncio.Task] = {}
        self._stopping = False
        self.port: Optional[int] = None

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    async def start(self) -> None:
        # The StreamReader hard limit sits above the soft MAX_LINE_BYTES
        # so an oversized-but-bounded line is read whole and refused with
        # a structured error instead of a torn connection.
        self._server = await asyncio.start_server(
            self._serve_client,
            host=self._config.host,
            port=self._config.port,
            limit=2 * MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Clean shutdown: stop intake, drain nothing, checkpoint all."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        dispatchers = list(self._dispatchers.values())
        for task in dispatchers:
            task.cancel()
        for task in dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers.clear()
        for queue in self._queues.values():
            self._shed_queued(queue, "daemon stopping")
        await asyncio.to_thread(self._supervisor.shutdown)

    async def serve_forever(self) -> None:
        """Serve until cancelled; :meth:`start` must have run."""
        async with self._server:
            await self._server.serve_forever()

    # ----------------------------------------------------------------- #
    # Client protocol (pipelined reader + ordered-response writer)
    # ----------------------------------------------------------------- #

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        responses: asyncio.Queue = asyncio.Queue()
        slots = asyncio.Semaphore(PIPELINE_DEPTH)
        writer_task = asyncio.create_task(
            self._write_responses(responses, writer, slots)
        )
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Past even the hard transport limit: the stream
                    # cannot be resynced, so answer and hang up.
                    await slots.acquire()
                    await responses.put(
                        ("error", self._too_large("line"))
                    )
                    break
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    await slots.acquire()
                    await responses.put(("error", self._too_large("line")))
                    continue
                try:
                    request = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    # Not JSON, not UTF-8, or nested past the parser's depth.
                    await slots.acquire()
                    await responses.put(("error", _refusal(f"bad json: {exc}")))
                    continue
                payload = None
                error = None
                if not isinstance(request, dict):
                    error = _refusal("a request must be a JSON object")
                elif request.get("op") == "apply":
                    try:
                        payload, error = await self._read_payload(reader, request)
                    except asyncio.IncompleteReadError:
                        break  # client died mid-frame
                await slots.acquire()
                if error is not None:
                    await responses.put(("error", error))
                    continue
                op = request.get("op")
                task = asyncio.get_running_loop().create_task(
                    self._handle(request, payload)
                )
                await responses.put((op, task))
                if op == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished; its tenant state is unaffected
        finally:
            await responses.put(None)
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _write_responses(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter, slots
    ) -> None:
        """Drain handler results to the socket in strict request order."""
        broken = False
        while True:
            item = await responses.get()
            if item is None:
                return
            op, result = item
            if isinstance(result, asyncio.Task):
                try:
                    response = await result
                except Exception as exc:  # keep the connection alive
                    response = _failure(exc)
            else:
                response = result
            slots.release()
            if broken:
                continue  # still await/drain tasks so none leak
            try:
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                broken = True
                continue
            if op == "shutdown" and response.get("ok"):
                asyncio.get_running_loop().create_task(self._shutdown_soon())

    @staticmethod
    def _too_large(what: str) -> dict:
        return {
            "ok": False,
            "error": "too_large",
            "kind": "ValueError",
            "what": what,
            "max_line_bytes": MAX_LINE_BYTES,
            "max_frame_bytes": MAX_FRAME_BYTES,
        }

    async def _read_payload(
        self, reader: asyncio.StreamReader, request: dict
    ) -> Tuple[Optional[bytes], Optional[dict]]:
        """Read (or exactly drain) the binary payload following a header.

        Returns ``(payload, None)`` on success, ``(None, error_dict)``
        when the frame is refused — in which case the frame bytes have
        still been consumed, so the stream stays in sync.  A header that
        does not announce a payload (no ``"wire": "bin"``, no usable
        ``n``) is refused without reading one.
        """
        if request.get("wire") != WIRE_BINARY:
            return None, _refusal(f"unknown wire {request.get('wire')!r}")
        n = request.get("n")
        if type(n) is not int or n < 0:
            return None, _refusal("apply needs an integer op count 'n' >= 0")
        nbytes = payload_nbytes(n)
        if nbytes > MAX_FRAME_BYTES:
            remaining = nbytes
            while remaining:
                chunk = await reader.readexactly(min(remaining, 1 << 20))
                remaining -= len(chunk)
            return None, self._too_large("frame")
        payload = await reader.readexactly(nbytes)
        crc = request.get("crc")
        if crc is not None and (type(crc) is not int or payload_crc(payload) != crc):
            return None, _refusal("payload crc mismatch")
        return payload, None

    async def _shutdown_soon(self) -> None:
        await self.stop()

    # ----------------------------------------------------------------- #
    # Routing
    # ----------------------------------------------------------------- #

    async def _handle(self, request: dict, payload: Optional[bytes] = None) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "tenants": self._supervisor.tenants()}
        if op == "hello":
            return {
                "ok": True,
                "wires": list(SUPPORTED_WIRES),
                "max_line_bytes": MAX_LINE_BYTES,
                "max_frame_bytes": MAX_FRAME_BYTES,
            }
        if op == "shutdown":
            return {"ok": True, "stopping": True}
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            return {"ok": False, "error": "request needs a tenant"}
        if self._stopping:
            return {"ok": False, "error": "daemon stopping", "shed": True}
        if op == "open":
            return await self._enqueue(tenant, request)
        if op in ("apply", "query", "checkpoint", "close"):
            if tenant not in self._queues:
                return {"ok": False, "error": f"tenant {tenant!r} not open"}
            return await self._enqueue(tenant, request, payload)
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _enqueue(
        self, tenant: str, request: dict, payload: Optional[bytes] = None
    ) -> dict:
        loop = asyncio.get_running_loop()
        deadline_s = float(request.get("deadline_s", self._config.deadline_s))
        seq = n = None
        if request.get("op") == "apply":
            try:
                seq = int(request["seq"])
                n = int(request["n"])
            except (KeyError, TypeError, ValueError) as exc:
                return {"ok": False, "error": f"bad apply header: {exc}"}
        pending = _Pending(
            request,
            loop.create_future(),
            loop.time(),
            deadline_s,
            seq=seq,
            n=n,
            payload=payload,
        )
        queue = self._queues.get(tenant)
        if queue is None:
            # Only an ``open`` gets here without one (see _handle); its
            # dispatcher retires the pair again if that open fails.
            queue = asyncio.Queue(maxsize=self._config.queue_depth)
            self._queues[tenant] = queue
            self._dispatchers[tenant] = loop.create_task(
                self._dispatch(tenant, queue), name=f"dispatch-{tenant}"
            )
        try:
            queue.put_nowait(pending)
        except asyncio.QueueFull:
            # Admission control: refuse instead of buffering unboundedly.
            return {
                "ok": False,
                "error": f"tenant {tenant!r} queue full",
                "shed": True,
            }
        return await pending.future

    # ----------------------------------------------------------------- #
    # Per-tenant dispatch (coalescing happens here)
    # ----------------------------------------------------------------- #

    @staticmethod
    def _shed(pending: _Pending, why: str) -> None:
        if not pending.future.done():
            pending.future.set_result({"ok": False, "error": why, "shed": True})

    def _shed_queued(self, queue: asyncio.Queue, why: str) -> None:
        while not queue.empty():
            self._shed(queue.get_nowait(), why)

    def _expired(self, pending: _Pending, loop) -> bool:
        return loop.time() - pending.enqueued_at > pending.deadline_s

    async def _dispatch(self, tenant: str, queue: asyncio.Queue) -> None:
        """Serve one tenant's queue, one worker call at a time, on the
        tenant's own thread."""
        loop = asyncio.get_running_loop()
        thread = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve")
        carry: Optional[_Pending] = None
        opened = False
        try:
            while True:
                head = carry if carry is not None else await queue.get()
                group, carry = [head], None
                if self._expired(head, loop):
                    # Expired in queue: shed without burning worker time.
                    response = {
                        "ok": False, "error": "deadline expired in queue", "shed": True,
                    }
                else:
                    if head.payload is not None:
                        carry = self._take_applies(group, queue, loop)
                    try:
                        response = await loop.run_in_executor(
                            thread, self._call, tenant, group
                        )
                    except asyncio.CancelledError:
                        for pending in group if carry is None else [*group, carry]:
                            self._shed(pending, "daemon stopping")
                        raise
                    except TenantFailedError as exc:
                        response = {"ok": False, "error": str(exc), "failed": True}
                    except Exception as exc:  # keep the dispatcher alive
                        response = _failure(exc)
                acks = response.get("acks") if response.get("ok") else None
                if acks is None or len(acks) != len(group):
                    acks = [response] * len(group)
                for pending, ack in zip(group, acks):
                    if not pending.future.done():
                        pending.future.set_result(ack)
                op, ok = head.message.get("op"), bool(response.get("ok"))
                if op == "open" and ok:
                    opened = True
                elif (op == "close" and ok) or (op == "open" and not opened):
                    # A closed tenant, or one whose first open never
                    # succeeded, keeps no queue, task or thread; requests
                    # behind it are shed (no await since the reply was
                    # set, so none can slip in).
                    del self._queues[tenant], self._dispatchers[tenant]
                    self._shed_queued(queue, f"tenant {tenant!r} not open")
                    return
        finally:
            thread.shutdown(wait=False, cancel_futures=True)

    def _take_applies(
        self, group: List[_Pending], queue: asyncio.Queue, loop
    ) -> Optional[_Pending]:
        """Append to ``group`` the contiguous applies queued behind its
        head; returns a popped request that cannot join (the next head)."""
        nbytes = len(group[0].payload)
        while nbytes < COALESCE_BYTES:
            try:
                nxt = queue.get_nowait()
            except asyncio.QueueEmpty:
                return None
            if self._expired(nxt, loop):
                self._shed(nxt, "deadline expired in queue")
                return None
            if nxt.payload is None or nxt.seq != group[-1].seq + 1:
                return nxt
            group.append(nxt)
            nbytes += len(nxt.payload)
        return None

    # ----------------------------------------------------------------- #
    # Blocking side (runs on the tenant's thread)
    # ----------------------------------------------------------------- #

    def _call(self, tenant: str, group: List[_Pending]) -> dict:
        request = group[0].message
        op = request["op"]
        if op == "apply":
            return self._supervisor.call(
                tenant,
                {
                    "cmd": "apply_group",
                    "first_seq": group[0].seq,
                    "counts": [p.n for p in group],
                    # Coalescing IS this join: the payloads arrive in wire
                    # layout and leave in wire layout, no per-op work.
                    "payload": b"".join(p.payload for p in group),
                },
            )
        if op == "open":
            config = config_from_dict(request["config"])
            frontier_base = int(request["capacity_sectors"])
            self._supervisor.ensure_tenant(tenant, config, frontier_base)
            applied = self._supervisor.call(tenant, {"cmd": "query", "kind": "applied"})
            return {
                "ok": True,
                "tenant": tenant,
                "applied_seq": applied.get("result", {}).get("applied_seq", 0),
            }
        if op == "query":
            return self._supervisor.call(
                tenant,
                {
                    "cmd": "query",
                    "kind": request.get("kind", "applied"),
                    "params": request.get("params", {}),
                },
            )
        if op == "checkpoint":
            return self._supervisor.call(tenant, {"cmd": "checkpoint"})
        if op == "close":
            self._supervisor.stop_tenant(tenant)
            return {"ok": True, "tenant": tenant, "closed": True}
        raise ValueError(f"unknown op {op!r}")


def _failure(exc: Exception) -> dict:
    """The reply to a request whose handling raised."""
    return {"ok": False, "error": str(exc), "kind": type(exc).__name__}
