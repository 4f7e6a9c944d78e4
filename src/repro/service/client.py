"""Blocking client for the replay daemon's protocol.

Small on purpose: a socket, a line reader, and the behaviours a
streaming client actually needs —

* **Sequencing.**  :meth:`ReplayClient.apply` numbers batches itself
  (contiguous from the session's last acknowledged seq), so callers just
  hand over op columns.
* **One wire.**  Every batch travels as one framed columnar buffer
  (:mod:`repro.service.wire`) behind a small JSON header; control
  requests and all replies are newline-JSON.
* **Pipelining + resync.**  :meth:`apply_stream` is the one delivery
  path: it keeps a window of batches in flight on one socket (responses
  come back in request order) — this is what lets the daemon's
  dispatcher find contiguous queued batches to coalesce into group
  commits — and after a reconnect, a shed batch or a sequence gap it
  re-queries the server's ``applied`` seq and resends from there; the
  server's dedupe/gap checks make this safe to repeat arbitrarily.
"""

from __future__ import annotations

import contextlib
import json
import socket
import time
from collections import deque
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.config import TechniqueConfig, config_to_dict
from repro.service.wire import WIRE_BINARY, encode_payload, payload_crc

#: Consecutive resyncs without progress before :meth:`apply_stream` gives up.
MAX_RESYNC_ATTEMPTS = 8

#: Sleep before the *k*-th consecutive resync is ``k`` times this.
RESYNC_BACKOFF_S = 0.05


class ServiceError(RuntimeError):
    """The daemon answered ``ok: false`` (non-shed, non-gap)."""

    def __init__(self, response: dict) -> None:
        super().__init__(str(response.get("error", response)))
        self.response = response


class ReplayClient:
    """One tenant's connection to a running daemon: :meth:`connect` it, or
    use it as a context manager, before the first request."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        timeout_s: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._file = None
        self.next_seq = 1

    # ----------------------------------------------------------------- #
    # Transport
    # ----------------------------------------------------------------- #

    def connect(self) -> "ReplayClient":
        self.close_socket()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        self._file = self._sock.makefile("rwb")
        return self

    def close_socket(self) -> None:
        for handle in (self._file, self._sock):
            if handle is not None:
                with contextlib.suppress(OSError):
                    handle.close()
        self._file = self._sock = None

    def __enter__(self) -> "ReplayClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close_socket()

    def request(self, payload: dict) -> dict:
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        return self._read_response()

    # ----------------------------------------------------------------- #
    # Session operations
    # ----------------------------------------------------------------- #

    def open(self, config: TechniqueConfig, capacity_sectors: int) -> dict:
        """Open (or re-attach to) this tenant's session; syncs next_seq."""
        response = self.request(
            {
                "op": "open",
                "tenant": self.tenant,
                "config": config_to_dict(config),
                "capacity_sectors": int(capacity_sectors),
            }
        )
        if not response.get("ok"):
            raise ServiceError(response)
        self.next_seq = int(response.get("applied_seq", 0)) + 1
        return response

    # -- batch encoding ------------------------------------------------ #

    def _apply_frame(
        self,
        is_read: np.ndarray,
        lba: np.ndarray,
        length: np.ndarray,
        seq: int,
        deadline_s: Optional[float],
    ) -> bytes:
        """One apply request as raw socket bytes (header line + payload)."""
        payload = encode_payload(
            np.asarray(is_read, dtype=bool),
            np.asarray(lba, dtype=np.int64),
            np.asarray(length, dtype=np.int64),
        )
        header = {
            "op": "apply",
            "tenant": self.tenant,
            "seq": seq,
            "wire": WIRE_BINARY,
            "n": int(len(lba)),
            "crc": payload_crc(payload),
        }
        if deadline_s is not None:
            header["deadline_s"] = deadline_s
        return json.dumps(header).encode("utf-8") + b"\n" + payload

    def _read_response(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def applied_seq(self) -> int:
        result = self.query("applied")
        return int(result["applied_seq"])

    def apply_stream(
        self,
        batches: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        window: int = 32,
        deadline_s: Optional[float] = None,
    ) -> dict:
        """Deliver a whole stream of batches with ``window`` in flight.

        Writes up to ``window`` apply requests ahead of the responses on
        one socket (the daemon answers in request order), which is what
        gives the daemon's dispatcher contiguous queued batches to
        coalesce into group commits.  Only unacknowledged batches are
        retained, so ``batches`` may be a generator of any length.

        On a shed, a sequence gap, or a transport error the client
        reconnects, queries the server's ``applied`` seq, and resumes
        from the first unacknowledged batch — dedupe makes overlap
        harmless.  :data:`MAX_RESYNC_ATTEMPTS` bounds *consecutive*
        resyncs without progress.  One batch is a one-element stream.

        Returns ``{"ok", "batches", "applied_seq", "resyncs",
        "duplicate_acks"}``.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        it = iter(batches)
        base = self.next_seq
        buffered: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        next_fetch = 0
        exhausted = False

        def fetch(idx: int):
            nonlocal next_fetch, exhausted
            while next_fetch <= idx and not exhausted:
                try:
                    r, l, n = next(it)
                except StopIteration:
                    exhausted = True
                    break
                buffered[next_fetch] = (
                    np.asarray(r, dtype=bool),
                    np.asarray(l, dtype=np.int64),
                    np.asarray(n, dtype=np.int64),
                )
                next_fetch += 1
            return buffered.get(idx)

        acked_idx = -1
        next_idx = 0
        inflight: deque = deque()
        attempts = 0
        resyncs = 0
        duplicates = 0

        def note_ack(response: dict, idx: int) -> None:
            nonlocal acked_idx, duplicates
            if response.get("duplicate"):
                duplicates += 1
            applied = int(response.get("applied_seq", base + idx))
            new_acked = max(acked_idx, idx, applied - base)
            for i in range(acked_idx + 1, new_acked + 1):
                buffered.pop(i, None)
            acked_idx = new_acked

        def resync() -> None:
            # Reconnect fresh (discards any stale pipelined responses),
            # trust the server's applied seq, resume after it.
            nonlocal next_idx, acked_idx, attempts, resyncs
            inflight.clear()
            resyncs += 1
            while True:
                attempts += 1
                if attempts > MAX_RESYNC_ATTEMPTS:
                    raise TimeoutError(
                        f"stream stalled after {MAX_RESYNC_ATTEMPTS} resync "
                        f"attempts (tenant {self.tenant!r}, "
                        f"seq {base + acked_idx + 1})"
                    )
                time.sleep(RESYNC_BACKOFF_S * attempts)
                try:
                    self.connect()
                    applied = self.applied_seq()
                    break
                except (ConnectionError, OSError, ServiceError):
                    continue
            new_acked = max(acked_idx, applied - base)
            for i in range(acked_idx + 1, new_acked + 1):
                buffered.pop(i, None)
            acked_idx = new_acked
            next_idx = acked_idx + 1

        while True:
            try:
                wrote = False
                while len(inflight) < window:
                    batch = fetch(next_idx)
                    if batch is None:
                        break
                    self._file.write(
                        self._apply_frame(
                            batch[0], batch[1], batch[2],
                            base + next_idx, deadline_s,
                        )
                    )
                    inflight.append(next_idx)
                    next_idx += 1
                    wrote = True
                if wrote:
                    self._file.flush()
                if not inflight:
                    break
                response = self._read_response()
                idx = inflight.popleft()
            except (ConnectionError, OSError):
                resync()
                continue
            if response.get("ok"):
                attempts = 0
                note_ack(response, idx)
                continue
            if response.get("shed") or response.get("kind") == "SequenceGapError":
                resync()
                continue
            raise ServiceError(response)
        self.next_seq = max(self.next_seq, base + acked_idx + 1)
        return {
            "ok": True,
            "batches": acked_idx + 1,
            "applied_seq": base + acked_idx,
            "resyncs": resyncs,
            "duplicate_acks": duplicates,
        }

    def query(self, kind: str, **params) -> dict:
        payload = {"op": "query", "tenant": self.tenant, "kind": kind}
        if params:
            payload["params"] = params
        response = self.request(payload)
        if not response.get("ok"):
            raise ServiceError(response)
        return response["result"]

    def checkpoint(self) -> dict:
        response = self.request({"op": "checkpoint", "tenant": self.tenant})
        if not response.get("ok"):
            raise ServiceError(response)
        return response

    def close_session(self) -> dict:
        response = self.request({"op": "close", "tenant": self.tenant})
        if not response.get("ok"):
            raise ServiceError(response)
        return response

    def shutdown_daemon(self) -> dict:
        return self.request({"op": "shutdown"})
