"""Worker supervision: restart crashed sessions, bounded backoff, retry.

The supervisor owns one spawned :mod:`~repro.service.worker` process per
tenant and is the only component that talks to them.  Its contract with
the daemon above it:

* **Crash transparency.**  A call that finds the worker dead (or kills it
  for wedging past :data:`CALL_TIMEOUT_S`) restarts it — recovery inside
  :meth:`ReplaySession.open` restores checkpoint + journal tail — and
  replays the call **once**.  This is safe for every command the daemon
  sends: ``apply_group`` is idempotent under the session's sequence-number
  dedupe, and queries are read-only.
* **Bounded exponential backoff.**  Crashes are counted over the last
  :data:`CRASH_WINDOW_S`; call the count, this crash included, the
  *burst*.  The first restart in a burst relaunches at once; each later
  one first sleeps ``BACKOFF_BASE_S * 2**(burst-2)`` (capped at
  :data:`BACKOFF_CAP_S`), so a session whose state crashes its worker on
  boot can't spin the host.  A burst past :data:`MAX_RESTARTS` marks the
  tenant **failed** and every further call raises
  :class:`TenantFailedError` — one poisoned tenant never consumes the
  supervisor, and its neighbours keep streaming.
* **Determinism hooks.**  The wall clock and the sleep are injectable
  (``clock``/``sleep``), so supervision tests run clock-free.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.config import TechniqueConfig, config_to_dict
from repro.service.session import DEFAULT_CHECKPOINT_INTERVAL
from repro.service.worker import worker_main


class TenantFailedError(RuntimeError):
    """The tenant's worker exceeded its restart budget and was retired."""


class WorkerCallError(RuntimeError):
    """The worker could not serve the call even after a restart."""


#: Sleep before the second restart in a burst; each later one doubles it.
BACKOFF_BASE_S = 0.05

#: Upper bound on one backoff sleep.
BACKOFF_CAP_S = 2.0

#: Restarts allowed within one crash window before the tenant is failed.
MAX_RESTARTS = 5

#: Sliding window over which crashes are counted (seconds).
CRASH_WINDOW_S = 30.0

#: Per-call ceiling; a worker silent past it is presumed wedged, killed,
#: and the call handled as a crash.
CALL_TIMEOUT_S = 60.0


@dataclass
class _Tenant:
    name: str
    root: Path
    config: TechniqueConfig
    frontier_base: int
    process: Optional[multiprocessing.process.BaseProcess] = None
    conn: Optional[object] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    crash_times: List[float] = field(default_factory=list)
    restarts: int = 0
    failed: bool = False


class Supervisor:
    """Spawn, monitor, restart and address per-tenant session workers."""

    def __init__(
        self,
        root: Path,
        checkpoint_interval_ops: int = DEFAULT_CHECKPOINT_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._root = Path(root)
        self._checkpoint_interval_ops = checkpoint_interval_ops
        self._clock = clock
        self._sleep = sleep
        self._tenants: Dict[str, _Tenant] = {}
        self._registry_lock = threading.Lock()
        self._ctx = multiprocessing.get_context("spawn")

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    def tenants(self) -> List[str]:
        with self._registry_lock:
            return sorted(self._tenants)

    def ensure_tenant(
        self, name: str, config: TechniqueConfig, frontier_base: int
    ) -> None:
        """Register ``name`` (idempotent) and boot its worker."""
        with self._registry_lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                tenant = _Tenant(
                    name=name,
                    root=self._root / _safe_dirname(name),
                    config=config,
                    frontier_base=frontier_base,
                )
                self._tenants[name] = tenant
        with tenant.lock:
            if tenant.failed:
                raise TenantFailedError(f"tenant {name!r} is failed")
            if tenant.config != config or tenant.frontier_base != frontier_base:
                raise ValueError(
                    f"tenant {name!r} already open with a different "
                    "config/capacity"
                )
            if not self._alive(tenant):
                self._start_worker(tenant)

    def worker_pid(self, name: str) -> Optional[int]:
        tenant = self._get(name)
        with tenant.lock:
            return tenant.process.pid if self._alive(tenant) else None

    def restart_count(self, name: str) -> int:
        """Times this tenant's worker has been restarted after a crash."""
        return self._get(name).restarts

    def call(self, name: str, message: dict) -> dict:
        """Send one command to the tenant's worker and await its response.

        Restarts a dead/wedged worker and replays the call once (safe: see
        module docs).  Raises :class:`TenantFailedError` past the restart
        budget, :class:`WorkerCallError` if the retry also dies.
        """
        tenant = self._get(name)
        with tenant.lock:
            if tenant.failed:
                raise TenantFailedError(f"tenant {name!r} is failed")
            for attempt in (1, 2):
                if not self._alive(tenant):
                    self._restart(tenant)
                try:
                    tenant.conn.send(message)
                    if tenant.conn.poll(CALL_TIMEOUT_S):
                        return tenant.conn.recv()
                    # Wedged: no response within the ceiling.  Kill it;
                    # the session's WAL makes this indistinguishable from
                    # any other crash.
                    self._reap(tenant)
                except (BrokenPipeError, ConnectionResetError, EOFError, OSError):
                    # A kill -9'd worker closes its pipe end *before* it
                    # becomes waitpid-visible, so is_alive() can stay True
                    # for a moment; kill+join forces the reap so the next
                    # attempt restarts instead of re-using a dead pipe.
                    self._reap(tenant)
                if attempt == 2:
                    raise WorkerCallError(
                        f"tenant {name!r}: worker died twice serving one call"
                    )
            raise AssertionError("unreachable")

    def stop_tenant(self, name: str) -> None:
        """Graceful stop: worker checkpoints and exits."""
        tenant = self._get(name)
        with tenant.lock:
            if self._alive(tenant):
                with contextlib.suppress(OSError, EOFError):
                    tenant.conn.send({"cmd": "shutdown"})
                    tenant.conn.poll(CALL_TIMEOUT_S)
                    if tenant.conn.poll(0):
                        tenant.conn.recv()
                tenant.process.join(timeout=CALL_TIMEOUT_S)
                if tenant.process.is_alive():
                    tenant.process.kill()
                    tenant.process.join()
            if tenant.conn is not None:
                tenant.conn.close()
                tenant.conn = None
            tenant.process = None

    def shutdown(self) -> None:
        for name in self.tenants():
            self.stop_tenant(name)

    # ----------------------------------------------------------------- #
    # Internals
    # ----------------------------------------------------------------- #

    def _get(self, name: str) -> _Tenant:
        with self._registry_lock:
            if name not in self._tenants:
                raise KeyError(f"unknown tenant {name!r}; open it first")
            return self._tenants[name]

    @staticmethod
    def _alive(tenant: _Tenant) -> bool:
        return tenant.process is not None and tenant.process.is_alive()

    @staticmethod
    def _reap(tenant: _Tenant) -> None:
        """Force a crashed/wedged worker into the reaped-dead state."""
        if tenant.process is not None:
            tenant.process.kill()
            tenant.process.join()

    def _start_worker(self, tenant: _Tenant) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                tenant.name,
                str(tenant.root),
                config_to_dict(tenant.config),
                tenant.frontier_base,
                self._checkpoint_interval_ops,
            ),
            daemon=True,
            name=f"repro-session-{tenant.name}",
        )
        process.start()
        child_conn.close()
        # Wait for the ready handshake: recovery happens before it, so a
        # successful boot means the session state is consistent.
        if not parent_conn.poll(CALL_TIMEOUT_S):
            process.kill()
            process.join()
            raise WorkerCallError(f"tenant {tenant.name!r}: worker boot timed out")
        ready = parent_conn.recv()
        if not ready.get("ok"):
            process.join()
            raise WorkerCallError(
                f"tenant {tenant.name!r}: worker failed to boot: "
                f"{ready.get('error')}"
            )
        tenant.process = process
        tenant.conn = parent_conn

    def _restart(self, tenant: _Tenant) -> None:
        """Handle a detected crash: budget check, backoff, boot."""
        if tenant.conn is not None:
            tenant.conn.close()
            tenant.conn = None
        if tenant.process is not None:
            tenant.process.join(timeout=1.0)
            tenant.process = None
        now = self._clock()
        window_start = now - CRASH_WINDOW_S
        tenant.crash_times = [t for t in tenant.crash_times if t >= window_start]
        tenant.crash_times.append(now)
        burst = len(tenant.crash_times)
        if burst > MAX_RESTARTS:
            tenant.failed = True
            raise TenantFailedError(
                f"tenant {tenant.name!r}: {burst - 1} restarts within "
                f"{CRASH_WINDOW_S:g}s; retiring the session"
            )
        if burst > 1:
            self._sleep(min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (burst - 2)))
        tenant.restarts += 1
        self._start_worker(tenant)


def _safe_dirname(name: str) -> str:
    cleaned = "".join(c if (c.isalnum() or c in "._-") else "_" for c in name)
    return cleaned or "tenant"
