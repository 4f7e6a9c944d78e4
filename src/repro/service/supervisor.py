"""Worker supervision: restart crashed sessions, bounded backoff, retry.

The supervisor owns one spawned :mod:`~repro.service.worker` process per
tenant and is the only component that talks to them.  Its contract with
the daemon above it:

* **Crash transparency.**  A call that finds the worker dead (or kills it
  for wedging past the call timeout) restarts it — recovery inside
  :meth:`ReplaySession.open` restores checkpoint + journal tail — and
  replays the call **once**.  This is safe for every command the daemon
  sends: ``apply_group`` is idempotent under the session's sequence-number
  dedupe, and queries are read-only.
* **Bounded exponential backoff.**  Consecutive restarts within
  :attr:`SupervisorConfig.crash_window_s` sleep
  ``backoff_base_s * 2**(n-1)`` (capped at ``backoff_cap_s``) before
  relaunching, so a session whose state crashes its worker on boot can't
  spin the host.  After ``max_restarts`` such crashes the tenant is
  marked **failed** and every further call raises
  :class:`TenantFailedError` — one poisoned tenant never consumes the
  supervisor, and its neighbours keep streaming.
* **Determinism hooks.**  The wall clock and the sleep are injectable
  (``clock``/``sleep``), so supervision tests and chaos schedules run
  clock-free; ``on_worker_death`` fires between detecting a dead worker
  and relaunching it — the chaos harness uses it to corrupt the newest
  checkpoint at exactly the nastiest moment.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs.

    Attributes:
        backoff_base_s: Sleep before the second restart in a burst; each
            further restart doubles it.
        backoff_cap_s: Upper bound on one backoff sleep.
        max_restarts: Crash budget within ``crash_window_s`` before the
            tenant is failed.
        crash_window_s: Sliding window over which crashes are counted.
        call_timeout_s: Per-call ceiling; a worker silent past it is
            presumed wedged, killed, and the call handled as a crash.
        checkpoint_interval_ops: Forwarded to each session.
    """

    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    max_restarts: int = 5
    crash_window_s: float = 30.0
    call_timeout_s: float = 60.0
    checkpoint_interval_ops: int = DEFAULT_CHECKPOINT_INTERVAL

    def __post_init__(self) -> None:
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if self.call_timeout_s <= 0 or self.crash_window_s <= 0:
            raise ValueError("timeouts must be > 0")


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
        config: Optional[SupervisorConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        on_worker_death: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self._root = Path(root)
        self._config = config or SupervisorConfig()
        self._clock = clock
        self._sleep = sleep
        self._on_worker_death = on_worker_death
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

    def tenant_root(self, name: str) -> Path:
        """On-disk session directory of ``name`` (checkpoints + journal)."""
        return self._get(name).root

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
                    if tenant.conn.poll(self._config.call_timeout_s):
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
                try:
                    tenant.conn.send({"cmd": "shutdown"})
                    tenant.conn.poll(self._config.call_timeout_s)
                    if tenant.conn.poll(0):
                        tenant.conn.recv()
                except (BrokenPipeError, EOFError, OSError):
                    pass
                tenant.process.join(timeout=self._config.call_timeout_s)
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
                self._config.checkpoint_interval_ops,
            ),
            daemon=True,
            name=f"repro-session-{tenant.name}",
        )
        process.start()
        child_conn.close()
        # Wait for the ready handshake: recovery happens before it, so a
        # successful boot means the session state is consistent.
        if not parent_conn.poll(self._config.call_timeout_s):
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
        """Handle a detected crash: budget check, backoff, death hook, boot."""
        if tenant.conn is not None:
            tenant.conn.close()
            tenant.conn = None
        if tenant.process is not None:
            tenant.process.join(timeout=1.0)
            tenant.process = None
        now = self._clock()
        window_start = now - self._config.crash_window_s
        tenant.crash_times = [t for t in tenant.crash_times if t >= window_start]
        tenant.crash_times.append(now)
        burst = len(tenant.crash_times)
        if burst > self._config.max_restarts:
            tenant.failed = True
            raise TenantFailedError(
                f"tenant {tenant.name!r}: {burst - 1} restarts within "
                f"{self._config.crash_window_s:g}s; retiring the session"
            )
        if burst > 1:
            self._sleep(
                min(
                    self._config.backoff_cap_s,
                    self._config.backoff_base_s * 2 ** (burst - 2),
                )
            )
        tenant.restarts += 1
        if self._on_worker_death is not None:
            self._on_worker_death(tenant.name, tenant.restarts)
        self._start_worker(tenant)


def _safe_dirname(name: str) -> str:
    cleaned = "".join(c if (c.isalnum() or c in "._-") else "_" for c in name)
    return cleaned or "tenant"
