"""In-process daemon harness: a real daemon on its own background loop.

Everything that needs a live :class:`~repro.service.daemon.ReplayDaemon`
without owning the process — the daemon and differential test suites —
boots one of these: a real TCP server on a free port,
its asyncio loop isolated in a daemon thread, with
:meth:`DaemonThread.stop` performing the clean every-session checkpoint
shutdown.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.service.daemon import DaemonConfig, ReplayDaemon
from repro.service.supervisor import Supervisor


class DaemonThread:
    """A daemon with its own event loop in a background thread."""

    def __init__(
        self, supervisor: Supervisor, config: Optional[DaemonConfig] = None
    ) -> None:
        self.daemon = ReplayDaemon(supervisor, config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-daemon-thread", daemon=True
        )
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.daemon.start())
        self._started.set()
        self._loop.run_forever()

    def start(self) -> int:
        """Boot the daemon; returns the bound port."""
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("daemon failed to start within 30s")
        return self.daemon.port

    def stop(self) -> None:
        """Clean shutdown: every session checkpoints, loop torn down."""
        future = asyncio.run_coroutine_threadsafe(self.daemon.stop(), self._loop)
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
