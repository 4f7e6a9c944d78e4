"""Top-level CLI: ``python -m repro <command>`` (console script ``repro``).

One command: ``repro serve`` boots the streaming replay daemon
(:mod:`repro.service.daemon`) and runs until SIGINT/SIGTERM; sessions
checkpoint on the way down, so a later boot with the same ``--root``
resumes every tenant.

Experiment exhibits keep their own entry point
(``python -m repro.experiments`` / ``repro-experiments``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path

from repro.service.daemon import DaemonConfig, ReplayDaemon
from repro.service.supervisor import Supervisor


async def _serve(args) -> int:
    daemon = ReplayDaemon(
        Supervisor(Path(args.root), checkpoint_interval_ops=args.checkpoint_interval),
        DaemonConfig(
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            deadline_s=args.deadline,
        ),
    )
    await daemon.start()
    print(f"repro serve: listening on {args.host}:{daemon.port} (root={args.root})")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    serve_task = asyncio.ensure_future(daemon.serve_forever())
    stop_wait = asyncio.ensure_future(stop.wait())
    try:
        # serve_forever only returns on error; stop on signal or crash.
        await asyncio.wait({serve_task, stop_wait}, return_when=asyncio.FIRST_COMPLETED)
    finally:
        stop_wait.cancel()
        serve_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve_task
        await daemon.stop()
        print("repro serve: all sessions checkpointed; bye")
    return 0


def main(argv=None) -> int:
    """Run ``python -m repro`` with ``argv``; return the exit status."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming replay service for the SMR read-seek study.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the streaming replay daemon")
    serve.add_argument("--root", required=True, help="state directory (checkpoints + journals)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7272)
    serve.add_argument("--queue-depth", type=int, default=16, help="per-tenant queue bound")
    serve.add_argument("--deadline", type=float, default=30.0, help="queue deadline seconds")
    serve.add_argument(
        "--checkpoint-interval", type=int, default=50_000, help="ops between checkpoints"
    )

    return asyncio.run(_serve(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
