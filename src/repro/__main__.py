"""Top-level CLI: ``python -m repro <command>`` (console script ``repro``).

Commands:

* ``repro serve`` — boot the streaming replay daemon
  (:mod:`repro.service.daemon`) and run until SIGINT/SIGTERM; sessions
  checkpoint on the way down, so a later boot with the same ``--root``
  resumes every tenant.
* ``repro serve-smoke`` — the self-contained chaos smoke run
  (:mod:`repro.service.smoke`): 3 tenants, one worker kill, one corrupt
  checkpoint, exact-recovery assertions, clean shutdown.
* ``repro load`` — the serving load harness (:mod:`repro.load`): boots a
  throwaway daemon (or targets ``--host/--port``), streams multi-tenant
  Table-I mixtures at 10–100M-op scale with live queries, and prints a
  JSON report (throughput, p99 latencies, peak RSS).

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
from repro.service.supervisor import SupervisorConfig


async def _serve(args) -> int:
    daemon = ReplayDaemon(
        Path(args.root),
        config=DaemonConfig(
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            deadline_s=args.deadline,
        ),
        supervisor_config=SupervisorConfig(
            checkpoint_interval_ops=args.checkpoint_interval,
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


def _load(args) -> int:
    import json
    import tempfile

    from repro.core.config import LS, LS_CACHE, LS_DEFRAG
    from repro.load.driver import TenantLoad, run_load
    from repro.load.mixture import preset

    components = preset(args.mixture)
    configs = (LS, LS_DEFRAG, LS_CACHE)
    tenants = [
        TenantLoad(
            name=f"tenant_{i}",
            components=components,
            config=configs[i % len(configs)],
            total_ops=args.ops,
            batch_ops=args.batch_ops,
            window=args.window,
            seed=17 + i,
        )
        for i in range(args.tenants)
    ]

    def drive(host: str, port: int) -> dict:
        report = run_load(
            host,
            port,
            tenants,
            target_ops_per_s=args.rate,
            schedule=args.schedule,
            period_s=args.period,
            live_queries=not args.no_queries,
        )
        return report.to_dict()

    if args.host is not None:
        result = drive(args.host, args.port)
    else:
        from repro.service.harness import DaemonThread

        def boot_and_drive(root: str) -> dict:
            # Size the per-tenant queue for the pipeline window, or every
            # tenant sheds (and resyncs) the moment its window fills.
            server = DaemonThread(
                root,
                config=DaemonConfig(
                    port=0, queue_depth=max(2 * args.window, 64)
                ),
            )
            port = server.start()
            try:
                return drive("127.0.0.1", port)
            finally:
                server.stop()

        if args.root is not None:
            result = boot_and_drive(args.root)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-load-") as tmp:
                result = boot_and_drive(tmp)

    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def main(argv=None) -> int:
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

    smoke = commands.add_parser(
        "serve-smoke", help="3-tenant chaos smoke run against a throwaway daemon"
    )
    smoke.add_argument("--root", default=None, help="state dir (default: temp)")
    smoke.add_argument("--ops", type=int, default=3400, help="ops per tenant")

    load = commands.add_parser(
        "load", help="drive a daemon with multi-tenant mixture traffic"
    )
    load.add_argument("--host", default=None, help="target an already-running daemon")
    load.add_argument("--port", type=int, default=7272)
    load.add_argument("--root", default=None, help="state dir for a throwaway daemon (default: temp)")
    load.add_argument("--ops", type=int, default=1_000_000, help="total ops per tenant")
    load.add_argument("--tenants", type=int, default=3, help="number of tenants")
    load.add_argument("--batch-ops", type=int, default=2_000, help="ops per batch")
    load.add_argument("--window", type=int, default=32, help="pipelined batches in flight")
    load.add_argument(
        "--mixture", default="user_heavy", help="preset mixture name (see repro.load.mixture)"
    )
    load.add_argument(
        "--rate", type=float, default=None, help="combined target ops/s (default: unthrottled)"
    )
    load.add_argument(
        "--schedule", default="steady", choices=("steady", "diurnal", "burst")
    )
    load.add_argument("--period", type=float, default=10.0, help="schedule period seconds")
    load.add_argument("--no-queries", action="store_true", help="skip the live-query sidecar")
    load.add_argument("--out", default=None, help="write the JSON report here too")

    args = parser.parse_args(argv)
    if args.command == "serve":
        return asyncio.run(_serve(args))
    if args.command == "serve-smoke":
        from repro.service.smoke import main as smoke_main

        smoke_argv = ["--ops", str(args.ops)]
        if args.root:
            smoke_argv += ["--root", args.root]
        return smoke_main(smoke_argv)
    if args.command == "load":
        return _load(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
