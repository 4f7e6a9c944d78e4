"""Self-contained chaos smoke run for the streaming daemon.

One call boots the whole stack and puts the headline robustness claims
through their paces, in-process and deterministic:

1. Start a :class:`~repro.service.daemon.ReplayDaemon` on a free port
   (own event loop in a background thread).
2. Stream three concurrent tenants — different technique configs,
   ~10k ops total — through real sockets: two **pipelined**
   (``apply_stream``, so the daemon coalesces their batches into group
   commits, and the chaos below lands with a window of batches in
   flight), one sending a batch at a time (``apply_with_retry``).
3. Mid-stream, ``SIGKILL`` one tenant's worker (supervised restart +
   WAL recovery, including group-committed records) and, for another,
   force a checkpoint, corrupt it on disk, then kill that worker too
   (restart must *fall back* to the previous checkpoint and replay the
   longer journal tail).
4. Drain the streams, then compare every tenant's live stats, SAF and
   fragment CDF against an offline one-shot replay of the same op
   stream — they must match **exactly**.
5. Shut the daemon down cleanly (every session checkpoints).

Used by ``make serve-smoke`` and wrapped with a hard watchdog in
``tests/test_serve_smoke.py``.  Returns a small summary dict so callers
can print or assert on it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.analysis.incremental import fragment_cdf_from_hist
from repro.core.batch import IncrementalBatchReplay
from repro.core.config import (
    LS,
    LS_CACHE,
    LS_DEFRAG,
    TechniqueConfig,
    build_translator_for_base,
)
from repro.service.checkpoint import CheckpointStore
from repro.service.client import ReplayClient
from repro.service.daemon import DaemonConfig
from repro.service.harness import DaemonThread
from repro.service.supervisor import SupervisorConfig
from repro.util.npystore import PAGE_ALIGN
from repro.workloads.generator import generate_workload
from repro.workloads.table1 import get_spec

#: (tenant, workload, config) — alpha and bravo stream pipelined
#: (coalesced group commits take the chaos hits); charlie, uninjured,
#: sends one batch at a time.
_TENANTS = (
    ("alpha", "usr_0", LS),
    ("bravo", "hm_1", LS_DEFRAG),
    ("charlie", "src2_2", LS_CACHE),
)


class _DaemonThread(DaemonThread):
    """The smoke/test-suite daemon: small queues, fast checkpoints."""

    def __init__(self, root: Path) -> None:
        super().__init__(
            root,
            config=DaemonConfig(port=0, queue_depth=8, deadline_s=30.0),
            supervisor_config=SupervisorConfig(
                backoff_base_s=0.01,
                backoff_cap_s=0.1,
                call_timeout_s=60.0,
                checkpoint_interval_ops=1200,
            ),
        )


def _tenant_stream(workload: str, ops: int):
    """Deterministic op columns for one tenant, ~`ops` operations."""
    spec = get_spec(workload)
    scale = max(ops / max(1, spec.total_ops), 0.001)
    trace = generate_workload(spec, seed=11, scale=scale)
    is_read, lba, length = trace.as_arrays()
    return is_read[:ops], lba[:ops], length[:ops], int(trace.max_end)


def _offline_reference(
    config: TechniqueConfig, capacity: int, is_read, lba, length
) -> IncrementalBatchReplay:
    engine = IncrementalBatchReplay(
        build_translator_for_base(capacity, config), track_fragments=True
    )
    engine.feed_arrays(is_read, lba, length)
    return engine


def _corrupt_newest_checkpoint(session_root: Path) -> Path:
    """Flip one payload byte of the newest checkpoint's largest array.

    The byte lies past the page-aligned ``.npy`` header, so the file still
    parses: only the checkpoint's content checksum catches the damage.
    """
    store = CheckpointStore(session_root)
    entry = store.entry_path(store.sequence_numbers()[-1])
    target = max(entry.glob("*.npy"), key=lambda path: path.stat().st_size)
    size = target.stat().st_size
    assert size > PAGE_ALIGN, f"{target} has no payload to damage"
    with open(target, "r+b") as handle:
        handle.seek((PAGE_ALIGN + size) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xA5]))
    return entry


def run_smoke(
    root: Union[str, Path],
    ops_per_tenant: int = 3400,
    batch_ops: int = 200,
    verbose: bool = False,
) -> Dict[str, dict]:
    """Boot, stream, injure, recover, verify, shut down.  See module docs.

    Raises ``AssertionError`` if any tenant's recovered stats diverge
    from the offline reference, or if shutdown is unclean.
    """
    root = Path(root)
    streams = {
        tenant: _tenant_stream(workload, ops_per_tenant)
        for tenant, workload, _ in _TENANTS
    }
    server = _DaemonThread(root)
    port = server.start()
    say = print if verbose else (lambda *_: None)
    say(f"daemon up on 127.0.0.1:{port}")

    errors: List[BaseException] = []
    halfway = {tenant: threading.Event() for tenant, _, _ in _TENANTS}
    resume = {tenant: threading.Event() for tenant, _, _ in _TENANTS}

    def stream_tenant(tenant: str, config: TechniqueConfig) -> None:
        try:
            is_read, lba, length, capacity = streams[tenant]
            with ReplayClient("127.0.0.1", port, tenant) as client:
                client.open(config, capacity)
                n = len(lba)

                def batch_gen():
                    # Holds at halfway (pipelined: with a window of
                    # batches still in flight) so the chaos injection
                    # lands at a known point mid-group, then resumes.
                    paused = False
                    for start in range(0, n, batch_ops):
                        end = min(start + batch_ops, n)
                        yield is_read[start:end], lba[start:end], length[start:end]
                        if not paused and end * 2 >= n:
                            paused = True
                            halfway[tenant].set()
                            resume[tenant].wait(timeout=120)

                if tenant == "charlie":
                    for batch in batch_gen():
                        client.apply_with_retry(*batch)
                else:
                    client.apply_stream(batch_gen(), window=8)
                assert client.applied_seq() == client.next_seq - 1
        except BaseException as exc:  # surfaced by the main thread
            halfway[tenant].set()
            errors.append(exc)

    threads = [
        threading.Thread(target=stream_tenant, args=(tenant, config), daemon=True)
        for tenant, _, config in _TENANTS
    ]
    for thread in threads:
        thread.start()

    resume["charlie"].set()  # charlie streams straight through, uninjured

    # Chaos 1: SIGKILL alpha's worker while its client is held at halfway;
    # the next apply finds the worker dead, and the supervisor restarts it
    # (WAL recovery) transparently.
    assert halfway["alpha"].wait(timeout=120), "alpha never reached halfway"
    if not errors:
        pid = server.daemon.supervisor.worker_pid("alpha")
        if pid is not None:
            say(f"chaos: kill -9 alpha worker (pid {pid})")
            os.kill(pid, signal.SIGKILL)
    resume["alpha"].set()

    # Chaos 2: force a bravo checkpoint, corrupt it on disk, then kill the
    # worker — recovery must reject the damaged checkpoint and fall back
    # to the previous one plus a longer journal tail.
    assert halfway["bravo"].wait(timeout=120), "bravo never reached halfway"
    if not errors:
        with ReplayClient("127.0.0.1", port, "bravo") as chaos_client:
            chaos_client.checkpoint()
        damaged = _corrupt_newest_checkpoint(
            server.daemon.supervisor.tenant_root("bravo")
        )
        say(f"chaos: corrupted {damaged}")
        pid = server.daemon.supervisor.worker_pid("bravo")
        if pid is not None:
            say(f"chaos: kill -9 bravo worker (pid {pid})")
            os.kill(pid, signal.SIGKILL)
    resume["bravo"].set()

    deadline = time.monotonic() + 300
    for thread in threads:
        thread.join(timeout=max(1.0, deadline - time.monotonic()))
        assert not thread.is_alive(), "tenant stream did not finish"
    if errors:
        raise errors[0]

    # Verify: live state must equal the offline one-shot replay exactly.
    summary: Dict[str, dict] = {}
    for tenant, _, config in _TENANTS:
        is_read, lba, length, capacity = streams[tenant]
        reference = _offline_reference(config, capacity, is_read, lba, length)
        ref_stats = reference.stats()
        with ReplayClient("127.0.0.1", port, tenant) as client:
            live = client.query("stats")
            saf = client.query("saf")
            cdf = client.query("fragment_cdf")["points"]
        for field, expected in (
            (f, getattr(ref_stats, f)) for f in ref_stats.__dataclass_fields__
        ):
            assert live[field] == expected, (
                f"{tenant}: {field} diverged after chaos: "
                f"live={live[field]} offline={expected}"
            )
        expected_cdf = [
            list(point) for point in fragment_cdf_from_hist(reference.fragment_hist)
        ]
        assert [list(p) for p in cdf] == expected_cdf, f"{tenant}: fragment CDF diverged"
        summary[tenant] = {
            "ops": int(live["reads"] + live["writes"]),
            "read_seeks": int(live["read_seeks"]),
            "saf_total": saf["total"],
            "restarts": server.daemon.supervisor.restart_count(tenant),
        }
        say(f"{tenant}: {summary[tenant]}")

    assert summary["alpha"]["restarts"] >= 1, "alpha worker was never restarted"
    assert summary["bravo"]["restarts"] >= 1, "bravo worker was never restarted"

    server.stop()
    say("clean shutdown ✓")
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None, help="service state dir (default: temp)")
    parser.add_argument("--ops", type=int, default=3400, help="ops per tenant")
    args = parser.parse_args(argv)
    if args.root is not None:
        summary = run_smoke(args.root, ops_per_tenant=args.ops, verbose=True)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
            summary = run_smoke(tmp, ops_per_tenant=args.ops, verbose=True)
    print("serve-smoke OK:", {t: s["saf_total"] for t, s in summary.items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
