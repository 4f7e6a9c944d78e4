"""Serving data-plane macro-benchmark: JSON path vs binary + coalesced.

Two full end-to-end runs of the streaming service at the same op count,
each against its own fresh daemon (real sockets, real worker processes,
real WAL fsyncs, live queries running alongside):

* ``reference`` — the PR 6 serving path at its shipped operating point:
  per-op JSON encoding, one 200-op apply per round trip (the batch size
  every PR 6 test, smoke and benchmark used), one WAL record + fsync
  per batch.
* ``binary``    — the high-throughput plane at its operating point:
  framed columnar 2000-op batches, 64-deep pipelined client windows,
  daemon-side coalescing into group commits (one fsync per group).
* ``reference_large_batch`` — informational, not gated: the JSON path
  *given* the binary plane's 2000-op batches, so the wire-format and
  pipelining wins are visible separately from the batch-size win the
  binary framing is what makes practical.

Plus a ``durability`` micro pinning the session hot path in isolation
(no sockets): per-batch journaled apply vs group-commit journaled apply
on the same ops — the group side's win is the fsync amortization (the
repository benchmark's ``service.session.group16_ops_per_s`` row); here
it feeds the regression gate.

Writes ``benchmarks/BENCH_serving.json``; gated by
``check_regression.py --serving`` (binary >= 5x reference sustained
throughput at 1M ops, group commit >= 1.15x per-batch, p99 query
latency and peak RSS recorded).  Machine-relative ratios, so the gate holds on
any box; absolute seconds move with the hardware.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.config import LS, LS_ALL
from repro.load.driver import TenantLoad, run_load
from repro.load.mixture import PRESET_MIXTURES
from repro.service.daemon import DaemonConfig
from repro.service.harness import DaemonThread
from repro.service.supervisor import SupervisorConfig
from repro.service.session import ReplaySession
from repro.service.wire import encode_payload
from repro.util.rss import peak_rss_mib

SCHEMA_VERSION = 1
DEFAULT_OPS = 1_000_000
#: PR 6's shipped batch size (its smoke and tests stream 200-op JSON
#: batches) vs the binary plane's framed batches.
REFERENCE_BATCH_OPS = 200
BINARY_BATCH_OPS = 2_000
WINDOW = 64
TENANTS = 2
MIXTURE = "read_hot"
#: Checkpoint cadence for both sides: high enough that the benchmark
#: measures the data plane, not checkpoint serialization (whose cost is
#: identical on both sides and covered by bench/'s ``service.checkpoint.*``
#: rows).
CHECKPOINT_INTERVAL_OPS = 250_000
DURABILITY_OPS = 20_000
DURABILITY_BATCH_OPS = 200
GROUP_BATCHES = 16


def _tenants(total_ops: int, wire: str, batch_ops: int) -> list:
    # Every tenant runs the same translator config: the benchmark compares
    # *data planes*, so cleaning policy must be held constant — mixing in
    # LS_DEFRAG would charge its defrag sweeps (a translator cost, ~3x the
    # LS apply rate on this mixture) to whichever wire happened to host it.
    per_tenant = max(total_ops // TENANTS, 1)
    return [
        TenantLoad(
            name=f"bench_{i}",
            components=PRESET_MIXTURES[MIXTURE],
            config=LS,
            total_ops=per_tenant,
            batch_ops=batch_ops,
            wire=wire,
            window=WINDOW,
            seed=17 + i,
        )
        for i in range(TENANTS)
    ]


def _serve_side(root: str, total_ops: int, wire: str, batch_ops: int) -> dict:
    server = DaemonThread(
        root,
        config=DaemonConfig(port=0, queue_depth=max(2 * WINDOW, 64)),
        supervisor_config=SupervisorConfig(
            checkpoint_interval_ops=CHECKPOINT_INTERVAL_OPS
        ),
    )
    port = server.start()
    try:
        report = run_load(
            "127.0.0.1", port, _tenants(total_ops, wire, batch_ops)
        )
    finally:
        server.stop()
    return {
        "seconds": round(report.seconds, 3),
        "ops": report.ops,
        "batch_ops": batch_ops,
        "ops_per_s": round(report.ops_per_s),
        "apply_p50_ms": round(report.apply_p50_ms, 3),
        "apply_p99_ms": round(report.apply_p99_ms, 3),
        "query_p50_ms": round(report.query_p50_ms, 3),
        "query_p99_ms": round(report.query_p99_ms, 3),
        "queries": report.queries,
        "resyncs": report.resyncs,
    }


def bench_serving(total_ops: int) -> dict:
    """End-to-end PR 6 JSON path vs binary+coalesced at ``total_ops``."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        reference = _serve_side(
            f"{tmp}/json", total_ops, "json", REFERENCE_BATCH_OPS
        )
        large = _serve_side(
            f"{tmp}/json2k", total_ops, "json", BINARY_BATCH_OPS
        )
        binary = _serve_side(
            f"{tmp}/bin", total_ops, "bin", BINARY_BATCH_OPS
        )
    binary["speedup_vs_reference"] = round(
        reference["seconds"] / binary["seconds"], 2
    )
    large["speedup_vs_reference"] = round(
        reference["seconds"] / large["seconds"], 2
    )
    return {
        "ops": total_ops,
        "reference": reference,
        "reference_large_batch": large,
        "binary": binary,
    }


def bench_durability(n_ops: int = DURABILITY_OPS) -> dict:
    """Session WAL hot path, no transport: per-batch vs group commit.

    Same ops on both sides; the group side journals ``GROUP_BATCHES``
    batches per CRC frame and fsync via ``apply_group_payload``, which
    is what the daemon's coalescer produces.
    """
    rng = np.random.default_rng(5)
    capacity = 1 << 20
    length = rng.integers(1, 33, size=n_ops).astype(np.int64)
    lba = rng.integers(0, capacity - 33, size=n_ops).astype(np.int64)
    is_read = rng.random(n_ops) < 0.5
    is_read[0] = False

    b = DURABILITY_BATCH_OPS
    n_batches = n_ops // b
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as tmp:
        per_batch = ReplaySession.create(
            "per_batch", Path(tmp) / "per_batch", LS_ALL, capacity,
            checkpoint_interval_ops=10**9,
        )
        t0 = time.perf_counter()
        for i in range(n_batches):
            sl = slice(i * b, (i + 1) * b)
            per_batch.apply_batch(i + 1, is_read[sl], lba[sl], length[sl])
        per_batch_s = time.perf_counter() - t0

        grouped = ReplaySession.create(
            "grouped", Path(tmp) / "grouped", LS_ALL, capacity,
            checkpoint_interval_ops=10**9,
        )
        t0 = time.perf_counter()
        for g in range(0, n_batches, GROUP_BATCHES):
            k = min(GROUP_BATCHES, n_batches - g)
            # A group payload is per-batch payloads back to back — the
            # byte stream the daemon's coalescer hands the worker.
            payload = b"".join(
                encode_payload(
                    is_read[i * b : (i + 1) * b],
                    lba[i * b : (i + 1) * b],
                    length[i * b : (i + 1) * b],
                )
                for i in range(g, g + k)
            )
            grouped.apply_group_payload(g + 1, [b] * k, payload)
        group_s = time.perf_counter() - t0
        assert grouped.stats() == per_batch.stats(), "group commit diverged"

    n = n_batches * b
    return {
        "ops": n,
        "group_batches": GROUP_BATCHES,
        "reference": {
            "seconds": round(per_batch_s, 4),
            "ops_per_s": round(n / per_batch_s),
        },
        "group_commit": {
            "seconds": round(group_s, 4),
            "ops_per_s": round(n / group_s),
            "speedup_vs_reference": round(per_batch_s / group_s, 2),
        },
    }


def run(total_ops: int) -> dict:
    durability = bench_durability()
    serving = bench_serving(total_ops)
    return {
        "schema": SCHEMA_VERSION,
        "ops": total_ops,
        "tenants": TENANTS,
        "reference_batch_ops": REFERENCE_BATCH_OPS,
        "binary_batch_ops": BINARY_BATCH_OPS,
        "window": WINDOW,
        "checkpoint_interval_ops": CHECKPOINT_INTERVAL_OPS,
        "mixture": MIXTURE,
        "python": sys.version.split()[0],
        "results": {"serving": serving, "durability": durability},
        "peak_rss_mib": round(peak_rss_mib(), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="benchmarks/BENCH_serving.json", metavar="FILE"
    )
    parser.add_argument(
        "--ops", type=int, default=DEFAULT_OPS, help="total ops across tenants"
    )
    args = parser.parse_args(argv)

    report = run(args.ops)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    serving = report["results"]["serving"]
    durability = report["results"]["durability"]
    print(
        f"serving    reference {serving['reference']['seconds']:8.2f}s "
        f"({serving['reference']['ops_per_s']:>8} op/s)   "
        f"json-2k {serving['reference_large_batch']['seconds']:8.2f}s "
        f"({serving['reference_large_batch']['speedup_vs_reference']:.2f}x)   "
        f"binary {serving['binary']['seconds']:8.2f}s "
        f"({serving['binary']['ops_per_s']:>8} op/s, "
        f"{serving['binary']['speedup_vs_reference']:.2f}x)"
    )
    print(
        f"durability per-batch {durability['reference']['seconds']:8.2f}s   "
        f"group-commit {durability['group_commit']['seconds']:8.2f}s "
        f"({durability['group_commit']['speedup_vs_reference']:.2f}x)"
    )
    print(
        f"binary p99: apply {serving['binary']['apply_p99_ms']:.2f}ms, "
        f"query {serving['binary']['query_p99_ms']:.2f}ms; "
        f"peak RSS {report['peak_rss_mib']:.0f} MiB"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
