"""Multi-tenant load driver: sustained throughput and tail latency.

Given a running daemon (see :class:`repro.service.harness.DaemonThread`
or ``repro serve``), :func:`run_load` streams one pipelined connection
per tenant — each a deterministic Table-I mixture, paced by an arrival
schedule — while a sidecar thread issues live ``stats`` queries against
the same sessions.  It measures what a serving benchmark actually needs:

* **Sustained apply throughput** (acknowledged ops / wall seconds, all
  tenants combined).
* **Apply latency** per batch, send→ack, including coalesced group acks
  (p50/p99).  Group commits ack several batches with one worker round
  trip; the deque-matching below credits every batch in the group.
* **Live query latency** p50/p99 — queries share the worker with apply
  traffic, so this captures head-of-line blocking from big groups.
* **Peak RSS** of the harness plus reaped workers
  (:func:`repro.util.rss.peak_rss_mib`).

Runs of 10–100M ops stay cheap because each tenant's op columns are
built once at a capped size and *cycled*: batch ``i`` reads a wrapped
window into the base arrays, so memory is O(base) while the daemon sees
the full op count.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import LS, TechniqueConfig
from repro.load.mixture import PRESET_MIXTURES, build_mixture
from repro.load.schedule import arrival_offsets
from repro.service.client import ReplayClient
from repro.util.rss import peak_rss_mib

#: Base-column cap: mixtures are built at most this long and cycled.
BASE_OPS_CAP = 2_000_000


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's share of a load run."""

    name: str
    components: Sequence[Tuple[str, float]] = PRESET_MIXTURES["user_heavy"]
    config: TechniqueConfig = LS
    total_ops: int = 1_000_000
    batch_ops: int = 2_000
    window: int = 32
    seed: int = 0


@dataclass
class LoadReport:
    """What a load run measured; ``to_dict`` feeds JSON reports."""

    ops: int = 0
    seconds: float = 0.0
    ops_per_s: float = 0.0
    apply_p50_ms: float = 0.0
    apply_p99_ms: float = 0.0
    query_p50_ms: float = 0.0
    query_p99_ms: float = 0.0
    queries: int = 0
    resyncs: int = 0
    duplicate_acks: int = 0
    peak_rss_mib: float = 0.0
    per_tenant: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "seconds": round(self.seconds, 4),
            "ops_per_s": round(self.ops_per_s, 1),
            "apply_p50_ms": round(self.apply_p50_ms, 4),
            "apply_p99_ms": round(self.apply_p99_ms, 4),
            "query_p50_ms": round(self.query_p50_ms, 4),
            "query_p99_ms": round(self.query_p99_ms, 4),
            "queries": self.queries,
            "resyncs": self.resyncs,
            "duplicate_acks": self.duplicate_acks,
            "peak_rss_mib": round(self.peak_rss_mib, 1),
            "per_tenant": self.per_tenant,
        }


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _batch_slice(
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray], start: int, take: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``take`` ops beginning at ``start mod len`` — wraps around the base."""
    is_read, lba, length = columns
    n = len(lba)
    start %= n
    if start + take <= n:
        return is_read[start : start + take], lba[start : start + take], length[
            start : start + take
        ]
    head = n - start
    return (
        np.concatenate([is_read[start:], is_read[: take - head]]),
        np.concatenate([lba[start:], lba[: take - head]]),
        np.concatenate([length[start:], length[: take - head]]),
    )


class _TenantRun:
    """State one tenant thread accumulates during a run."""

    def __init__(self, spec: TenantLoad) -> None:
        self.spec = spec
        self.latencies_ms: List[float] = []
        self.resyncs = 0
        self.duplicate_acks = 0
        self.ops_applied = 0
        self.prepared = threading.Event()
        self.opened = threading.Event()
        self.error: Optional[BaseException] = None


def _run_tenant(
    run: _TenantRun,
    host: str,
    port: int,
    offsets: np.ndarray,
    base_ops_cap: int,
    go: threading.Event,
) -> None:
    spec = run.spec
    # Everything that is harness/startup cost — synthesizing the op
    # columns, connecting, opening the session (which spawns the worker)
    # — happens *before* the measured window opens: "sustained
    # throughput" means steady state, not generator and fork overhead.
    columns_and_cap = build_mixture(
        spec.components, min(spec.total_ops, base_ops_cap), seed=spec.seed
    )
    columns, capacity = columns_and_cap[:3], columns_and_cap[3]
    run.prepared.set()
    n_batches = len(offsets)
    with ReplayClient(host, port, spec.name) as client:
        client.open(spec.config, capacity)
        run.opened.set()
        go.wait()
        base_seq = client.next_seq
        t0 = time.perf_counter()
        pending: deque = deque()  # (idx, send_time), idx ascending

        def batches():
            for i in range(n_batches):
                wait = t0 + offsets[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                take = min(spec.batch_ops, spec.total_ops - i * spec.batch_ops)
                batch = _batch_slice(columns, i * spec.batch_ops, take)
                pending.append((i, time.perf_counter()))
                yield batch

        def on_ack(response: dict) -> None:
            # One group-commit ack advances applied_seq over every
            # batch in the group; credit each with the same ack time.
            now = time.perf_counter()
            applied_idx = int(
                response.get("applied_seq", response["seq"])
            ) - base_seq
            while pending and pending[0][0] <= applied_idx:
                _, sent = pending.popleft()
                run.latencies_ms.append((now - sent) * 1e3)

        result = client.apply_stream(batches(), window=spec.window, on_ack=on_ack)
        run.resyncs = int(result["resyncs"])
        run.duplicate_acks = int(result["duplicate_acks"])
        run.ops_applied = spec.total_ops


def _run_queries(
    runs: List[_TenantRun],
    host: str,
    port: int,
    interval_s: float,
    stop: threading.Event,
    latencies_ms: List[float],
    errors: List[BaseException],
) -> None:
    clients: Dict[str, ReplayClient] = {}
    try:
        # First query at once, then one per interval: a run shorter than
        # the interval still measures query latency.
        turn = 0
        while True:
            run = runs[turn % len(runs)]
            turn += 1
            if run.opened.is_set():
                name = run.spec.name
                if name not in clients:
                    clients[name] = ReplayClient(host, port, name).connect()
                sent = time.perf_counter()
                clients[name].query("stats")
                latencies_ms.append((time.perf_counter() - sent) * 1e3)
            if stop.wait(interval_s):
                break
    except (ConnectionError, OSError):
        pass  # daemon went away under us at shutdown — apply side decides
    except BaseException as exc:  # pragma: no cover - surfaced by caller
        errors.append(exc)
    finally:
        for client in clients.values():
            client.close_socket()


def run_load(
    host: str,
    port: int,
    tenants: Sequence[TenantLoad],
    target_ops_per_s: Optional[float] = None,
    schedule: str = "steady",
    period_s: float = 10.0,
    amplitude: float = 0.8,
    duty: float = 0.25,
    query_interval_s: float = 0.05,
    live_queries: bool = True,
    base_ops_cap: int = BASE_OPS_CAP,
) -> LoadReport:
    """Drive a running daemon with ``tenants``; see the module docs.

    ``target_ops_per_s`` is the *combined* rate, split evenly across
    tenants; ``None`` means unthrottled (throughput-benchmark mode).
    Raises the first tenant-thread exception, if any.
    """
    if not tenants:
        raise ValueError("need at least one TenantLoad")
    runs = [_TenantRun(spec) for spec in tenants]
    per_tenant_rate = (
        target_ops_per_s / len(tenants) if target_ops_per_s else None
    )
    go = threading.Event()
    threads = []
    for run in runs:
        n_batches = math.ceil(run.spec.total_ops / run.spec.batch_ops)
        offsets = arrival_offsets(
            n_batches,
            run.spec.batch_ops,
            per_tenant_rate,
            kind=schedule,
            period_s=period_s,
            amplitude=amplitude,
            duty=duty,
        )

        def target(run=run, offsets=offsets):
            try:
                _run_tenant(run, host, port, offsets, base_ops_cap, go)
            except BaseException as exc:
                run.error = exc
                run.prepared.set()
                run.opened.set()

        threads.append(threading.Thread(target=target, daemon=True))

    query_latencies: List[float] = []
    query_errors: List[BaseException] = []
    stop_queries = threading.Event()
    query_thread = None
    if live_queries:
        query_thread = threading.Thread(
            target=_run_queries,
            args=(runs, host, port, query_interval_s, stop_queries,
                  query_latencies, query_errors),
            daemon=True,
        )

    for thread in threads:
        thread.start()
    for run in runs:
        run.opened.wait()
    t_start = time.perf_counter()
    go.set()
    if query_thread is not None:
        query_thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - t_start
    stop_queries.set()
    if query_thread is not None:
        query_thread.join(timeout=30)

    for run in runs:
        if run.error is not None:
            raise run.error
    if query_errors:
        raise query_errors[0]

    apply_latencies = [ms for run in runs for ms in run.latencies_ms]
    report = LoadReport(
        ops=sum(run.ops_applied for run in runs),
        seconds=seconds,
        apply_p50_ms=_percentile(apply_latencies, 50),
        apply_p99_ms=_percentile(apply_latencies, 99),
        query_p50_ms=_percentile(query_latencies, 50),
        query_p99_ms=_percentile(query_latencies, 99),
        queries=len(query_latencies),
        resyncs=sum(run.resyncs for run in runs),
        duplicate_acks=sum(run.duplicate_acks for run in runs),
        peak_rss_mib=peak_rss_mib(),
    )
    report.ops_per_s = report.ops / seconds if seconds > 0 else 0.0
    for run in runs:
        report.per_tenant[run.spec.name] = {
            "ops": run.ops_applied,
            "batches": len(run.latencies_ms),
            "apply_p50_ms": round(_percentile(run.latencies_ms, 50), 4),
            "apply_p99_ms": round(_percentile(run.latencies_ms, 99), 4),
            "resyncs": run.resyncs,
            "duplicate_acks": run.duplicate_acks,
        }
    return report
