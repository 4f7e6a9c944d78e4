"""The two serving workloads: ``serve_read_hot`` and ``serve_write_churn``.

The daemon under test is a separate process started through the public
CLI at its shipped defaults; everything it is sent is generated here from
the seed.  One tenant, config ``LS``, binary wire, 1000-op batches:

* set-up — synthesize the trace, encode the frames, boot the daemon, open
  the tenant (which spawns its worker).  Done ``SETUPS`` times; the median
  is ``setup_s`` and the last one is used.
* Phase A, open loop — ``RATE_OPS_PER_S`` for ``--seconds`` seconds, at
  most ``IN_FLIGHT`` batches outstanding, ``stats`` queries at
  ``QUERY_HZ`` on a second connection.  Latencies run from due time.
* Phase B, closed loop — ``IN_FLIGHT`` outstanding until the batches run
  out: throughput at saturation.
* tail — an explicit checkpoint, then a fixed number of batches that stay
  in the WAL, so that recovery always restores the same number of ops.
* recovery — copy the idle tenant directory, ``ReplaySession.open`` the
  copy, read its stats.

The op stream is several laps of one synthesized trace, lap *k* moved up by
*k* trace spans so every lap writes LBAs nothing wrote before: a longer
trace of the same mix.  (Synthesizing ``hm_1`` costs ~10 µs/op and grows
faster than linearly; a million distinct ops would put tens of seconds of
synthesis into every set-up.)
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import verify
from harness import Run, child_env, median, percentile, timed
from openloop import MAX_GEN_LATE_MS, Connection, encode_frame, query_frame, run_phase

from repro.core.config import LS, config_to_dict
from repro.service.session import ReplaySession
from repro.workloads import get_spec, synthesize_workload

# Sizes at the nominal --seconds (harness.NOMINAL_SECONDS); Run.sized scales them.
TRACES = {"serve_read_hot": "hm_1", "serve_write_churn": "w84"}
SYNTH_OPS = 100_000         # one lap
BATCH_OPS = 1_000
RATE_OPS_PER_S = 40_000
PHASE_B_BATCHES = 500
TAIL_BATCHES = 25           # < one checkpoint interval, so it stays in the WAL
IN_FLIGHT = 16              # = the daemon's shipped queue_depth
QUERY_HZ = 20.0
SLO_MS = 50.0
REFERENCE_PREFIX_OPS = 15_000
SETUPS = 3
RECOVERIES = 3
TENANT = "bench"


class Daemon:
    """``python -m repro serve`` as a child process in its own group."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
            line = self.process.stdout.readline().decode() if ready else ""
            # "repro serve: listening on 127.0.0.1:<port> (root=...)"
            self.port = int(line.split(" (root=")[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"daemon did not come up: {line!r}")

    def stop(self) -> None:
        """SIGTERM (sessions checkpoint on the way down), wait, then make
        sure nothing of the process group outlives the benchmark."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self.process.stdout.close()


class Stream:
    """The generated op stream, as columns and as wire frames: as many laps
    of one synthesized trace as the batches need, lap *k* moved up by *k*
    trace spans."""

    def __init__(self, run: Run, n_batches: int) -> None:
        name = TRACES[run.workload]
        scale = run.sized(SYNTH_OPS) / get_spec(name).total_ops
        self.trace, self.synth_s = timed(synthesize_workload, name, seed=run.seed, scale=scale)
        is_read, lba, length = self.trace.as_arrays()
        span = int(self.trace.max_end)
        ops = n_batches * BATCH_OPS
        laps = -(-ops // len(lba))
        self.capacity = laps * span
        self.is_read = np.tile(is_read, laps)[:ops]
        self.lba = (
            np.tile(lba, laps) + np.repeat(np.arange(laps, dtype=np.int64) * span, len(lba))
        )[:ops]
        self.length = np.tile(length, laps)[:ops]
        self.n_batches = n_batches
        start = time.perf_counter()
        self.frames = [
            encode_frame(TENANT, seq, *self.batch(seq)) for seq in range(1, n_batches + 1)
        ]
        self.encode_s = time.perf_counter() - start

    @property
    def ops(self) -> int:
        return self.n_batches * BATCH_OPS

    def batch(self, seq: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = slice((seq - 1) * BATCH_OPS, seq * BATCH_OPS)
        return self.is_read[rows], self.lba[rows], self.length[rows]


def _set_up(run: Run, root: Path, n_batches: int):
    """One complete set-up; returns what the window needs."""
    stream = Stream(run, n_batches)
    daemon = Daemon(root)
    try:
        apply_conn = Connection("127.0.0.1", daemon.port)
        query_conn = Connection("127.0.0.1", daemon.port)
        hello = apply_conn.request({"op": "hello"})
        if "bin" not in hello.get("wires", ()):
            raise RuntimeError(f"daemon does not offer the binary wire: {hello}")
        opened, spawn_s = timed(
            apply_conn.request,
            {
                "op": "open",
                "tenant": TENANT,
                "config": config_to_dict(LS),
                "capacity_sectors": stream.capacity,
            },
        )
        if not opened.get("ok"):
            raise RuntimeError(f"open failed: {opened}")
    except BaseException:
        daemon.stop()
        raise
    return stream, daemon, apply_conn, query_conn, spawn_s


def run_serve(run: Run) -> None:
    phase_a_batches = max(1, round(RATE_OPS_PER_S * run.seconds / BATCH_OPS))
    phase_b_batches = run.sized(PHASE_B_BATCHES)
    tail_batches = min(run.sized(TAIL_BATCHES), 40)  # stays under one checkpoint interval
    n_batches = phase_a_batches + phase_b_batches + tail_batches

    with run.scratch() as tmp:
        setups, spawns = [], []
        for attempt in range(SETUPS):
            root = tmp / f"daemon-{attempt}"
            (stream, daemon, apply_conn, query_conn, spawn_s), setup_s = timed(
                _set_up, run, root, n_batches
            )
            setups.append(setup_s)
            spawns.append(spawn_s)
            if attempt < SETUPS - 1:
                apply_conn.close()
                query_conn.close()
                daemon.stop()
                shutil.rmtree(root)
        run.put("setup_s", median(setups), n=SETUPS)
        try:
            served = _window(
                run, stream, daemon, apply_conn, query_conn,
                phase_a_batches, phase_b_batches, tail_batches,
            )
            if run.ledger is not None:
                run.put("service.supervisor.spawn_s", median(spawns), n=SETUPS)
                pings = [
                    timed(apply_conn.request, {"op": "ping"})[1] * 1e3 for _ in range(200)
                ]
                run.put("service.daemon.ping_rtt_ms", median(pings), n=len(pings))
        finally:
            apply_conn.close()
            query_conn.close()
            daemon.stop()

        with run.verifying():
            verify.check_served(run, stream, served, run.sized(REFERENCE_PREFIX_OPS))
        if run.ledger is not None:
            import serve_ledger  # it imports this module

            serve_ledger.measure(run, stream, tmp, served)


def _window(
    run: Run,
    stream: Stream,
    daemon: Daemon,
    apply_conn: Connection,
    query_conn: Connection,
    phase_a_batches: int,
    phase_b_batches: int,
    tail_batches: int,
) -> dict:
    """Phases A and B, the tail, the final replies and the recoveries."""
    frames = stream.frames
    a_end = phase_a_batches
    b_end = a_end + phase_b_batches

    phase_a = run_phase(
        apply_conn, frames[:a_end], 1, BATCH_OPS, IN_FLIGHT,
        rate_ops_per_s=RATE_OPS_PER_S,
        query_conn=query_conn, query=query_frame(TENANT, "stats"), query_hz=QUERY_HZ,
    )
    phase_b = run_phase(apply_conn, frames[a_end:b_end], a_end + 1, BATCH_OPS, IN_FLIGHT)
    checkpointed = apply_conn.request({"op": "checkpoint", "tenant": TENANT})
    tail = run_phase(apply_conn, frames[b_end:], b_end + 1, BATCH_OPS, IN_FLIGHT)

    replies: Dict[str, dict] = {}
    for kind in ("stats", "saf", "applied"):
        reply = query_conn.request({"op": "query", "tenant": TENANT, "kind": kind})
        replies[kind] = reply.get("result") if reply.get("ok") else None

    recoveries, recovered_stats = _recover(run, daemon.root / TENANT, stream.capacity)

    phases = (phase_a, phase_b, tail)
    batches = sum(p.batches for p in phases)
    failed_batches = sum(p.failed_batches for p in phases)
    run.attempted += batches + phase_a.queries
    run.failed += failed_batches + phase_a.failed_queries
    run.check(
        f"the generator kept its schedule (sends at most {MAX_GEN_LATE_MS:g} ms late)",
        all(p.valid for p in phases),
        f"late p99 {percentile(phase_a.late_ms, 99):.2f} ms, "
        f"timed out: {[p.timed_out for p in phases]}",
        validity=True,
    )
    run.check("the explicit checkpoint succeeded", checkpointed.get("ok", False))

    run.put("ops_per_s", phase_b.acked_ops / phase_b.wall_s, n=phase_b.batches)
    misses = sum(ms > SLO_MS for ms in phase_a.apply_ms) + phase_a.failed_batches
    run.put("slo_miss_frac", misses / phase_a.batches, n=phase_a.batches)
    if phase_a.apply_ms:
        run.put("apply_p50_ms", percentile(phase_a.apply_ms, 50), n=len(phase_a.apply_ms))
        run.put("apply_p95_ms", percentile(phase_a.apply_ms, 95), n=len(phase_a.apply_ms))
    if phase_a.query_ms:
        run.put("query_p50_ms", percentile(phase_a.query_ms, 50), n=len(phase_a.query_ms))
        run.put("query_p95_ms", percentile(phase_a.query_ms, 95), n=len(phase_a.query_ms))
    run.put("recovery_s", median(recoveries), n=len(recoveries))
    run.put("load.gen_late_p99_ms", percentile(phase_a.late_ms, 99), n=len(phase_a.late_ms))
    run.put("load.encode_frame_ns_per_op", stream.encode_s / stream.ops * 1e9)
    run.put("workloads.synth_ops_per_s", len(stream.trace) / stream.synth_s, n=1)
    run.put("service.daemon.shed", sum(p.shed for p in phases))
    run.put("service.daemon.resyncs", sum(p.resyncs for p in phases))
    if phase_b.ack_reads:
        run.put(
            "service.daemon.acks_per_group_mean",
            len(phase_b.apply_ms) / phase_b.ack_reads,
            n=phase_b.ack_reads,
        )
    return {
        "replies": replies,
        "recovered_stats": recovered_stats,
        "phase_b_range": (a_end + 1, b_end),
        "phase_b_ms_per_batch": phase_b.wall_s / phase_b.batches * 1e3,
    }


def _recover(run: Run, tenant_dir: Path, capacity: int) -> Tuple[List[float], List[dict]]:
    """Copy the idle tenant directory and recover from the copy, several times."""
    seconds, stats = [], []
    for attempt in range(RECOVERIES):
        copy = run.tmp / f"recovery-{attempt}"
        start = time.perf_counter()
        shutil.copytree(tenant_dir, copy)
        session = ReplaySession.open(TENANT, copy, LS, capacity)
        recovered = asdict(session.stats())
        seconds.append(time.perf_counter() - start)
        recovered["ops_applied"] = session.ops_applied
        stats.append(recovered)
        session.close()
        shutil.rmtree(copy)
    return seconds, stats
