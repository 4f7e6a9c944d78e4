"""Ledger run of a serving workload: the pipeline a batch crosses, layer by
layer, on the very batches the daemon was sent — in this process, without
sockets.

The program has no spans of its own yet, so the benchmark builds a
``ReplaySession`` from its public constructor and hands it collaborators
(engine, journal, checkpoint store, analyses) wrapped so that every call
the session makes into them runs inside a span.  What is left of a
``service.session`` span after its children is the session's own time;
what is left of a daemon-served batch after the session is the daemon's
(sockets, asyncio, supervisor/worker IPC) and is reported, not dropped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import Ledger, Run, median, percentile, timed
from serve import BATCH_OPS, TENANT
from verify import kernel_engine, kernel_translator

from repro.analysis.incremental import IncrementalDistances, IncrementalNolsBaseline
from repro.core.batch import IncrementalBatchReplay
from repro.core.config import LS
from repro.extentmap.array_map import ArrayExtentMap
from repro.service.checkpoint import CheckpointStore
from repro.service.journal import OpJournal
from repro.service.session import DEFAULT_CHECKPOINT_INTERVAL, ReplaySession
from repro.service.wire import OP_BYTES, decode_payload, encode_payload, payload_crc

#: Batches given to the uninstrumented comparison session.
COMPARISON_BATCHES = 320
#: Coalescing width assumed where the daemon was saturated: its in-flight cap.
GROUP = 16


class Spanned:
    """A collaborator whose listed methods run inside ledger spans."""

    def __init__(self, target, ledger: Ledger, spans: Dict[str, str]) -> None:
        self._target = target
        self._ledger = ledger
        self._spans = spans

    def __getattr__(self, name: str):
        attribute = getattr(self._target, name)
        span = self._spans.get(name)
        if span is None:
            return attribute

        def call(*args, **kwargs):
            with self._ledger.span(span):
                return attribute(*args, **kwargs)

        return call


def _session(root: Path, capacity: int, ledger: Ledger = None) -> ReplaySession:
    """A fresh session as ``ReplaySession.create`` builds it; with a ledger,
    its collaborators are wrapped."""
    engine = kernel_engine(capacity, LS, trace_name=TENANT, track_fragments=True)
    journal = OpJournal(root)
    journal.open_segment(1)
    parts = {
        "engine": engine,
        "baseline": IncrementalNolsBaseline(),
        "distances": IncrementalDistances(),
        "checkpoints": CheckpointStore(root),
        "journal": journal,
    }
    if ledger is not None:
        wrap = {
            "engine": {
                "feed_arrays": "core.batch.feed",
                "drain_distances": "core.batch.feed",
                "state_dict": "core.batch.state_dict",
            },
            "baseline": {
                "feed_arrays": "analysis.incremental",
                "state_dict": "analysis.state_dict",
            },
            "distances": {
                "feed": "analysis.incremental",
                "state_dict": "analysis.state_dict",
            },
            "checkpoints": {"save": "service.checkpoint.save"},
            "journal": {
                "append": "service.journal.append",
                "append_group": "service.journal.append",
                "rotate": "service.journal.rotate",
                "prune_below": "service.journal.rotate",
            },
        }
        parts = {k: Spanned(v, ledger, wrap[k]) for k, v in parts.items()}
    session = ReplaySession(
        tenant=TENANT,
        root=root,
        config=LS,
        frontier_base=capacity,
        applied_seq=0,
        checkpoint_interval_ops=DEFAULT_CHECKPOINT_INTERVAL,
        **parts,
    )
    session.checkpoint()
    return session


def measure(run: Run, stream, tmp: Path, served: dict) -> None:
    ledger = run.ledger
    first_b, last_b = served["phase_b_range"]

    # -- the instrumented session over every batch the daemon got ------- #
    # Calls as the worker makes them: one batch per call where the daemon
    # was offered 29 % load (Phase A, tail), groups of GROUP where it was
    # saturated with GROUP batches in flight (Phase B).
    calls = [(seq, 1) for seq in range(1, first_b)]
    calls += [(seq, min(GROUP, last_b - seq + 1)) for seq in range(first_b, last_b + 1, GROUP)]
    calls += [(seq, 1) for seq in range(last_b + 1, stream.n_batches + 1)]
    session = _session(tmp / "ledger-session", stream.capacity, ledger)
    call_ms: List[float] = []
    phase_a_spans = None
    with ledger.span("serve.pipeline"):
        for seq, count in calls:
            if seq == first_b:
                phase_a_spans = len(ledger.spans)
            if count == 1:
                with ledger.span("service.session") as span:
                    session.apply_batch(seq, *stream.batch(seq))
            else:
                payload = b"".join(
                    encode_payload(*stream.batch(s)) for s in range(seq, seq + count)
                )
                with ledger.span("service.session") as span:
                    session.apply_group_payload(seq, [BATCH_OPS] * count, payload)
            call_ms.append((span["end"] - span["start"]) * 1e3)
    run.check(
        "instrumented session equals the served one",
        session.query("stats") == served["replies"]["stats"],
    )
    single_ms = call_ms[: first_b - 1]
    group_ms = [ms for ms, (_, count) in zip(call_ms, calls) if count > 1]
    run.put("service.session.apply_ms_p50", percentile(single_ms, 50), n=len(single_ms))
    run.put("service.session.apply_ms_p99", percentile(single_ms, 99), n=len(single_ms))
    run.put("service.session.ops_per_s",
            len(single_ms) * BATCH_OPS / (sum(single_ms) / 1e3), n=len(single_ms))
    phase_b_batches = last_b - first_b + 1
    run.put("service.session.group16_ops_per_s",
            phase_b_batches * BATCH_OPS / (sum(group_ms) / 1e3), n=len(group_ms))
    # The daemon's share: a batch served at saturation minus the session's
    # time on the same batches at full coalescing.  If the daemon coalesced
    # less than GROUP, part of this is really per-call session time.
    run.put(
        "service.daemon.unattributed_ms_per_batch",
        served["phase_b_ms_per_batch"] - sum(group_ms) / phase_b_batches,
        n=phase_b_batches,
    )

    own = ledger.self_seconds()
    run.put("service.session.self_ms_per_batch",
            own["service.session"] / stream.n_batches * 1e3, n=len(calls))
    phase_a = ledger.spans[:phase_a_spans]
    single_ops = len(single_ms) * BATCH_OPS

    def seconds(spans, name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    run.put("core.batch.chunk1k_ops_per_s",
            single_ops / seconds(phase_a, "core.batch.feed"), n=len(single_ms))
    run.put("analysis.incremental_feed_ns_per_op",
            seconds(phase_a, "analysis.incremental") / single_ops * 1e9, n=len(single_ms))
    appends = [
        (s["end"] - s["start"]) * 1e3 for s in phase_a if s["name"] == "service.journal.append"
    ]
    run.put("service.journal.append_ms_p50", percentile(appends, 50), n=len(appends))
    run.put("service.journal.append_ms_p99", percentile(appends, 99), n=len(appends))

    # -- end-state costs ------------------------------------------------ #
    run.put("service.session.query_stats_ms",
            median(timed(session.query, "stats")[1] * 1e3 for _ in range(20)), n=20)
    run.put("service.session.query_cdf_ms",
            median(timed(session.query, "fragment_cdf")[1] * 1e3 for _ in range(20)), n=20)
    with ledger.span("service.checkpoint.final"):
        session.close()
    # A checkpoint is every state_dict/save/rotate span under one session span.
    checkpoint_ms: Dict[int, float] = {}
    for s in ledger.spans:
        if s["name"] in (
            "core.batch.state_dict", "analysis.state_dict",
            "service.checkpoint.save", "service.journal.rotate",
        ) and s["parent"] is not None:
            checkpoint_ms[s["parent"]] = (
                checkpoint_ms.get(s["parent"], 0.0) + (s["end"] - s["start"]) * 1e3
            )
    saves = [checkpoint_ms[parent] for parent in sorted(checkpoint_ms)]
    if saves:
        for label, share in (("at25pct", 0.25), ("at50pct", 0.5), ("at100pct", 1.0)):
            run.put(
                f"service.checkpoint.save_ms.{label}",
                saves[max(0, round(share * len(saves)) - 1)],
                n=1,
            )

    store = CheckpointStore(tmp / "ledger-session")
    newest = store.entry_path(store.sequence_numbers()[-1])
    run.put("service.checkpoint.bytes.at100pct",
            sum(p.stat().st_size for p in newest.iterdir()))
    run.put("service.checkpoint.header_bytes.at100pct",
            (newest / "header.json").stat().st_size)
    (_, state), load_s = timed(store.load_latest)
    run.put("service.checkpoint.load_ms", load_s * 1e3, n=1)
    engine, from_state_s = timed(
        IncrementalBatchReplay.from_state,
        kernel_translator(stream.capacity, LS), state["engine"],
    )
    run.put("core.batch.from_state_s", from_state_s, n=1)
    run.put("core.batch.state_dict_s", timed(engine.state_dict)[1], n=1)

    # -- what the spans themselves cost: the same batches through a session
    # with bare collaborators.  Medians, because a checkpoint batch or one
    # disturbed fsync outweighs hundreds of ordinary batches in a sum.
    few = min(COMPARISON_BATCHES, len(single_ms))
    plain = _session(tmp / "plain-session", stream.capacity)
    plain_ms = [
        timed(plain.apply_batch, seq, *stream.batch(seq))[1] * 1e3 for seq in range(1, few + 1)
    ]
    plain.close()
    run.put("trace_overhead_frac", median(single_ms[:few]) / median(plain_ms) - 1.0, n=few)

    _wire_and_wal(run, stream, tmp)
    _extent_map(run, stream)


def _wire_and_wal(run: Run, stream, tmp: Path) -> None:
    """``encode``/``crc``/``decode`` over every batch; WAL bytes per op."""
    n = stream.n_batches
    with run.ledger.span("service.wire"):
        payloads, encode_s = timed(
            lambda: [encode_payload(*stream.batch(seq)) for seq in range(1, n + 1)]
        )
        _, crc_s = timed(lambda: [payload_crc(p) for p in payloads])
        _, decode_s = timed(lambda: [decode_payload(p, BATCH_OPS) for p in payloads])
    run.put("service.wire.encode_ns_per_op", encode_s / stream.ops * 1e9, n=n)
    run.put("service.wire.crc_ns_per_op", crc_s / stream.ops * 1e9, n=n)
    run.put("service.wire.decode_ns_per_op", decode_s / stream.ops * 1e9, n=n)
    run.put("service.wire.bytes_per_op", OP_BYTES)

    journal = OpJournal(tmp / "wal-probe")
    journal.open_segment(1)
    few = min(50, n)
    for seq in range(1, few + 1):
        journal.append(seq, *stream.batch(seq))
    journal.close()
    wal_bytes = sum(p.stat().st_size for p in journal.directory.iterdir())
    run.put("service.journal.wal_bytes_per_op", wal_bytes / (few * BATCH_OPS))


def _extent_map(run: Run, stream) -> None:
    """``ArrayExtentMap`` batch entry points on the write and read runs of
    one lap, allocated the way the log allocates: at one advancing frontier."""
    is_read, lba, length = stream.trace.as_arrays()
    cuts = np.flatnonzero(np.diff(is_read.astype(np.int8))) + 1
    bounds = np.concatenate(([0], cuts, [len(lba)]))
    extent_map = ArrayExtentMap()
    frontier = stream.capacity
    map_s = lookup_s = 0.0
    writes = reads = 0
    with run.ledger.span("extentmap"):
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if is_read[lo]:
                lookup_s += timed(extent_map.lookup_pieces_batch, lba[lo:hi], length[lo:hi])[1]
                reads += hi - lo
            else:
                sizes = length[lo:hi]
                pba = frontier + np.cumsum(sizes) - sizes
                map_s += timed(extent_map.map_range_batch, lba[lo:hi], pba, sizes)[1]
                frontier += int(sizes.sum())
                writes += hi - lo
    if writes:
        run.put("extentmap.map_batch_ns_per_op", map_s / writes * 1e9, n=writes)
    if reads:
        run.put("extentmap.lookup_batch_ns_per_op", lookup_s / reads * 1e9, n=reads)
    run.put("extentmap.flush_count", extent_map.flush_count)
    run.put("extentmap.realloc_count", extent_map.realloc_count)
    run.put("extentmap.extents_final", extent_map.mapped_extent_count())
