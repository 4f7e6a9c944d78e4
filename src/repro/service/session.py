"""One tenant's resident replay session.

A session owns the full streaming state for one tenant:

* the chunk-resumable replay engine
  (:class:`~repro.core.batch.IncrementalBatchReplay`) under the tenant's
  :class:`~repro.core.config.TechniqueConfig`, with per-read fragment
  tracking on so the live Fig. 5 CDF is answerable;
* the incremental analyses — NoLS baseline seek counts (the SAF
  denominator) and the bounded seek-distance summary (the seek budget);
* the durability pair — :class:`~repro.service.checkpoint.CheckpointStore`
  and :class:`~repro.service.journal.OpJournal` — and the WAL contract
  binding them.

Apply path (:meth:`ReplaySession.apply_batch`), in order:

1. **Dedupe/gap check.**  Batches carry contiguous client sequence
   numbers from 1.  A batch at or below the last applied seq is
   acknowledged without effect (the client retried after losing an ack);
   a batch beyond the next expected seq raises
   :class:`SequenceGapError` so the client resyncs (queries
   :meth:`applied_seq` and resends) instead of silently skipping ops.
2. **Validate.**  Every op must fit under the tenant's declared LBA
   capacity (the translator's frontier base); a bad batch is rejected
   *before* journaling, leaving no trace.
3. **Journal, fsynced.**  The batch is durable before any state changes.
4. **Apply.**  Feed the engine, the baseline, and the distance summary.
5. **Maybe checkpoint.**  Every ``checkpoint_interval_ops`` applied ops
   the state is snapshotted here and saved by the session's writer
   thread, at most one save in flight; the next batch or query collects
   the outcome, and only then rotates the journal.  The batch is already
   durable, so an ``OSError`` (ENOSPC, EIO) from this automatic save is
   counted (``health`` query), not raised: the previous checkpoint plus a
   longer journal tail recover the same state.

Recovery (:meth:`ReplaySession.open`) inverts this: restore the newest
checkpoint that verifies (the store deletes ones that don't and falls
back), then replay the journal tail — batches above the checkpoint's
seq — through the same apply path minus the journaling.  Because every
applied batch was journaled first and the engine is bit-exactly
resumable, the recovered stats equal an uninterrupted run's **exactly**
(the chaos suite asserts byte identity after ``kill -9`` plus checkpoint
corruption).
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.incremental import (
    IncrementalDistances,
    IncrementalNolsBaseline,
    fragment_cdf_from_hist,
)
from repro.core.batch import IncrementalBatchReplay
from repro.core.config import (
    TechniqueConfig,
    build_translator_for_base,
    config_from_dict,
    config_to_dict,
)
from repro.core.metrics import seek_amplification
from repro.core.outcomes import SimStats
from repro.extentmap.array_map import ArrayExtentMap
from repro.extentmap.tiers import DEFAULT_KERNEL_TIER, resolve_map_tier
from repro.service.checkpoint import CheckpointStore
from repro.service.journal import OpJournal
from repro.service.wire import (
    concat_columns,
    payload_nbytes,
    split_group_payload,
)


def _SERVICE_MAP_TIER() -> str:
    """Extent-map tier for session translators: the kernel default
    (``array``) unless ``REPRO_EXTENT_MAP`` forces one.  Resolved per
    build so create and checkpoint-restore always agree — and snapshots
    are tier-portable anyway (canonical extent arrays)."""
    return resolve_map_tier(DEFAULT_KERNEL_TIER)


#: Default ops between automatic checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 50_000

_STATE_VERSION = 1


class SequenceGapError(ValueError):
    """A batch arrived beyond the next expected sequence number."""

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"expected batch seq {expected}, got {got}")
        self.expected = expected
        self.got = got


class ReplaySession:
    """Resident streaming replay state for one tenant (see module docs).

    Build fresh sessions with :meth:`create` and recovered ones with
    :meth:`open`; the constructor wires already-initialized parts.
    """

    def __init__(
        self,
        tenant: str,
        root: Path,
        config: TechniqueConfig,
        frontier_base: int,
        engine: IncrementalBatchReplay,
        baseline: IncrementalNolsBaseline,
        distances: IncrementalDistances,
        checkpoints: CheckpointStore,
        journal: OpJournal,
        applied_seq: int,
        checkpoint_interval_ops: int,
    ) -> None:
        self.tenant = tenant
        self.root = root
        self.config = config
        self.frontier_base = frontier_base
        self._engine = engine
        self._baseline = baseline
        self._distances = distances
        self._checkpoints = checkpoints
        self._journal = journal
        self._applied_seq = applied_seq
        self._interval = checkpoint_interval_ops
        self._ops_at_checkpoint = engine.ops_applied
        self._writer = ThreadPoolExecutor(max_workers=1)
        self._saving: Optional[Future] = None  # the interval save in flight
        # Checkpoint health since this process opened the session (not
        # part of the checkpointed state: recovery must stay bit-identical).
        self._health = {
            "checkpoints": 0,
            "checkpoint_failures": 0,
            "last_checkpoint_error": None,
            "last_checkpoint_ms": None,
            "last_checkpoint_bytes": None,
        }

    # ----------------------------------------------------------------- #
    # Construction
    # ----------------------------------------------------------------- #

    @classmethod
    def create(
        cls,
        tenant: str,
        root: Union[str, Path],
        config: TechniqueConfig,
        frontier_base: int,
        checkpoint_interval_ops: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> "ReplaySession":
        """Start a brand-new session (no prior state under ``root``)."""
        if frontier_base <= 0:
            raise ValueError(f"frontier_base must be > 0, got {frontier_base}")
        if checkpoint_interval_ops <= 0:
            raise ValueError(
                f"checkpoint_interval_ops must be > 0, got {checkpoint_interval_ops}"
            )
        root = Path(root)
        engine = IncrementalBatchReplay(
            build_translator_for_base(frontier_base, config, _SERVICE_MAP_TIER()),
            trace_name=tenant,
            track_fragments=True,
        )
        journal = OpJournal(root)
        journal.open_segment(1)
        session = cls(
            tenant=tenant,
            root=root,
            config=config,
            frontier_base=frontier_base,
            engine=engine,
            baseline=IncrementalNolsBaseline(),
            distances=IncrementalDistances(),
            checkpoints=CheckpointStore(root),
            journal=journal,
            applied_seq=0,
            checkpoint_interval_ops=checkpoint_interval_ops,
        )
        # Checkpoint zero: even a first-batch crash restores cleanly.
        session.checkpoint()
        return session

    @classmethod
    def open(
        cls,
        tenant: str,
        root: Union[str, Path],
        config: TechniqueConfig,
        frontier_base: int,
        checkpoint_interval_ops: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> "ReplaySession":
        """Open a session: recover prior state if any, else create fresh.

        Recovery = newest verifying checkpoint + journal tail replay
        (see module docs).  ``config``/``frontier_base`` must match the
        checkpointed ones — a mismatch means the caller is trying to
        resume somebody else's state and raises.
        """
        root = Path(root)
        checkpoints = CheckpointStore(root)
        latest = checkpoints.load_latest()
        if latest is None and not OpJournal(root).segment_first_seqs():
            return cls.create(
                tenant, root, config, frontier_base, checkpoint_interval_ops
            )
        # With no latest checkpoint the journal exists but every entry was
        # destroyed: replay everything from scratch (checkpoint zero
        # covers this in practice; total loss still recovers, just slower).
        translator = build_translator_for_base(frontier_base, config, _SERVICE_MAP_TIER())
        baseline, distances, applied = IncrementalNolsBaseline(), IncrementalDistances(), 0
        if latest is None:
            engine = IncrementalBatchReplay(translator, trace_name=tenant, track_fragments=True)
        else:
            state = latest[1]
            saved_config = config_from_dict(state["config"])
            if saved_config != config or int(state["frontier_base"]) != frontier_base:
                raise ValueError(
                    f"session {tenant!r}: stored config/capacity does not match "
                    "the requested one; refusing to mix streams"
                )
            if int(state.get("version", -1)) != _STATE_VERSION:
                raise ValueError(
                    f"session {tenant!r}: unsupported checkpoint version"
                )
            engine = IncrementalBatchReplay.from_state(translator, state["engine"])
            baseline.load_state(state["baseline"])
            distances.load_state(state["distances"])
            applied = int(state["applied_seq"])

        journal = OpJournal(root)
        session = cls(
            tenant=tenant,
            root=root,
            config=config,
            frontier_base=frontier_base,
            engine=engine,
            baseline=baseline,
            distances=distances,
            checkpoints=checkpoints,
            journal=journal,
            applied_seq=applied,
            checkpoint_interval_ops=checkpoint_interval_ops,
        )
        for record in journal.replay_after(applied):
            session._apply_arrays(
                record.seq, record.is_read, record.lba, record.length
            )
        # Re-anchor: checkpoint the recovered state so the next crash
        # doesn't replay the same tail again, and rotate the journal.
        session.checkpoint()
        return session

    # ----------------------------------------------------------------- #
    # Apply path
    # ----------------------------------------------------------------- #

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def ops_applied(self) -> int:
        return self._engine.ops_applied

    def apply_batch(
        self,
        seq: int,
        is_read: np.ndarray,
        lba: np.ndarray,
        length: np.ndarray,
    ) -> Dict[str, int]:
        """Durably apply one client batch (see module docs for the order).

        Returns an ack dict; ``duplicate`` is True when the batch had
        already been applied (client retry after a lost ack).
        """
        if seq <= self._applied_seq:
            return {
                "seq": seq,
                "applied_seq": self._applied_seq,
                "ops": self.ops_applied,
                "duplicate": True,
            }
        if seq != self._applied_seq + 1:
            raise SequenceGapError(self._applied_seq + 1, seq)
        is_read = np.ascontiguousarray(is_read, dtype=bool)
        lba = np.ascontiguousarray(lba, dtype=np.int64)
        length = np.ascontiguousarray(length, dtype=np.int64)
        self._validate_columns(is_read, lba, length)
        self._journal.append(seq, is_read, lba, length)
        self._apply_arrays(seq, is_read, lba, length)
        self._checkpoint_if_due()
        return {
            "seq": seq,
            "applied_seq": self._applied_seq,
            "ops": self.ops_applied,
            "duplicate": False,
        }

    def _validate_columns(
        self, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        """The admission checks batches pass before journaling (raises)."""
        if not (len(is_read) == len(lba) == len(length)):
            raise ValueError("batch columns must have equal length")
        if len(lba):
            if int(length.min()) <= 0 or int(lba.min()) < 0:
                raise ValueError("ops must have lba >= 0 and length > 0")
            top = int((lba + length).max())
            if top > self.frontier_base:
                raise ValueError(
                    f"op ends at LBA {top}, beyond the declared capacity "
                    f"{self.frontier_base}; reopen with a larger capacity"
                )

    def apply_group_payload(
        self, first_seq: int, counts: List[int], payload
    ) -> List[dict]:
        """Durably apply a coalesced run of contiguous batches.

        ``payload`` is the byte concatenation of the batches' columnar
        payloads (:mod:`repro.service.wire`); ``counts[i]`` is the op
        count of batch ``first_seq + i``.  Returns one response dict per
        batch, **identical to what applying the batches one at a time
        would have produced**: duplicate acks for already-applied seqs,
        ``{"ok": True, ...ack}`` for accepted ones, structured
        ``{"ok": False, ...}`` errors for rejected ones (with
        ``SequenceGapError`` details after a mid-group rejection, exactly
        as the sequential path would raise them).

        This is the *virtual* sequential walk: it computes the responses
        :meth:`apply_batch` would have produced at each point (``virtual``
        tracks where ``applied_seq`` would be, ``virtual_ops`` where the
        engine's op count would be) without touching real state.  The
        accepted batches necessarily form one contiguous run (seqs in a
        group are contiguous; after a rejection every later batch is a
        gap), which is journaled as **one** group record — a byte slice
        of ``payload``, one CRC, one fsync, WAL before apply as ever —
        and fed to the engine as one concatenated array triple; both are
        bit-identical to the per-batch path (journal groups expand on
        recovery, the kernels are chunk-size invariant).
        """
        triples = split_group_payload(payload, counts)
        results: List[dict] = []
        virtual = self._applied_seq
        virtual_ops = self.ops_applied
        run_start: Optional[int] = None
        run: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for i, (is_read, lba, length) in enumerate(triples):
            seq = first_seq + i
            if seq <= virtual:
                results.append(
                    {
                        "ok": True,
                        "seq": seq,
                        "applied_seq": virtual,
                        "ops": virtual_ops,
                        "duplicate": True,
                    }
                )
                continue
            if seq != virtual + 1:
                results.append(
                    {
                        "ok": False,
                        "error": f"expected batch seq {virtual + 1}, got {seq}",
                        "kind": "SequenceGapError",
                        "expected": virtual + 1,
                        "got": seq,
                    }
                )
                continue
            try:
                self._validate_columns(is_read, lba, length)
            except ValueError as exc:
                results.append(
                    {"ok": False, "error": str(exc), "kind": type(exc).__name__}
                )
                continue
            if run_start is None:
                run_start = i
            run.append((is_read, lba, length))
            virtual += 1
            virtual_ops += len(lba)
            results.append(
                {
                    "ok": True,
                    "seq": seq,
                    "applied_seq": virtual,
                    "ops": virtual_ops,
                    "duplicate": False,
                }
            )
        if run:
            run_counts = [int(n) for n in counts[run_start : run_start + len(run)]]
            at = payload_nbytes(sum(int(n) for n in counts[:run_start]))
            self._journal.append_group(
                first_seq + run_start,
                run_counts,
                bytes(memoryview(payload)[at : at + payload_nbytes(sum(run_counts))]),
            )
            is_read, lba, length = concat_columns(run)
            self._apply_arrays(
                first_seq + run_start + len(run) - 1, is_read, lba, length
            )
            self._checkpoint_if_due()
        return results

    def _apply_arrays(
        self, seq: int, is_read: np.ndarray, lba: np.ndarray, length: np.ndarray
    ) -> None:
        self._engine.feed_arrays(is_read, lba, length)
        self._distances.feed(*self._engine.drain_distances())
        self._baseline.feed_arrays(is_read, lba, length)
        self._applied_seq = seq

    # ----------------------------------------------------------------- #
    # Checkpointing
    # ----------------------------------------------------------------- #

    def state_dict(self) -> dict:
        return {
            "version": _STATE_VERSION,
            "tenant": self.tenant,
            "config": config_to_dict(self.config),
            "frontier_base": self.frontier_base,
            "applied_seq": self._applied_seq,
            "engine": self._engine.state_dict(),
            "baseline": self._baseline.state_dict(),
            "distances": self._distances.state_dict(),
        }

    def checkpoint(self) -> Path:
        """Once any background save is collected: snapshot now, rotate the
        journal, prune unneeded segments."""
        self._collect_save(wait=True)
        path = self._published(
            *self._timed(self._checkpoints.save, self._applied_seq, self.state_dict())
        )
        self._ops_at_checkpoint = self.ops_applied
        return path

    @staticmethod
    def _timed(save, seq: int, state: dict) -> Tuple[Path, float]:
        started = time.perf_counter()
        return save(seq, state), (time.perf_counter() - started) * 1e3

    def _published(self, path: Path, ms: float) -> Path:
        self._health["checkpoints"] += 1
        self._health["last_checkpoint_ms"] = ms
        self._health["last_checkpoint_bytes"] = sum(
            member.stat().st_size for member in path.iterdir()
        )
        self._journal.rotate(self._applied_seq + 1)
        retained = self._checkpoints.sequence_numbers()
        if retained:
            self._journal.prune_below(min(retained) + 1)
        return path

    def _checkpoint_if_due(self) -> None:
        """The interval checkpoint, after a batch is durable: the snapshot
        is taken here and saved by the writer thread, at most one at a
        time — a save due while one is in flight waits for its collection."""
        self._collect_save()
        ops = self.ops_applied
        if self._saving is None and ops - self._ops_at_checkpoint >= self._interval:
            self._ops_at_checkpoint = ops
            self._saving = self._writer.submit(
                self._timed, self._checkpoints._save, self._applied_seq, self.state_dict()
            )

    def _collect_save(self, wait: bool = False) -> None:
        """Take the background save's outcome on the apply thread, once it
        is done (or ``wait``).  Its ``OSError`` is counted, not raised: the
        batches are in the WAL, and the journal rotates only after an
        entry is published."""
        saving = self._saving
        if saving is None or not (wait or saving.done()):
            return
        self._saving = None
        try:
            saved = saving.result()
        except OSError as exc:
            self._health["checkpoint_failures"] += 1
            self._health["last_checkpoint_error"] = f"{type(exc).__name__}: {exc}"
            return
        self._published(*saved)

    def close(self) -> None:
        """Checkpoint and release the journal handle and the writer."""
        self.checkpoint()
        self._journal.close()
        self._writer.shutdown()

    # ----------------------------------------------------------------- #
    # Live queries
    # ----------------------------------------------------------------- #

    def stats(self) -> SimStats:
        return self._engine.stats()

    def query(self, kind: str, **params) -> dict:
        """Answer one live query from the incrementally-updated summaries.

        Kinds: ``applied`` (sync point for client resync), ``stats``
        (full counter set), ``saf`` (live Fig. 11 numbers), ``fragment_cdf``
        (live Fig. 5), ``seek_budget`` (running seek-time totals and the
        Fig. 4 in-window fraction), ``health`` (checkpoint counts, failures
        and last cost since this process opened the session, plus the
        array-tier extent map's level sizes and work counters).
        """
        self._collect_save()
        if kind == "applied":
            return {
                "applied_seq": self._applied_seq,
                "ops": self.ops_applied,
            }
        if kind == "stats":
            stats = self.stats()
            return {field: getattr(stats, field) for field in stats.__dataclass_fields__}
        if kind == "saf":
            baseline = SimStats()
            baseline.read_seeks, baseline.write_seeks = self._baseline.counts()
            saf = seek_amplification(self.stats(), baseline)
            return {
                "read": saf.read,
                "write": saf.write,
                "total": saf.total,
                "baseline_read_seeks": baseline.read_seeks,
                "baseline_write_seeks": baseline.write_seeks,
            }
        if kind == "fragment_cdf":
            return {"points": fragment_cdf_from_hist(self._engine.fragment_hist)}
        if kind == "seek_budget":
            window_gib = float(params.get("window_gib", 2.0))
            return {
                "total_seek_ms": self._distances.total_seek_ms(),
                "read_seek_ms": self._distances.total_seek_ms(read_only=True),
                "seeks": self._distances.seeks,
                "read_seeks": self._distances.read_seeks,
                "fraction_within": self._distances.fraction_within(window_gib),
            }
        if kind == "health":
            health = dict(self._health)
            address_map = getattr(self._engine.translator, "address_map", None)
            if isinstance(address_map, ArrayExtentMap):
                health["extent_map"] = address_map.counters()
            return health
        raise ValueError(f"unknown query kind {kind!r}")
