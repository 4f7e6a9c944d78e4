"""Content-checksummed session checkpoints.

A checkpoint captures a session's **complete** resident state — the
replay engine's serializable kernel state (counters, translator extent
map, technique state, head position), the incremental analysis summaries,
and the last applied batch sequence number — as one entry directory
committed with the temp-dir + fsync + atomic-rename discipline of
:func:`repro.util.npystore.commit_entry_dir`.  A crash can therefore
never leave a half-written checkpoint *visible*: either the rename
happened and the entry is whole, or it didn't and the previous checkpoint
stands.

Atomic commit alone does not defend against **post-commit corruption**
(bad sector, truncation, the chaos harness flipping bytes): a damaged
``.npy`` payload can still parse cleanly and load wrong numbers.  Every
checkpoint therefore carries a SHA-256 over its canonical JSON state and
the raw bytes of every array, verified on load;
:meth:`CheckpointStore.load_latest` deletes entries that fail the check
(or fail to parse at all) and falls back to the previous checkpoint — the
journal tail (:mod:`repro.service.journal`) then re-derives whatever the
lost checkpoint had absorbed.

Layout: ``<root>/checkpoints/ckpt-<seq:012d>/`` where ``seq`` is the last
applied batch sequence number; :data:`KEEP_CHECKPOINTS` newest entries are
retained so single-checkpoint damage is always survivable.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.util.npystore import commit_entry_dir, load_mmap_npy, remove_entry

#: Checkpoints retained per session.  Two, not one: the newest may be
#: corrupted after commit, and recovery then needs its predecessor (plus
#: the journal tail) to reach the same final state.
KEEP_CHECKPOINTS = 2

_ARRAY_MARKER = "__npy__"


class CheckpointCorruptError(Exception):
    """A checkpoint entry failed structural or checksum validation."""


def _split_arrays(state, path: str, arrays: Dict[str, np.ndarray]):
    """Replace every ndarray leaf with a marker; collect them by path key.

    The session state is nested dicts/lists of scalars with numpy arrays
    at the leaves (extent-map columns, histograms, undrained distances —
    the :mod:`repro.util.bulkstate` contract).  JSON gets the scalar
    skeleton; each array becomes its own page-aligned ``.npy``, so bulk
    state is stored zero-copy-loadable and this walk visits one node per
    *array*, not per element.
    """
    if isinstance(state, np.ndarray):
        key = _sanitize_key(f"a{len(arrays)}_{path}")
        arrays[key] = state
        return {_ARRAY_MARKER: key}
    if isinstance(state, dict):
        return {
            k: _split_arrays(v, f"{path}.{k}" if path else str(k), arrays)
            for k, v in state.items()
        }
    if isinstance(state, (list, tuple)):
        return [_split_arrays(v, f"{path}{i}", arrays) for i, v in enumerate(state)]
    if isinstance(state, (np.integer,)):
        return int(state)
    return state


def _join_arrays(state, arrays: Dict[str, np.ndarray]):
    if isinstance(state, dict):
        if set(state.keys()) == {_ARRAY_MARKER}:
            key = state[_ARRAY_MARKER]
            if key not in arrays:
                raise CheckpointCorruptError(f"missing array payload {key!r}")
            return arrays[key]
        return {k: _join_arrays(v, arrays) for k, v in state.items()}
    if isinstance(state, list):
        return [_join_arrays(v, arrays) for v in state]
    return state


def _checksum(payload_json: str, arrays: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    digest.update(payload_json.encode("utf-8"))
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.data)
    return digest.hexdigest()


def _sanitize_key(key: str) -> str:
    return "".join(c if (c.isalnum() or c in "._-") else "_" for c in key)


class CheckpointStore:
    """Numbered, checksummed, self-healing checkpoints for one session.

    Args:
        root: Session directory; checkpoints live in ``root/checkpoints``.
            The :data:`KEEP_CHECKPOINTS` newest entries are retained (older
            ones pruned after commit).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._dir = Path(root) / "checkpoints"

    def entry_path(self, seq: int) -> Path:
        return self._dir / f"ckpt-{seq:012d}"

    def sequence_numbers(self) -> List[int]:
        """Applied-batch seqs of the published checkpoints, ascending."""
        published = self._dir.glob("ckpt-" + "[0-9]" * 12)
        return sorted(int(entry.name[len("ckpt-") :]) for entry in published)

    def _save(self, seq: int, state: dict) -> Path:
        """Commit ``state`` as the checkpoint after batch ``seq``; prune."""
        if seq < 0:
            raise ValueError(f"seq must be >= 0, got {seq}")
        arrays: Dict[str, np.ndarray] = {}
        skeleton = _split_arrays(state, "", arrays)
        # The skeleton is encoded exactly once: the checksummed text is
        # spliced into the header as its (alphabetically last) "state" member.
        payload_json = json.dumps(skeleton, sort_keys=True)
        envelope = json.dumps(
            {
                "kind": "repro-session-checkpoint",
                "seq": seq,
                "sha256": _checksum(payload_json, arrays),
            },
            sort_keys=True,
        )
        header = f'{envelope[:-1]}, "state": {payload_json}}}'
        path, _won = commit_entry_dir(self.entry_path(seq), arrays, header)
        self._prune()
        return path

    # The session's writer thread calls ``_save``, so whatever a caller wraps
    # around ``save`` only ever runs on the caller's own thread.
    save = _save

    def load(self, seq: int) -> dict:
        """Load and verify the checkpoint at ``seq``.

        Raises :class:`CheckpointCorruptError` on any structural damage or
        checksum mismatch (the entry is left in place; callers decide).
        """
        entry = self.entry_path(seq)
        try:
            with open(entry / "header.json") as handle:
                header = json.load(handle)
            if header.get("kind") != "repro-session-checkpoint":
                raise CheckpointCorruptError(f"{entry}: foreign entry")
            if int(header.get("seq", -1)) != seq:
                raise CheckpointCorruptError(f"{entry}: header seq mismatch")
            skeleton = header["state"]
            arrays = {}
            for npy in sorted(entry.glob("*.npy")):
                # Materialize: the mmap view must not outlive entry pruning.
                arrays[npy.stem] = np.array(load_mmap_npy(npy))
        except CheckpointCorruptError:
            raise
        except Exception as exc:  # torn files, bad JSON, missing members
            raise CheckpointCorruptError(f"{entry}: unreadable ({exc})") from exc
        payload_json = json.dumps(skeleton, sort_keys=True)
        expected = header.get("sha256")
        actual = _checksum(payload_json, arrays)
        if actual != expected:
            raise CheckpointCorruptError(
                f"{entry}: checksum mismatch ({actual[:12]} != {str(expected)[:12]})"
            )
        return _join_arrays(skeleton, arrays)

    def load_latest(self) -> Optional[Tuple[int, dict]]:
        """Newest checkpoint that verifies, deleting ones that don't.

        Returns ``(seq, state)``, or None when no valid checkpoint exists
        (fresh session, or every entry destroyed — the journal then
        replays from batch one).  Temp entries are deleted too: one
        process serves a tenant, so any ``ckpt-*.tmp`` here was left by a
        writer killed mid-save.
        """
        for stale in self._dir.glob("ckpt-*.tmp"):
            remove_entry(stale)
        for seq in reversed(self.sequence_numbers()):
            try:
                return seq, self.load(seq)
            except CheckpointCorruptError:
                # Self-heal: a damaged entry is worse than no entry — it
                # would mask the good predecessor on every future boot.
                remove_entry(self.entry_path(seq))
        return None

    def _prune(self) -> None:
        for seq in self.sequence_numbers()[:-KEEP_CHECKPOINTS]:
            remove_entry(self.entry_path(seq))
