"""Persistent store for recorded fragment streams.

Recording a workload's plain-LS fragment stream
(:func:`repro.core.stream.record_fragment_stream`) is the dominant one-off
cost of the Layer-3 shared-replay path — a full stateful extent-map replay
per workload.  Before this store, every worker process of a parallel run
re-paid it (the :class:`~repro.experiments.sweep.SweepEngine` LRU is
per-process).  This module persists each recording once per machine:
whichever worker records a stream first publishes it; everyone else
memory-maps the published arrays zero-copy, sharing the OS page cache
exactly like the schema-2 :class:`~repro.trace.store.TraceStore`.

Store layout::

    <root>/<stream-key>/            (one directory per recorded stream)
        header.json                 (schema, trace key, scalar counters)
        pba.npy  length.npy  kind.npy  op_index.npy
        group_start.npy  group_size.npy

The key is the SHA-256 of the canonical JSON of ``{"kind":
"fragment-stream", "schema": STREAM_SCHEMA, "trace":
trace.content_key()}`` — :meth:`~repro.trace.trace.Trace.content_key`
hashes the replay-relevant trace content (name + ``(is_read, lba,
length)`` columns), so logically identical traces from different load
paths (fresh synthesis, compiled-store mmap, re-parse) land on one entry,
and any change to the trace, the stream schema, or the recorded format
lands on a different key.  Entries are committed with the
:mod:`repro.util.npystore` discipline (page-aligned ``.npy`` files, temp
directory + fsync + atomic rename); corrupt/torn/foreign-schema entries
count as misses and are removed so the next store heals them.

Streams rehydrated from the store carry ``layout=None`` — only the
differential tests inspect the recording translator, and persisting an
extent map would defeat the zero-copy load.  Everything observable by
:func:`~repro.core.stream.stream_replay` /
:func:`~repro.core.stream.stream_cache_sweep` and the derived analyses
round-trips exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro.core.stream import FragmentStream
from repro.trace.trace import Trace
from repro.util.npystore import commit_entry_dir, load_mmap_npy, remove_entry

STREAM_SCHEMA = 1

#: Default store location (overridable per instance and via the runner's
#: ``--stream-store`` flag).
DEFAULT_STREAM_STORE_DIR = Path(".repro-stream-store")

_ARRAY_KEYS = ("pba", "length", "kind", "op_index", "group_start", "group_size")
_SCALAR_KEYS = (
    "trace_name",
    "frontier_base",
    "frontier",
    "reads",
    "writes",
    "sectors_read",
    "sectors_written",
    "read_fragments",
    "fragmented_reads",
)


def stream_key(trace: Trace) -> str:
    """The store key for ``trace``'s recorded stream (SHA-256 hex)."""
    canonical = json.dumps(
        {
            "kind": "fragment-stream",
            "schema": STREAM_SCHEMA,
            "trace": trace.content_key(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class StreamStore:
    """A directory of recorded fragment streams.

    Thread/process-safe under the same discipline as
    :class:`~repro.trace.store.TraceStore`: concurrent writers of one
    entry are benign (first atomic rename wins, entries are identical by
    construction), and readers heal torn entries by deleting them.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STREAM_STORE_DIR) -> None:
        self.root = Path(root)
        #: Lifetime stream-load outcomes (a corrupt entry counts as a miss).
        self.hits = 0
        self.misses = 0

    # ----------------------------------------------------------------- #
    # Recorded fragment streams
    # ----------------------------------------------------------------- #

    def path_for(self, trace: Trace) -> Path:
        return self.root / stream_key(trace)

    def load_stream(self, trace: Trace) -> Optional[FragmentStream]:
        """The recorded plain-LS stream for ``trace``, or None on a miss.

        A hit memory-maps all six arrays read-only (zero-copy, shared
        page cache across processes).  Corrupt, torn, or foreign-schema
        entries count as misses and are removed so a re-store heals them.
        """
        path = self.path_for(trace)
        try:
            with open(path / "header.json") as handle:
                header = json.load(handle)
            if (
                header.get("schema") != STREAM_SCHEMA
                or header.get("trace") != trace.content_key()
            ):
                raise ValueError("stream entry header mismatch")
            arrays = {}
            for key in _ARRAY_KEYS:
                array = load_mmap_npy(path / f"{key}.npy")
                array.setflags(write=False)
                arrays[key] = array
            if (
                len(arrays["pba"]) != len(arrays["length"])
                or len(arrays["pba"]) != len(arrays["kind"])
                or len(arrays["pba"]) != len(arrays["op_index"])
                or len(arrays["group_start"]) != len(arrays["group_size"])
                or len(arrays["pba"]) != header.get("accesses")
                or len(arrays["group_start"]) != header.get("fragmented_reads")
            ):
                raise ValueError("stream entry array length mismatch")
            scalars = {key: header[key] for key in _SCALAR_KEYS}
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            remove_entry(path)
            self.misses += 1
            return None
        self.hits += 1
        return FragmentStream(layout=None, **scalars, **arrays)

    def store_stream(self, trace: Trace, stream: FragmentStream) -> Path:
        """Publish ``stream`` (recorded from ``trace``) atomically.

        If a concurrent process published the same key first, its entry
        stands (streams are pure functions of the trace, so the contents
        are identical); the lost race is counted as a hit.
        """
        header = {
            "schema": STREAM_SCHEMA,
            "trace": trace.content_key(),
            "accesses": stream.accesses,
            **{key: getattr(stream, key) for key in _SCALAR_KEYS},
        }
        path, won = commit_entry_dir(
            self.path_for(trace),
            {key: getattr(stream, key) for key in _ARRAY_KEYS},
            header,
        )
        if not won:
            self.hits += 1
        return path

    # ----------------------------------------------------------------- #
    # Maintenance
    # ----------------------------------------------------------------- #
