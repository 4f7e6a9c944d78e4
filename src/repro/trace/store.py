"""Persistent compiled-trace store.

Parsing a multi-million-op trace dump — even through the columnar bulk
parsers (:mod:`repro.trace.columnar`) — still costs a full text scan per
run.  Experiments re-read the same traces constantly (every exhibit,
every seed, every ``--fast``/reference comparison), so this module caches
the *parsed columns* on disk: one directory per (source, parse options)
combination holding the four column arrays plus a JSON header with
everything needed for correct invalidation.

Store layout (zero-copy)::

    <root>/<sha256-of-meta>/
        header.json     (schema, meta, name, ops, report)
        timestamp.npy   float64[n]      is_read.npy  bool[n]
        lba.npy         int64[n]        length.npy   int64[n]

Each column is a plain page-aligned ``.npy`` (data section at a 4096-byte
offset; see :mod:`repro.util.npystore`), loaded with
``np.load(mmap_mode="r")`` — a hit costs no deserialization and no heap
copy, and every process mapping the same entry shares the OS page cache.
Loaded columns are **read-only** (``writeable=False``) views; a stray
in-place mutation raises instead of silently poisoning the shared entry.

The directory name is the SHA-256 of the canonical JSON of the entry's **meta**
— the complete identity of a parse: trace kind, format, parse policy and
arguments, ``COLUMNAR_PARSER_VERSION``, and (for file sources) the SHA-256
and size of the source bytes.  Any change to the source file, the parse
policy/arguments, or the parser itself therefore lands on a *different*
key, so stale entries can never be served; they simply linger until
:meth:`TraceStore.clear`.

Entries round-trip exactly: the column arrays are the parse output
verbatim, and the full :class:`~repro.trace.errors.ParseReport` (counters,
error samples, quarantine) is restored on load.  ``strict``-failing inputs
never reach the store (the parse raises first).

Writes are crash-safe (temp directory + atomic rename, the
:mod:`repro.util.npystore` pattern); a torn or corrupt entry is treated
as a miss and deleted, so the caller's re-store heals it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

import repro
from repro.trace.columnar import COLUMNAR_PARSER_VERSION
from repro.trace.errors import ParseIssue, ParseReport
from repro.trace.trace import Trace, TraceColumns
from repro.util.npystore import commit_entry_dir, load_mmap_npy, remove_entry

STORE_SCHEMA = 2

#: Default store location (overridable per :class:`TraceStore` instance and
#: via the runner's ``--trace-store`` flag).
DEFAULT_STORE_DIR = Path(".repro-trace-store")

_COLUMN_KEYS = ("timestamp", "is_read", "lba", "length")


# --------------------------------------------------------------------- #
# Meta builders — the identity of a parse
# --------------------------------------------------------------------- #


def hash_file(path: Union[str, Path]) -> dict:
    """SHA-256 + size of a source file (the invalidation anchor)."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"sha256": digest.hexdigest(), "bytes": size}


def file_meta(
    path: Union[str, Path],
    fmt: str,
    policy: str = "strict",
    **parse_args,
) -> dict:
    """Meta for a parsed trace file.

    ``fmt`` is the parser family (``"msr"`` | ``"cloudphysics"`` |
    ``"csv"``); ``parse_args`` are the remaining parse options
    (``disk_number``, ``max_ops``, ``capacity_sectors``, ...).  The source
    file is hashed here, so building the meta costs one read of the file —
    still far cheaper than parsing it.
    """
    return {
        "kind": "file",
        "format": fmt,
        "policy": policy,
        "args": {k: parse_args[k] for k in sorted(parse_args)},
        "parser_version": COLUMNAR_PARSER_VERSION,
        "source": hash_file(path),
        # A CSV parse report is named by the full path: key on it, so a
        # copy elsewhere is a miss rather than another file's report.
        "name": str(Path(path)) if fmt == "csv" else Path(path).stem,
    }


def synthetic_meta(name: str, seed: int, scale: float) -> dict:
    """Meta for a synthesized Table I workload.

    Keyed on the generator inputs plus the library version — synthesis is
    deterministic given (name, seed, scale), and a release may legitimately
    change the generator, so the version stands in for a "generator hash".
    """
    return {
        "kind": "synthetic",
        "name": name,
        "seed": seed,
        "scale": scale,
        "version": repro.__version__,
    }


def meta_key(meta: dict) -> str:
    """The store key: SHA-256 of the canonical JSON encoding of ``meta``."""
    canonical = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# --------------------------------------------------------------------- #
# ParseReport (de)serialization
# --------------------------------------------------------------------- #


def report_to_dict(report: Optional[ParseReport]) -> Optional[dict]:
    """Full (lossless) encoding of a parse report."""
    return None if report is None else dataclasses.asdict(report)


def report_from_dict(data: Optional[dict]) -> Optional[ParseReport]:
    """Inverse of :func:`report_to_dict`."""
    if data is None:
        return None
    issues = {key: [ParseIssue(**i) for i in data[key]] for key in ("errors", "quarantine")}
    return ParseReport(**{**data, **issues})


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #


class TraceStore:
    """A directory of compiled (pre-parsed) traces, keyed by parse meta.

    Thread/process-safe for concurrent readers and writers of *different*
    entries; concurrent writers of the *same* entry are benign (the first
    atomic rename wins and the entries are identical by construction).
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        #: Lifetime load outcomes for this instance (a hit is a served
        #: compiled entry; a corrupt entry counts as a miss).
        self.hits = 0
        self.misses = 0

    def path_for(self, meta: dict) -> Path:
        return self.root / meta_key(meta)

    def load(self, meta: dict) -> Optional[Trace]:
        """Return the compiled trace for ``meta``, or None on a miss.

        Hits are **zero-copy**: each column is an ``np.load(mmap_mode="r")``
        view of its page-aligned ``.npy``, marked ``writeable=False`` before
        it is handed to :class:`TraceColumns` (which preserves the mmap —
        ``ascontiguousarray`` on an already-contiguous matching-dtype array
        is a no-op view).  A corrupt/torn entry (interrupted write, foreign
        files, schema drift) counts as a miss and is removed so the
        caller's re-store can heal it.
        """
        path = self.path_for(meta)
        try:
            with open(path / "header.json") as handle:
                header = json.load(handle)
            if header.get("schema") != STORE_SCHEMA or header.get("meta") != meta:
                raise ValueError("store entry header mismatch")
            raw = []
            for key in _COLUMN_KEYS:
                column = load_mmap_npy(path / f"{key}.npy")
                column.setflags(write=False)
                raw.append(column)
            if len({len(c) for c in raw}) > 1 or len(raw[0]) != header.get("ops"):
                raise ValueError("store entry column length mismatch")
            columns = TraceColumns(*raw)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            remove_entry(path)
            self.misses += 1
            return None
        self.hits += 1
        trace = Trace.from_columns(columns, name=header["name"])
        trace.parse_report = report_from_dict(header["report"])
        return trace

    def store(self, trace: Trace, meta: dict) -> Path:
        """Compile ``trace`` into the store under ``meta``; returns the path.

        Concurrent writers of the same key are benign: the loser detects
        the winner's published entry (entries are pure functions of their
        key, so the contents are identical), reuses it and counts it as a
        hit instead of a store.
        """
        columns = trace.columns
        header = {
            "schema": STORE_SCHEMA,
            "meta": meta,
            "name": trace.name,
            "ops": len(columns.lba),
            "report": report_to_dict(trace.parse_report),
        }
        path, won = commit_entry_dir(
            self.path_for(meta),
            {key: getattr(columns, key) for key in _COLUMN_KEYS},
            header,
        )
        if not won:
            self.hits += 1
        return path


# --------------------------------------------------------------------- #
# Convenience: parse-through-store
# --------------------------------------------------------------------- #

_FORMATS = ("msr", "cloudphysics", "csv")


def load_trace(
    path: Union[str, Path],
    fmt: str,
    store: Optional[TraceStore] = None,
    policy: str = "strict",
    **parse_args,
) -> Trace:
    """Parse a trace file through the compiled-trace store.

    On a store hit the source file is hashed but not parsed; on a miss it
    is parsed (columnar engine) and the result is compiled into the store
    for next time — unless the file changed while that was going on.  With
    ``store=None`` this is just a parse.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"fmt must be one of {_FORMATS}, got {fmt!r}")
    if store is None:
        return _parse(path, fmt, policy, parse_args)
    before = os.stat(path)
    meta = file_meta(path, fmt, policy=policy, **parse_args)
    cached = store.load(meta)
    if cached is not None:
        return cached
    trace = _parse(path, fmt, policy, parse_args)
    after = os.stat(path)
    # The hash and the parse are two reads: a file that changed in between
    # (a collector still appending) must not be stored under the old key.
    if (before.st_size, before.st_mtime_ns) == (after.st_size, after.st_mtime_ns):
        store.store(trace, meta)
    return trace


def _parse(path, fmt: str, policy: str, parse_args: dict) -> Trace:
    if fmt == "msr":
        from repro.trace.msr import parse_msr_file

        return parse_msr_file(path, policy=policy, **parse_args)
    if fmt == "cloudphysics":
        from repro.trace.cloudphysics import parse_cloudphysics_file

        return parse_cloudphysics_file(path, policy=policy, **parse_args)
    from repro.trace.csvio import read_csv_trace

    return read_csv_trace(path, policy=policy, **parse_args)
