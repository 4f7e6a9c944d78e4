"""Page-aligned ``.npy`` files and atomic multi-array entry directories.

The persistent stores (:mod:`repro.trace.store`,
:mod:`repro.service.checkpoint`) keep each entry as a *directory* of plain ``.npy`` files plus
a ``header.json``, because ``np.load(mmap_mode="r")``
can memory-map a plain ``.npy`` but not a member of an ``.npz`` archive.
Every array file is written with its header padded so the data section
starts exactly at :data:`PAGE_ALIGN` — loads are zero-copy ``mmap`` views
whose data is page-aligned, so concurrent worker processes share the OS
page cache instead of private heap copies.

Commit discipline (same crash-safety contract as :mod:`repro.util.io`):
the entry is assembled in a ``<name>.<pid>.tmp`` sibling directory, every
file is flushed and fsynced, and the directory is renamed into place in
one atomic step.  A concurrent writer of the same entry is benign — the
first rename wins and the loser discards its temp directory (the contents
are identical by construction: entries are pure functions of their key).
A reader that finds a torn or foreign entry deletes it and reports a
miss, so the next writer heals the store.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
from pathlib import Path
from typing import Dict, NamedTuple, Union

import numpy as np

#: Offset of the data section in every aligned ``.npy`` written here.
PAGE_ALIGN = 4096

_NPY_MAGIC = b"\x93NUMPY"
_NPY_VERSION = (1, 0)


def write_aligned_npy(path: Union[str, Path], array: np.ndarray) -> Path:
    """Write ``array`` as a format-1.0 ``.npy`` with data at :data:`PAGE_ALIGN`.

    The header dict is padded with spaces (terminated by the mandated
    newline) to exactly ``PAGE_ALIGN`` bytes — a legal format-1.0 header
    (any multiple of the base alignment below 64 KiB is), so ``np.load``
    reads it back with or without ``mmap_mode``.  Any shape is fine —
    one-dimensional columns, ``(n, k)`` row tables, empty ``(0, k)`` —
    and is stored in C order (non-contiguous input is copied first); the
    data section is the array's own buffer, written without a copy.
    """
    array = np.ascontiguousarray(array)
    header = (
        "{'descr': %r, 'fortran_order': False, 'shape': %r, }"
        % (np.lib.format.dtype_to_descr(array.dtype), array.shape)
    )
    prefix_len = len(_NPY_MAGIC) + 2 + 2  # magic + version + uint16 length
    pad = PAGE_ALIGN - prefix_len - len(header) - 1
    if pad < 0:
        raise ValueError(
            f"npy header ({len(header)} bytes) does not fit the "
            f"{PAGE_ALIGN}-byte alignment budget"
        )
    blob = header.encode("latin1") + b" " * pad + b"\n"
    path = Path(path)
    with open(path, "wb") as handle:
        handle.write(_NPY_MAGIC)
        handle.write(bytes(_NPY_VERSION))
        handle.write(struct.pack("<H", len(blob)))
        handle.write(blob)
        handle.write(array.data)
        handle.flush()
        os.fsync(handle.fileno())
    return path


def load_mmap_npy(path: Union[str, Path]) -> np.ndarray:
    """Memory-map an ``.npy`` read-only; the view is marked non-writeable.

    Raises ``ValueError`` when the file is shorter than the header's
    declared shape requires: Linux happily maps past EOF, so without this
    check a truncated column would load cleanly and then deliver
    ``SIGBUS`` on first access instead of healing as a store miss.
    """
    array = np.load(path, mmap_mode="r")
    needed = getattr(array, "offset", 0) + array.nbytes
    if os.path.getsize(path) < needed:
        raise ValueError(
            f"{path}: file shorter ({os.path.getsize(path)} B) than its "
            f"npy header requires ({needed} B)"
        )
    array.setflags(write=False)
    return array


class CommitOutcome(NamedTuple):
    """Result of :func:`commit_entry_dir`.

    ``path`` is the published entry either way; ``won`` is False when a
    concurrent writer of the same key published first and this writer's
    (byte-identical) work was discarded — callers can count that as a
    cache hit instead of a store.  Unpacks as a tuple.
    """

    path: Path
    won: bool


def commit_entry_dir(
    final_dir: Union[str, Path],
    arrays: Dict[str, np.ndarray],
    header: Union[dict, str],
) -> CommitOutcome:
    """Atomically publish an entry directory of aligned arrays + header.

    Builds ``<final>.<pid>.tmp`` with one ``<key>.npy`` per array and a
    fsynced ``header.json``, then renames the whole directory into place.
    ``header`` is the JSON document as a dict, or already encoded by a
    caller that needed the text anyway (the checkpoint store checksums
    it); either way it is encoded once, by the one-shot C encoder.
    If another writer won the race — the final directory already exists,
    either up front or by the time this writer renames — the temp
    directory is discarded and the existing entry stands: entries for one
    key are byte-identical by construction, so either outcome is correct.
    The loser *detects* the winner and reports ``won=False`` so callers
    can reuse the published entry and count it as a hit.
    """
    final_dir = Path(final_dir)
    if final_dir.is_dir():
        # Already published: don't even build the temp directory.
        return CommitOutcome(final_dir, won=False)
    final_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = final_dir.with_name(f"{final_dir.name}.{os.getpid()}.tmp")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir(parents=True)
    won = True
    try:
        for key, array in arrays.items():
            write_aligned_npy(tmp_dir / f"{key}.npy", array)
        header_path = tmp_dir / "header.json"
        with open(header_path, "w") as handle:
            # json.dump(obj, handle) would stream through the pure-Python
            # iterencode, several times slower than dumps on a big header.
            handle.write(
                header if isinstance(header, str) else json.dumps(header, sort_keys=True)
            )
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.rename(tmp_dir, final_dir)
        except OSError:
            if not final_dir.is_dir():
                raise
            # Concurrent writer finished first; its identical entry stands.
            won = False
            shutil.rmtree(tmp_dir, ignore_errors=True)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return CommitOutcome(final_dir, won)


def remove_entry(path: Union[str, Path]) -> None:
    """Best-effort removal of a (possibly corrupt) entry file or directory."""
    path = Path(path)
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            path.unlink()
        except OSError:
            pass
