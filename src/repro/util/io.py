"""Crash-safe file writing.

Long experiment runs can be killed at any moment (OOM, Ctrl-C, batch-queue
preemption).  Writing results via a temporary file in the same directory
followed by :func:`os.replace` guarantees a reader never observes a
truncated file: either the old content exists, or the complete new content
does.  ``os.replace`` is atomic on POSIX and Windows when source and
destination share a filesystem, which same-directory placement ensures.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically via ``<path>.tmp`` + rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def atomic_write_json(path: Union[str, Path], data: Any) -> Path:
    """Serialize ``data`` as indented JSON and write it atomically to ``path``."""
    return atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
