"""repro's compiled kernels: one C source, built at import, loaded with ctypes.

``core/_fragment_policy.c`` holds Algorithms 1–3
(:mod:`repro.core.fragment_policy`), the array extent map's two levels
(:mod:`repro.extentmap.array_map`) and workload synthesis
(:mod:`repro.workloads.generator`).  The first import builds it with the
system ``cc`` into ``__pycache__`` beside it (a fresh temporary directory
if that is not writable), named by a hash of the source, the flags and the
interpreter's extension suffix, and every import loads that one ``.so``.
Without ``cc`` the import fails.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

#: ``-fwrapv``: int64 overflow wraps as numpy's does.  ``-ffp-contract=off``:
#: no multiply-add fuses, so synthesis computes CPython's doubles on any
#: target, FMA hardware included.
_FLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv", "-ffp-contract=off")


def load_library() -> ctypes.CDLL:
    """Build ``_fragment_policy.c`` once per source and interpreter; load it."""
    source = Path(__file__).parent.parent / "core" / "_fragment_policy.c"
    key = source.read_bytes() + " ".join(_FLAGS).encode()
    key += sysconfig.get_config_var("EXT_SUFFIX").encode()
    name = f"_fragment_policy-{hashlib.sha256(key).hexdigest()[:16]}.so"
    for directory in (source.parent / "__pycache__", None):
        directory = directory or Path(tempfile.mkdtemp(prefix="repro-kernel-"))
        target = directory / name
        if target.is_file():
            return ctypes.CDLL(str(target))
        try:
            directory.mkdir(exist_ok=True)
            handle, partial = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(handle)
        except OSError:
            continue  # not writable: build in a fresh temporary directory
        try:
            subprocess.run(["cc", *_FLAGS, "-o", partial, str(source), "-lm"],
                           check=True, capture_output=True, text=True)
            os.replace(partial, target)  # atomic: concurrent importers are safe
        except FileNotFoundError:
            raise ImportError(
                "repro needs a C compiler on PATH as `cc` to build its compiled kernels"
            ) from None
        except subprocess.CalledProcessError as error:
            raise ImportError(f"`cc` failed to build {source}:\n{error.stderr}") from None
        finally:
            Path(partial).unlink(missing_ok=True)
        return ctypes.CDLL(str(target))


LIBRARY = load_library()
