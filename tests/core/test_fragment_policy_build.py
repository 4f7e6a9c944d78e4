"""The fragment-policy kernel's import-time build, each case in a fresh
interpreter over a copy of the package with an empty ``__pycache__``.

The artefact is named by a hash of the C source, the compiler flags and
the interpreter's extension suffix, and is written under a temporary name
and renamed into place, so concurrent importers are safe.  Without ``cc``
the import fails, naming it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
PRINT_LIBRARY = "from repro.core import fragment_policy; print(fragment_policy._LIBRARY._name)"


@pytest.fixture
def copy(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def start(root, path=None):
    env = dict(os.environ, PYTHONPATH=str(root))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.Popen([sys.executable, "-c", PRINT_LIBRARY], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def library(root):
    process = start(root)
    out, err = process.communicate()
    assert process.returncode == 0, err
    return Path(out.strip())


def test_concurrent_imports_both_build_or_load_the_one_artefact(copy):
    first, second = start(copy), start(copy)
    results = [process.communicate() for process in (first, second)]
    assert [first.returncode, second.returncode] == [0, 0], results
    paths = {Path(out.strip()) for out, _err in results}
    assert len(paths) == 1
    (built,) = paths
    assert built.parent == copy / "repro" / "core" / "__pycache__" and built.is_file()
    # No half-written temporary file is left behind.
    assert sorted(built.parent.glob("*.so")) == [built]


def test_a_one_byte_source_change_yields_a_new_artefact(copy):
    before = library(copy)
    source = copy / "repro" / "core" / "_fragment_policy.c"
    source.write_bytes(source.read_bytes() + b"\n")
    after = library(copy)
    assert after != before and before.is_file() and after.is_file()
    assert library(copy) == after  # built once, then loaded


def test_without_cc_the_import_fails_naming_it(copy, tmp_path):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    process = start(copy, path=empty)
    _out, err = process.communicate()
    assert process.returncode != 0
    assert "ImportError" in err and "`cc`" in err
