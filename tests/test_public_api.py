"""Public API surface tests.

The names a downstream user imports from ``repro`` and its subpackages
must exist, be importable, and stay consistent with ``__all__``.
"""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.extentmap",
    "repro.disk",
    "repro.cache",
    "repro.trace",
    "repro.workloads",
    "repro.analysis",
    "repro.experiments",
    "repro.util",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_names(self):
        for name in (
            "synthesize_workload",
            "build_translator",
            "replay",
            "seek_amplification",
            "NOLS",
            "LS",
            "LS_DEFRAG",
            "LS_PREFETCH",
            "LS_CACHE",
            "PAPER_CONFIGS",
        ):
            assert hasattr(repro, name), name


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_every_public_item_documented(self):
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                item = getattr(module, name)
                if callable(item) or isinstance(item, type):
                    assert item.__doc__, f"{module_name}.{name} lacks a docstring"


def test_core_sits_below_the_experiment_harness():
    """Nothing in ``repro.core`` imports ``repro.experiments`` — neither when
    every core module is loaded, nor lazily inside a function."""
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import importlib, pkgutil, sys, repro.core\n"
            "for m in pkgutil.walk_packages(repro.core.__path__, 'repro.core.'):\n"
            "    importlib.import_module(m.name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))",
        ],
        capture_output=True, text=True,
    )
    assert loaded.stdout.strip() == "[]", loaded.stdout + loaded.stderr
    for path in (Path(repro.__file__).parent / "core").rglob("*.py"):
        assert not re.search(
            r"^\s*(from|import) repro\.experiments", path.read_text(), re.M
        ), path
