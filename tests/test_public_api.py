"""Public API surface tests.

Every name imports from the module that defines it: a subpackage
``__init__`` is its docstring only, except that ``repro`` keeps its
quickstart names and ``repro.workloads`` its Table-I registry.
"""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
SUBPACKAGES = sorted(f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)
REEXPORTERS = {"repro", "repro.workloads"}  # the only __all__s that re-export


def modules(package=repro):
    """``package`` and every module under it, imported."""
    return [package] + [importlib.import_module(m.name) for m in
                        pkgutil.walk_packages(package.__path__, package.__name__ + ".")]


def top_level(module):
    return ast.parse(Path(module.__file__).read_text()).body


def defined(module) -> set:
    """The names ``module`` binds by a ``def``, ``class`` or assignment."""
    names = set()
    for node in top_level(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            names.update([target.id] if isinstance(target, ast.Name) else [])
    return names


def loaded_by(statement: str, prefix: str = "repro") -> set:
    """The ``prefix`` modules a fresh interpreter holds after ``statement``."""
    done = subprocess.run([sys.executable, "-c", f"import sys\n{statement}\nprint(sorted("
                           f"m for m in sys.modules if m.startswith({prefix!r})))"],
                          capture_output=True, text=True, check=True)
    return set(ast.literal_eval(done.stdout))


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_names(self):
        for name in ("synthesize_workload", "build_translator", "replay",
                     "seek_amplification", "NOLS", "LS", "LS_DEFRAG", "LS_PREFETCH",
                     "LS_CACHE", "PAPER_CONFIGS"):
            assert hasattr(repro, name), name


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable(self, module_name):
        """A subpackage has a docstring and, unless it re-exports, nothing else."""
        package = importlib.import_module(module_name)
        assert package.__doc__, f"{module_name} lacks a module docstring"
        assert module_name in REEXPORTERS or len(top_level(package)) == 1, module_name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        """An ``__all__`` lists only names its own module defines."""
        for module in modules(importlib.import_module(module_name)):
            exported = set(getattr(module, "__all__", ()))
            assert all(hasattr(module, name) for name in exported), module.__name__
            assert module.__name__ in REEXPORTERS or exported <= defined(module), module

    def test_every_public_item_documented(self):
        """Every module, and each public function and class it defines."""
        undocumented = [module for module in modules() if not module.__doc__] + [
            f"{module.__name__}.{node.name}" for module in modules() for node in top_level(module)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and ast.get_docstring(node) is None]
        assert not undocumented


def test_every_api_doc_row_names_the_module_its_names_import_from():
    """A ``docs/API.md`` row's leading name is defined in the module of its
    second cell, and its other names resolve there (first-cell names are
    read as ``tools/reach.py``'s ``settings()`` reads them)."""
    wrong = []
    for row in (REPO / "docs" / "API.md").read_text().splitlines():
        if row.startswith("|") and not row.startswith(("| Name", "|---")):
            cells = row.split("|")
            names = re.findall(r"`([A-Za-z_][\w.]*)", cells[1])
            module = importlib.import_module(cells[2].strip().strip("`"))
            wrong += [row] * (names[0].split(".")[0] not in defined(module)) + [
                name for name in names if reduce(
                    lambda item, part: getattr(item, part, None), name.split("."), module) is None]
    assert not wrong


def test_core_sits_below_the_experiment_harness():
    """Nothing in ``repro.core`` imports ``repro.experiments`` — neither when
    every core module is loaded, nor lazily inside a function."""
    assert not loaded_by(
        "import importlib, pkgutil, repro.core\n"
        "for m in pkgutil.walk_packages(repro.core.__path__, 'repro.core.'):\n"
        "    importlib.import_module(m.name)", "repro.experiments")
    for path in (Path(repro.__file__).parent / "core").rglob("*.py"):
        assert not re.search(
            r"^\s*(from|import) repro\.experiments", path.read_text(), re.M
        ), path


def test_a_tenant_worker_loads_no_daemon_parser_or_exhibit_kernel():
    """A worker hosts one ``ReplaySession``, not the front end or the
    offline pipeline's bulk parser, stream kernel and fast analyses."""
    assert not loaded_by("import repro.service.worker") & {
        "repro.service.daemon", "repro.service.client", "repro.service.supervisor",
        "repro.trace.columnar", "repro.core.stream", "repro.analysis.fast"}
