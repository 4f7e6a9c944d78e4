"""Reached or oracle, run or tested, set or constant: ``tools/reach.py``
runs every product entry point and ``tests/reach_allowlist.txt`` names
each function none of them reaches, each never-run arm of one they reach
(guards aside), and each option none of them sets.

Every such function is the oracle of one reached fast path, a fault
handler, or code ``bench/`` pins until Benchmark v2 (ROADMAP aim 2,
"exactly one oracle per fast path"); every such arm has a test that runs
it; every such option is a deployment or documented setting, a test
seam, or a keyword ``bench/`` passes.  The first test runs the entry
points (about 20 s); the rest check the allowlist rules on tiny inputs.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("reach", REPO / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_unreached_function_is_allowlisted_exactly():
    # Reach is measured on the default map tiers (ROADMAP 3(g)).
    env = {name: value for name, value in os.environ.items() if name != "REPRO_EXTENT_MAP"}
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "reach.py"), "--check"],
        capture_output=True, text=True, timeout=900, env=env,
    )
    assert done.returncode == 0, done.stdout[-6000:] + done.stderr[-6000:]
    total = re.search(r"^src/repro total(?:\s+\d+){3}\s+0(?:\s+\d+){2}\s+0\s+(\d+)\s+\d+\s+0$",
                      done.stdout, re.M)
    assert total, done.stdout
    # Never-run arm lines of reached functions, guards included: what the
    # last PR to lower it reached.
    assert int(total[1]) <= 666, done.stdout


def fn(name, reached):
    module, qualname = name.rsplit(".", 1)
    return reach.Function(module, qualname, f"src/{module}.py", 1, 3, reached)


FOUND = [
    fn("pkg.fast.kernel", True),
    fn("pkg.fast.other", True),
    fn("pkg.ref.kernel", False),
    fn("pkg.ref.helper", False),
    fn("pkg.err.handler", False),
    fn("pkg.live.used", True),
]
OPTS = [
    reach.Option("pkg.fast.kernel", "chunk", "src/pkg/fast.py", 1, reached=True),
    reach.Option("pkg.fast.Knob", "size", "src/pkg/fast.py", 5, field=True, reached=True),
    reach.Option("pkg.fast.Knob", "mode", "src/pkg/fast.py", 6, field=True, reached=True,
                 set=True),
    reach.Option("pkg.ref.kernel", "chunk", "src/pkg/ref.py", 1),  # unreached: out of scope
]
ARMS = [
    reach.Arm("pkg.fast.other", "src/pkg/fast.py", 2, 3, guard=False),
    reach.Arm("pkg.fast.kernel", "src/pkg/fast.py", 2, 2, guard=True),  # needs no line
]
EXACT = [
    "pkg.ref oracle pkg.fast.kernel tests/test_tiny.py::test_kernel",
    "pkg.err.handler fault tests/test_tiny.py::TestErrors::test_handler",
    "pkg.fast.kernel(chunk=) setting --chunk",
    "pkg.fast.Knob(size=) setting Knob",
    "pkg.fast.other fault tests/test_tiny.py::TestErrors::test_handler",
]


@pytest.fixture
def repo(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tiny.py").write_text(
        "def test_kernel():\n    pass\n\n\n"
        "class TestErrors:\n    def test_handler(self):\n        pass\n"
    )
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text(
        "parser.add_argument('--chunk', type=int)\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text(
        "| Name | Purpose |\n|---|---|\n| `Knob(size)` | a documented knob |\n")
    return tmp_path


def check(lines, repo):
    return reach.violations(FOUND, "\n".join(lines), repo, label="allow", opts=OPTS,
                            found_arms=ARMS)


def test_an_exact_allowlist_passes(repo):
    assert check(EXACT, repo) == []
    # A function's arms may sit under one line per test that runs some of them.
    assert check(EXACT + ["pkg.fast.other fault tests/test_tiny.py::test_kernel"], repo) == []


@pytest.mark.parametrize(
    "lines, entry, says",
    [
        (EXACT + ["pkg.live pinned 3(f)"], "allow:6: pkg.live", "stale"),
        (
            ["pkg.ref.kernel oracle pkg.fast.kernel tests/test_tiny.py::test_kernel",
             "pkg.ref.helper oracle pkg.fast tests/test_tiny.py::test_kernel", *EXACT[1:]],
            "allow:2: pkg.ref.helper",
            "already has an oracle on line 1",
        ),
        (
            ["pkg.ref oracle pkg.err.handler tests/test_tiny.py::test_kernel", *EXACT[1:]],
            "allow:1: pkg.ref",
            "which no entry point reaches",
        ),
        (
            [EXACT[0], "pkg.err.handler fault tests/test_tiny.py::TestErrors::test_gone",
             *EXACT[2:]],
            "allow:2: pkg.err.handler",
            "no test tests/test_tiny.py::TestErrors::test_gone",
        ),
        (EXACT[:1] + EXACT[2:], "pkg.err.handler", "unreached and not allowlisted"),
        (EXACT + ["pkg.err pinned 4(i)"], "allow:6: pkg.err", "already allowlisted on line 2"),
        (EXACT + ["pkg.fast pinned 9"], "allow:6: pkg.fast", "only ROADMAP items"),
        (EXACT + ["pkg.fast.Knob(mode=) setting Knob"], "allow:6: pkg.fast.Knob(mode=)",
         "stale: a call sets it"),
        (EXACT[:3] + EXACT[4:], "pkg.fast.Knob(size=)",
         "no call sets it and it is not allowlisted"),
        (EXACT[:2] + ["pkg.fast.kernel(chunk=) seam tests/test_tiny.py::test_gone", *EXACT[3:]],
         "allow:3: pkg.fast.kernel(chunk=)", "no test tests/test_tiny.py::test_gone"),
        (EXACT[:2] + ["pkg.fast.kernel(chunk=) setting --chunks", *EXACT[3:]],
         "allow:3: pkg.fast.kernel(chunk=)", "neither a flag"),
        (EXACT + ["pkg.ref.kernel(chunk=) pinned 3(f)"], "allow:6: pkg.ref.kernel(chunk=)",
         "stale: nothing calls it"),
        (EXACT[:4], "pkg.fast.other:2", "never run and not allowlisted"),
        (EXACT + ["pkg.live.used fault tests/test_tiny.py::test_kernel"], "allow:6: pkg.live",
         "stale: every function and arm in it runs"),  # say, once its arm is deleted
        (["pkg oracle pkg.fast.kernel tests/test_tiny.py::test_kernel", *EXACT[1:]],
         "allow:1: pkg", "not a package"),  # its modules hide what is not an oracle
    ],
    ids=["stale", "two-oracles", "fast-path-unreached", "no-such-test", "no-entry",
         "two-entries", "unpinned-item", "option-stale", "option-unlisted",
         "option-seam-no-test", "option-setting-unknown", "option-unreached", "arm-unlisted",
         "arm-stale", "package-oracle"],
)
def test_each_broken_rule_names_its_entry(repo, lines, entry, says):
    problems = check(lines, repo)
    assert any(p.startswith(entry) and says in p for p in problems), problems


def test_nested_defs_count_for_their_enclosing_function(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def outer():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner\n"
        "\n\n"
        "class Base:\n"
        "    def declared(self):\n"
        "        raise NotImplementedError\n"
    )
    found = [function for function in reach.functions(package)
             if function.module.endswith("mod")]
    assert [function.qualname for function in found] == ["outer"]  # stubs are not counted
    reach.mark_reached(found, {(str(package / "mod.py"), 2)})  # only inner() was called
    assert found[0].reached


def test_a_call_made_at_import_sets_an_option(tmp_path, monkeypatch):
    # The same run finds the arms: runs of never-run statements, one body each.
    package = tmp_path / "reachdemo"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "\n\n"
        "@dataclass(frozen=True)\n"
        "class Knob:\n"
        "    size: int = 1\n"
        "    mode: str = 'a'\n"
        "\n\n"
        "DEFAULT = Knob(size=2)  # made while the module is imported\n"
        "\n\n"
        "def scale(x, factor=1):\n"        # 13
        "    if x:\n"
        "        y = 1\n"
        "    else:\n"
        "        y = 2\n"                   # 17: else
        "        y += 1\n"
        "    try:\n"
        "        y += 1\n"
        "    except ValueError:\n"
        "        y = 0\n"                   # 22: except
        "    finally:\n"
        "        y += 1\n"
        "    for item in ():\n"
        "        y += item\n"               # 26: loop body
        "    else:\n"
        "        y += 1\n"
        "    squares = [n * n\n"            # a comprehension over nothing is one statement
        "               for n in ()]\n"
        "    def inner():\n"
        "        return y\n"                # 32: nested def
        "    if y < 0:\n"
        "        raise ValueError(y)\n"     # 34: a guard
        "    return x * factor\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))

    def entry(scratch):
        from reachdemo.mod import scale

        assert scale(3, factor=1) == 3  # the default, passed explicitly

    opts, found = reach.options(package), reach.functions(package)
    called, ran = reach.record(opts, [entry], package="reachdemo")
    state = {option.name: (option.reached, option.set) for option in opts}
    assert state == {
        "reachdemo.mod.Knob(size=)": (True, True),
        "reachdemo.mod.Knob(mode=)": (True, False),
        "reachdemo.mod.scale(factor=)": (True, False),
    }
    reach.mark_reached(found, called)
    assert [(arm.first, arm.last, arm.guard) for arm in reach.arms(found, ran)] == [
        (17, 18, False), (22, 22, False), (26, 26, False), (32, 32, False), (34, 34, True)]
