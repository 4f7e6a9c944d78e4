"""Which ``src/repro`` functions the product entry points reach (``make reach``).

Runs every product entry point in this one process at toy size under
``sys.setprofile`` / ``threading.setprofile`` and records the code object
of each ``call`` event.  A function counts as reached when any code
object inside its lines was called, so a nested def, lambda or
comprehension counts as part of the top-level function or method that
encloses it.  The entry points are the experiments CLI (``all``,
``report``, the cleaning ablation at the scale its logs fill, ``all
--jobs 2 --resume`` with both stores), the workloads CLI, ``load_trace``
of a clean and a dirty file of each format through a trace store, one
``ReplaySession`` per servable config, the ``serve`` verb driven by a
``ReplayClient``, and every ``examples/*.py`` ``main``.  What runs only
in a spawned child (the tenant worker's loop, the ``--jobs`` task) is
called here in process.

A function whose body is only a docstring, ``...``, ``pass`` or ``raise
NotImplementedError`` declares an interface and is not counted.  Every
other function no entry point reaches must sit in exactly one unit
(package, module, class or function) of ``tests/reach_allowlist.txt``,
and every unit there must hold at least one unreached function.  A line
is one of::

    <unit> oracle <fast path> <tests/...::test>   the reference a reached
                                                  fast path is checked against
    <unit> fault <tests/...::test>                runs only on a fault
    <unit> pinned <ROADMAP item>                  kept while bench/ uses it

An oracle's fast path must be reached and may not overlap another
oracle's, a named test must exist, and only the ROADMAP items in
:data:`PINNED_ITEMS` pin code.  The tool prints the per-package report
(lines in functions, in unreached ones, and in unreached ones no unit
covers); ``--check`` adds one line per violation and exits 1 if there is
any.
"""
import argparse
import ast
import contextlib
import io
import os
import re
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = REPO / "tests" / "reach_allowlist.txt"
#: The ROADMAP items under which ``bench/`` still calls code nothing else
#: runs: its cache-sweep, map-tier and reference-parse rows, and the ledger
#: rows Benchmark v2a and v2b replace.
PINNED_ITEMS = ("3(f)", "3(g)", "3(h)", "1(v2a)", "1(v2b)")


@dataclass
class Function:
    """A top-level function or a method, with its lines."""

    module: str
    qualname: str
    path: str
    start: int  # first decorator, which is the code object's first line
    end: int
    reached: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


def module_name(path: Path, root: Path = SRC) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def stub(node: ast.FunctionDef) -> bool:
    """An interface declaration: a docstring, ``...``, ``pass`` or
    ``raise NotImplementedError`` and nothing else, so nothing to run."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return all(
        isinstance(statement, ast.Pass)
        or (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis)
        or (isinstance(statement, ast.Raise) and "NotImplementedError" in ast.unparse(statement))
        for statement in body
    )


def functions(package: Path = PACKAGE) -> List[Function]:
    """Every top-level function and method under ``package`` but stubs."""
    found: List[Function] = []

    def walk(body, module: str, path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stub(node):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append(Function(module, prefix + node.name, path, start, node.end_lineno))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, module, path, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, ()), module, path, prefix)

    for path in sorted(package.rglob("*.py")):
        walk(ast.parse(path.read_text()).body, module_name(path, package.parent), str(path), "")
    return found


# --------------------------------------------------------------------- #
# The entry points
# --------------------------------------------------------------------- #


def _experiments(scratch: Path) -> None:
    from repro.experiments import common
    from repro.experiments.__main__ import main
    from repro.experiments.registry import NEEDS
    from repro.experiments.runner import _fill_task
    from repro.experiments.sweep import reset_sweep_engines

    out, stores = scratch / "out", scratch / "stores"
    assert main(["all", "--scale", "0.05", "--out", str(out), "--svg", str(scratch / "svg")]) == 0
    assert main(["report", "--out", str(out)]) == 0
    # The smallest scale at which the cleaning ablation's logs fill, so
    # that cleaning episodes run.
    assert main(["ablation_cleaning", "--scale", "0.3"]) == 0
    reset_sweep_engines()
    for dump in out.glob("*.json"):  # leave the pool every exhibit that reads Table I
        if dump.stem in NEEDS:
            dump.unlink()
    assert main(["all", "--scale", "0.05", "--out", str(out), "--jobs", "2",
                 "--trace-store", str(stores / "t"), "--stream-store", str(stores / "s"),
                 "--resume"]) == 0
    items = NEEDS["fig11"](42, 0.05)["w91"]
    for _ in range(2):  # the pool task in process, as a fresh child: store miss, then hit
        common._trace_cache.clear()
        _fill_task(("w91", items, 42, 0.05, None, str(stores / "t1"), str(stores / "s1")))


def _workloads(scratch: Path) -> None:
    from repro.workloads.__main__ import main

    assert main(["list"]) == 0
    assert main(["hm_1", "--scale", "0.02", "--stats", "--out", str(scratch / "hm_1.csv")]) == 0


def _load_traces(scratch: Path) -> None:
    from repro.trace.csvio import write_csv_trace
    from repro.trace.store import TraceStore, load_trace
    from repro.trace.writers import write_cloudphysics_trace, write_msr_trace
    from repro.workloads import synthesize_workload

    trace = synthesize_workload("hm_1", seed=3, scale=0.02)
    store = TraceStore(scratch / "trace-store")
    # Real dumps are dirty: a malformed line and, in an MSR file, another
    # disk's records, which the per-line parsers the bulk engine falls back
    # to skip and filter.
    other_disk = "128166372000000000,host,1,Read,0,4096,0\n"
    for fmt, write, extra, options in (
        ("msr", write_msr_trace, other_disk, {"disk_number": 0}),
        ("cloudphysics", write_cloudphysics_trace, "", {}),
        ("csv", write_csv_trace, "", {}),
    ):
        clean, dirty = scratch / f"trace.{fmt}", scratch / f"dirty.{fmt}"
        write(trace, clean)
        dirty.write_text(clean.read_text() + "not,a,record\n" + extra)
        for _ in range(2):  # a miss, then a hit
            assert len(load_trace(clean, fmt, store=store, **options)) == len(trace)
            dirty_trace = load_trace(dirty, fmt, store=store, policy="lenient", **options)
            assert len(dirty_trace) == len(trace)


def _columns(n: int = 3000):
    from repro.workloads import synthesize_workload

    trace = synthesize_workload("w91", seed=5, scale=0.05)
    is_read, lba, length = trace.as_arrays()
    return trace.max_end, is_read[:n], lba[:n], length[:n]


def _servable_configs():
    from repro.core.config import LS_ALL, PAPER_CONFIGS, MultiFrontierConfig, TechniqueConfig

    frontiers = TechniqueConfig(name="LS+frontiers", multi_frontier=MultiFrontierConfig())
    return [*PAPER_CONFIGS, LS_ALL, frontiers]


QUERIES = ("applied", "stats", "saf", "fragment_cdf", "seek_budget", "health")


def _sessions(scratch: Path) -> None:
    from repro.service.session import ReplaySession
    from repro.service.wire import encode_payload

    base, is_read, lba, length = _columns()
    third = len(lba) // 3
    for index, config in enumerate(_servable_configs()):
        root = scratch / f"session-{index}"
        session = ReplaySession.open("t", root, config, base, checkpoint_interval_ops=1000)
        session.apply_batch(1, is_read[:third], lba[:third], length[:third])
        payload = b"".join(encode_payload(is_read[s], lba[s], length[s])
                           for s in (slice(third, 2 * third), slice(2 * third, None)))
        session.apply_group_payload(2, [third, len(lba) - 2 * third], payload)
        for kind in QUERIES:
            session.query(kind)
        session.checkpoint()
        session.close()
        session = ReplaySession.open("t", root, config, base)
        assert session.applied_seq == 3
        session.close()


def _worker(scratch: Path) -> None:
    import multiprocessing

    from repro.core.config import LS, config_to_dict
    from repro.service.wire import encode_payload
    from repro.service.worker import worker_main

    base, is_read, lba, length = _columns(1000)
    parent, child = multiprocessing.Pipe()
    thread = threading.Thread(target=worker_main, args=(
        child, "t", str(scratch / "worker"), config_to_dict(LS), base, 50_000))
    thread.start()
    assert parent.recv()["ready"]
    messages = [
        {"cmd": "apply_group", "first_seq": 1, "counts": [len(lba)],
         "payload": encode_payload(is_read, lba, length)},
        *({"cmd": "query", "kind": kind} for kind in QUERIES),
        {"cmd": "checkpoint"}, {"cmd": "ping"}, {"cmd": "shutdown"},
    ]
    for message in messages:
        parent.send(message)
        assert parent.recv()["ok"], message
    thread.join(timeout=60)
    assert not thread.is_alive()


class _Lines(io.StringIO):
    """Captured stdout that tells a waiting thread when a line arrives."""

    def __init__(self) -> None:
        super().__init__()
        self.changed = threading.Condition()

    def write(self, text: str) -> int:
        with self.changed:
            written = super().write(text)
            self.changed.notify_all()
        return written

    def wait_for(self, pattern: str, timeout: float = 60.0) -> re.Match:
        deadline = time.monotonic() + timeout
        with self.changed:
            while not (match := re.search(pattern, self.getvalue())):
                if not self.changed.wait(deadline - time.monotonic()):
                    raise TimeoutError(pattern)
            return match


def _serve(scratch: Path) -> None:
    from repro.__main__ import main
    from repro.core.config import LS
    from repro.service.client import ReplayClient

    base, is_read, lba, length = _columns()
    batches = [(is_read[s:s + 500], lba[s:s + 500], length[s:s + 500])
               for s in range(0, len(lba), 500)]
    output, failures = _Lines(), []

    def drive() -> None:
        try:
            port = int(output.wait_for(r"listening on [^:]+:(\d+)")[1])
            with ReplayClient("127.0.0.1", port, "tenant") as client:
                assert client.request({"op": "ping"})["ok"]
                assert client.request({"op": "hello"})["ok"]
                client.open(LS, base)
                assert client.apply_stream(batches)["applied_seq"] == len(batches)
                for kind in QUERIES:
                    client.query(kind)
                client.checkpoint()
                client.close_session()
                client.shutdown_daemon()
        except Exception as exc:  # re-raised on the main thread once the verb returns
            failures.append(exc)
            os.kill(os.getpid(), signal.SIGINT)  # stop the verb on the main thread

    with contextlib.redirect_stdout(output):
        helper = threading.Thread(target=drive)
        helper.start()
        code = main(["serve", "--root", str(scratch / "serve"), "--port", "0"])
    helper.join(timeout=60)
    if failures:
        raise failures[0]
    assert code == 0 and "bye" in output.getvalue()


def _examples(scratch: Path) -> None:
    import importlib.util

    argv, tempdir = sys.argv, tempfile.tempdir
    tempfile.tempdir = str(scratch)
    try:
        for path in sorted((REPO / "examples").glob("*.py")):
            spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.argv = [str(path)]  # as if run with no arguments
            module.main(scale=0.05)
    finally:
        sys.argv, tempfile.tempdir = argv, tempdir


ENTRY_POINTS = (_experiments, _workloads, _load_traces, _sessions, _worker, _serve, _examples)


def record(entry_points: Sequence = ENTRY_POINTS) -> Set[Tuple[str, int]]:
    """``(filename, first line)`` of every code object the entry points call."""
    sys.path.insert(0, str(SRC))
    called: set = set()
    add = called.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="reach-") as scratch, \
            contextlib.redirect_stdout(io.StringIO()):
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            for entry in entry_points:
                directory = Path(scratch) / entry.__name__.strip("_")
                directory.mkdir()
                entry(directory)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}


def mark_reached(found: List[Function], called: Iterable[Tuple[str, int]]) -> None:
    starts: Dict[str, List[int]] = {}
    for filename, line in called:
        starts.setdefault(filename, []).append(line)
    for function in found:
        lines = starts.get(os.path.realpath(function.path), ())
        function.reached = any(function.start <= line <= function.end for line in lines)


# --------------------------------------------------------------------- #
# The allowlist rules
# --------------------------------------------------------------------- #


def names_a_test(test_id: str, repo: Path = REPO) -> bool:
    """Whether ``tests/x.py::[Class::]test`` names a test function."""
    path, _, names = test_id.partition("::")
    names = [re.sub(r"\[.*\]$", "", part) for part in names.split("::")]
    if not path.startswith("tests/") or not names[-1] or not (repo / path).is_file():
        return False
    scope = ast.parse((repo / path).read_text()).body
    for part in names:
        nodes = [node for node in scope if getattr(node, "name", None) == part]
        if not nodes:
            return False
        scope = getattr(nodes[0], "body", [])
    return isinstance(nodes[0], (ast.FunctionDef, ast.AsyncFunctionDef))


def inside_of(name: str, unit: str) -> bool:
    return name == unit or name.startswith(unit + ".")


def members(unit: str, found: Sequence[Function]) -> List[Function]:
    """The functions inside ``unit``: a package, module, class or function."""
    return [function for function in found if inside_of(function.name, unit)]


def entries(allowlist: str) -> List[Tuple[int, List[str]]]:
    """``(line number, fields)`` of each non-blank, non-comment line."""
    lines = (raw.split("#", 1)[0].split() for raw in allowlist.splitlines())
    return [(number, line) for number, line in enumerate(lines, 1) if line]


def violations(found: Sequence[Function], allowlist: str, repo: Path = REPO,
               label: str = "reach_allowlist.txt") -> List[str]:
    """One line per broken rule (empty when the allowlist is exact)."""
    problems: List[str] = []
    owner: Dict[str, int] = {}
    oracle_of: Dict[str, int] = {}
    for number, line in entries(allowlist):
        where = f"{label}:{number}: {line[0]}"
        want = {"oracle": 4, "fault": 3, "pinned": 3}.get(line[1] if len(line) > 1 else "")
        if want is None or len(line) != want:
            problems.append(f"{where}: expected '<unit> oracle <fast path> <test>', "
                            f"'<unit> fault <test>' or '<unit> pinned <ROADMAP item>'")
            continue
        unit, kind = line[0], line[1]
        inside = members(unit, found)
        if not inside:
            problems.append(f"{where}: no such module, class or function in src/repro")
            continue
        unreached = [function for function in inside if not function.reached]
        if not unreached:
            problems.append(f"{where}: stale: every function in it is reached")
        for function in unreached:
            if function.name in owner:
                problems.append(f"{where}: {function.name} is already allowlisted "
                                f"on line {owner[function.name]}")
            owner.setdefault(function.name, number)
        if kind == "pinned" and line[2] not in PINNED_ITEMS:
            problems.append(f"{where}: pinned to {line[2]}; only ROADMAP items "
                            f"{', '.join(PINNED_ITEMS)} pin code")
        if kind in ("oracle", "fault") and not names_a_test(line[-1], repo):
            problems.append(f"{where}: no test {line[-1]}")
        if kind == "oracle":
            fast = line[2]
            if not members(fast, found):
                problems.append(f"{where}: oracle for {fast}, which is not in src/repro")
            elif not any(function.reached for function in members(fast, found)):
                problems.append(f"{where}: oracle for {fast}, which no entry point reaches")
            for other, line_number in oracle_of.items():
                if inside_of(fast, other) or inside_of(other, fast):
                    problems.append(f"{where}: {fast} already has an oracle on line "
                                    f"{line_number} ({other})")
            oracle_of.setdefault(fast, number)
    for function in found:
        if not function.reached and function.name not in owner:
            problems.append(f"{function.name}: unreached and not allowlisted "
                            f"({os.path.relpath(function.path, repo)}:{function.start}, "
                            f"{function.lines} lines)")
    return problems


def report(found: Sequence[Function], allowlist: str) -> str:
    """Per-package lines in unreached functions, allowlisted or not."""
    allowed = {function.name for _, line in entries(allowlist)
               for function in members(line[0], found)}
    rows: Dict[str, List[int]] = {}
    for function in found:
        package = ".".join(function.module.split(".")[:2])
        row = rows.setdefault(package, [0, 0, 0, 0])
        row[0] += 1
        row[1] += function.lines
        if not function.reached:
            row[2] += function.lines
            row[3] += function.lines * (function.name not in allowed)
    rows["src/repro total"] = [sum(column) for column in zip(*rows.values())]
    out = [f"{'':24s}{'functions':>10s}{'lines':>8s}{'unreached':>10s}{'not allowed':>12s}"]
    out += [f"{name:24s}{a:10d}{b:8d}{c:10d}{d:12d}" for name, (a, b, c, d) in rows.items()]
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 with one line per violation of the allowlist rules")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    found = functions()
    mark_reached(found, record())
    allowlist = ALLOWLIST.read_text()
    print(report(found, allowlist))
    print(f"entry points ran in {time.perf_counter() - started:.1f} s")
    if not args.check:
        return 0
    problems = violations(found, allowlist)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
