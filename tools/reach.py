"""Which ``src/repro`` functions, arms and options the product entry points reach (``make reach``).

Runs every product entry point in this one process at toy size under
``sys.settrace`` / ``threading.settrace``.  The hook sees each ``call``
event and records the code object called.  A function counts as reached
when any code object inside its lines was called, so a nested def, lambda
or comprehension counts as part of the top-level function or method that
encloses it.  The entry points are the experiments CLI (``all``,
``report``, the cleaning ablation at the scale its logs fill, ``all
--resume`` over the pool and in process, on one trace store), the
workloads CLI, ``load_trace`` of a clean and a dirty file of each format
through a trace store, one ``ReplaySession`` per servable config, the
``serve`` verb driven by a ``ReplayClient``, and every ``examples/*.py``
``main``.  What runs only in a spawned child (the tenant worker's loop)
is called here in process; a ``--jobs`` fill task runs in process at
``--jobs 1``.

The same run records which lines of ``src/repro`` run.  Line events are
asked for only at a call of ``src/repro`` code that still has a line no
call has run; any other call gets no local tracer, so code whose lines
have all run, and everything outside the package, costs only the call
event.  An *arm* is a maximal run of never-run statements in one body
(``if`` / ``elif`` / ``else``, ``for`` / ``while`` and their ``else``,
``try`` / ``except`` / ``finally``, ``with``, a nested def, or the
function's own) of a reached function, named ``<function>:<first line>``.
An arm made only of ``raise`` statements is a *guard*, a check on input,
and is counted but needs no line.

A function whose body is only a docstring, ``...``, ``pass`` or ``raise
NotImplementedError`` declares an interface and is not counted.  Every
other function no entry point reaches must sit in exactly one unit
(package, module, class or function) of ``tests/reach_allowlist.txt``,
every arm but a guard in at least one, and every unit there must hold an
unreached function or such an arm.  A line is one of::

    <unit> oracle <fast path> <tests/...::test>   the reference a reached
                                                  fast path is checked against
    <unit> fault <tests/...::test>                runs only on a fault, or on
                                                  an input no entry point gives
    <unit> pinned <ROADMAP item>                  kept while bench/ uses it

An oracle is a module, class or function, never a whole package; its
fast path must be reached and may not overlap another oracle's, a named
test must exist, and only the ROADMAP items in
:data:`PINNED_ITEMS` pin code.  The arms of one function may sit under
several lines, one per test that runs some of them.

The same run is the parameter pass.  An option is a defaulted parameter
of a function or method above, or a defaulted field of a frozen (config)
dataclass, named ``<function or class>(<name>=)`` (a method's is
``Class.method(name=)``, ``__init__``'s and a field's ``Class(name=)``).
An option is set when any call of its function, or any construction of
its class, passes a value other than the default; calls made while a
module is imported count.  Every option of a reached function or of a
constructed class that no call sets must be on exactly one line of the
allowlist, and every option there must be one no call sets::

    <option> setting <--flag | docs/API.md row>   a deployment or documented
                                                  library option
    <option> seam <tests/...::test>               a test substitutes it
    <option> pinned <ROADMAP item>                kept while bench/ passes it

A flag must be one an ``add_argument`` in ``src/repro`` declares, and an
API row the leading name of a backticked entry in the first column of a
``docs/API.md`` table.  Any other option no call sets is a constant.  The
tool prints the per-package report (lines in functions, in unreached
ones, and in unreached ones no unit covers; options, never set, and never
set but not allowlisted; arm lines, guard lines, and arm lines neither
guard nor allowlisted); ``--check`` adds one line per violation and exits
1 if there is any.
"""
import argparse
import ast
import contextlib
import dataclasses
import gc
import io
import os
import re
import signal
import sys
import tempfile
import threading
import time
import types
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
    node: Optional[ast.AST] = dataclasses.field(default=None, repr=False, compare=False)

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
                found.append(Function(module, prefix + node.name, path, start, node.end_lineno,
                                      node=node))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, module, path, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, ()), module, path, prefix)

    for path in sorted(package.rglob("*.py")):
        walk(ast.parse(path.read_text()).body, module_name(path, package.parent), str(path), "")
    return found


@dataclass
class Arm:
    """A maximal run of never-run statements in one body of a reached
    function (``if`` / ``else``, a loop, ``try`` / ``except`` / ``finally``,
    ``with``, a nested def, or the function's own body)."""

    function: str  # module.qualname of the reached function
    path: str
    first: int
    last: int
    guard: bool  # only ``raise`` statements: a check on input, kept without a line

    @property
    def name(self) -> str:
        return f"{self.function}:{self.first}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _span(statement: ast.stmt) -> range:
    decorators = getattr(statement, "decorator_list", ())
    return range(min([statement.lineno] + [d.lineno for d in decorators]),
                 statement.end_lineno + 1)


def _bodies(statement: ast.stmt) -> Iterable[list]:
    for field in ("body", "orelse", "finalbody"):
        yield getattr(statement, field, [])
    for handler in getattr(statement, "handlers", ()):
        yield handler.body
    for case in getattr(statement, "cases", ()):
        yield case.body


def arms(found: Sequence[Function], ran: Dict[str, Set[int]]) -> List[Arm]:
    """The arms of each reached function in ``found``, given the lines
    that ran per file.  A statement ran when any of its lines did, so a
    comprehension or a multi-line call is one statement; a docstring,
    ``...``, ``global`` and ``nonlocal`` compile to nothing and are skipped."""
    result: List[Arm] = []

    def close(function: Function, run: List[ast.stmt]) -> None:
        if run:
            result.append(Arm(function.name, function.path, _span(run[0]).start,
                              run[-1].end_lineno, all(isinstance(s, ast.Raise) for s in run)))

    def walk(function: Function, body: list, lines: Set[int]) -> None:
        run: List[ast.stmt] = []
        for statement in body:
            if isinstance(statement, (ast.Global, ast.Nonlocal)) or (
                    isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)):
                continue
            if not lines.intersection(_span(statement)):
                run.append(statement)
                continue
            close(function, run)
            run = []
            for inner in _bodies(statement):
                walk(function, inner, lines)
        close(function, run)

    for function in found:
        if function.reached and function.node is not None:
            walk(function, function.node.body, ran.get(os.path.realpath(function.path), set()))
    return result


@dataclass
class Option:
    """A defaulted parameter of a function or method, or a defaulted field
    of a frozen dataclass (``field`` true)."""

    owner: str  # module.qualname of the function, or of the class for a field
    param: str
    path: str
    line: int  # the def's first line (its code object's), or the field's
    field: bool = False
    reached: bool = False
    set: bool = False

    @property
    def name(self) -> str:
        owner = self.owner[: -len(".__init__")] if self.owner.endswith(".__init__") else self.owner
        return f"{owner}({self.param}=)"


def frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(decorator, ast.Call) and ast.unparse(decorator.func).endswith("dataclass")
        and any(keyword.arg == "frozen" and getattr(keyword.value, "value", None) is True
                for keyword in decorator.keywords)
        for decorator in node.decorator_list
    )


def defaulted(node: ast.FunctionDef) -> List[str]:
    """The names of ``node``'s parameters that have a default."""
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    names = [a.arg for a in positional[len(positional) - len(arguments.defaults):]]
    return names + [a.arg for a, d in zip(arguments.kwonlyargs, arguments.kw_defaults)
                    if d is not None]


def options(package: Path = PACKAGE) -> List[Option]:
    """Every option of the functions :func:`functions` finds, and every
    defaulted field of a frozen dataclass under ``package``."""
    found: List[Option] = []

    def walk(body, module: str, path: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stub(node):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.extend(Option(f"{module}.{prefix}{node.name}", name, path, start)
                             for name in defaulted(node))
            elif isinstance(node, ast.ClassDef):
                if frozen_dataclass(node):
                    found.extend(
                        Option(f"{module}.{prefix}{node.name}", statement.target.id, path,
                               statement.lineno, field=True)
                        for statement in node.body
                        if isinstance(statement, ast.AnnAssign) and statement.value is not None
                        and "ClassVar" not in ast.unparse(statement.annotation))
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
    from repro.experiments.__main__ import main

    out, store = scratch / "out", str(scratch / "trace-store")
    assert main(["all", "--scale", "0.05", "--out", str(out), "--svg", str(scratch / "svg"),
                 "--trace-store", store]) == 0
    assert main(["report", "--out", str(out)]) == 0
    # The smallest scale at which the cleaning ablation's logs fill, so
    # that cleaning episodes run.
    assert main(["ablation_cleaning", "--scale", "0.3"]) == 0
    for jobs in ("2", "1"):  # fig7's two traces again: over the pool, then from the warm store
        (out / "fig7.json").unlink()
        assert main(["all", "--scale", "0.05", "--out", str(out), "--jobs", jobs,
                     "--trace-store", store, "--resume"]) == 0


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


def differs(value, default) -> bool:
    """Whether a call passed ``value`` where ``default`` would have gone."""
    if value is default:
        return False
    if default is None:
        return True
    try:
        return not bool(value == default)
    except Exception:  # an array compared elementwise, or no comparison at all
        return True


def defaults_of(function: types.FunctionType) -> dict:
    """Parameter name -> default of each defaulted parameter."""
    code, positional = function.__code__, function.__defaults__ or ()
    names = code.co_varnames[code.co_argcount - len(positional):code.co_argcount]
    return {**dict(zip(names, positional)), **(function.__kwdefaults__ or {})}


def function_of(frame) -> types.FunctionType:
    """The function whose code ``frame`` runs: looked up by qualified name
    in its module, else among the code object's referrers."""
    code, scope = frame.f_code, frame.f_globals
    with contextlib.suppress(KeyError, TypeError):
        for part in code.co_qualname.split("."):
            scope = scope[part] if isinstance(scope, dict) else vars(scope)[part]
        for candidate in (scope, getattr(scope, "__func__", None),
                          getattr(scope, "__wrapped__", None)):
            if getattr(candidate, "__code__", None) is code:
                return candidate
    return next(referrer for referrer in gc.get_referrers(code)
                if isinstance(referrer, types.FunctionType) and referrer.__code__ is code)


def watch(frame, by_def: Dict[Tuple[str, int], List[Option]],
          by_class: Dict[str, List[Option]]) -> Optional[list]:
    """``(option, defaults)`` for each option a call of ``frame``'s code
    can set, marked reached: the function's own, or a frozen dataclass's
    fields when the code is an ``__init__`` ``dataclasses`` generated.  A
    call leaves an option unset when it passes one of ``defaults``."""
    code = frame.f_code
    if code.co_filename == "<string>" and code.co_name == "__init__":
        classes = type(frame.f_locals.get("self")).__mro__
        found = [(option, klass.__dataclass_fields__[option.param]) for klass in classes
                 for option in by_class.get(f"{klass.__module__}.{klass.__qualname__}", ())]
        if not found:
            return None
        init = next(klass.__init__ for klass in classes
                    if getattr(klass.__init__, "__code__", None) is code)
        taken = defaults_of(init)  # a default_factory field's is a sentinel
        entries = [(option, (taken[option.param], field.default_factory()
                             if field.default is dataclasses.MISSING else field.default))
                   for option, field in found]
    else:
        found = by_def.get((os.path.realpath(code.co_filename), code.co_firstlineno))
        if not found:
            return None
        taken = defaults_of(function_of(frame))
        entries = [(option, (taken[option.param],)) for option in found]
    for option, _ in entries:
        option.reached = True
    return [entry for entry in entries if not entry[0].set] or None


def record(found_options: Sequence[Option] = (), entry_points: Sequence = ENTRY_POINTS,
           package: str = "repro") -> Tuple[Set[Tuple[str, int]], Dict[str, Set[int]]]:
    """``(filename, first line)`` of every code object the entry points
    call, and the lines of ``package`` that ran, per file.

    Marks each of ``found_options`` reached when its function is called or
    its class constructed, and set when a call passes another value.
    ``frame.f_locals`` is read only for code objects that have options.
    Line events are asked for only from code in ``package`` that still has
    a line no call has run; every other call returns no local tracer.
    ``package`` must not be imported yet, so that the calls its modules
    make at import are seen.
    """
    if any(name == package or name.startswith(package + ".") for name in sys.modules):
        raise RuntimeError(f"{package} was imported before the trace started: "
                           "calls made at import would go unseen")
    sys.path.insert(0, str(SRC))
    by_def: Dict[Tuple[str, int], List[Option]] = {}
    by_class: Dict[str, List[Option]] = {}
    for option in found_options:
        if option.field:
            by_class.setdefault(option.owner, []).append(option)
        else:
            by_def.setdefault((os.path.realpath(option.path), option.line), []).append(option)
    watched: dict = {}  # every code object called -> its options not yet set
    unrun: dict = {}  # every code object called -> its lines not yet run (None: not traced)

    def lines(code) -> Set[int]:
        # The first line holds only the frame's set-up, which no line event reports.
        return {line for _, _, line in code.co_lines() if line is not None} - {
            code.co_firstlineno}

    def line(frame, event, arg):
        if event == "line":
            left = unrun[frame.f_code]
            left.discard(frame.f_lineno)
            if not left:  # every line of this code has run: no more line events here
                frame.f_trace_lines = False
        return line

    def trace(frame, event, arg):
        code = frame.f_code
        try:
            pending = watched[code]
        except KeyError:
            pending = watched[code] = watch(frame, by_def, by_class)
        if pending:
            values = frame.f_locals
            for option, defaults in pending:
                if not option.set and all(differs(values[option.param], default)
                                          for default in defaults):
                    option.set = True
                    watched[code] = [entry for entry in pending if not entry[0].set] or None
        try:
            left = unrun[code]
        except KeyError:
            module = frame.f_globals.get("__name__") or ""
            left = unrun[code] = lines(code) if (
                (module == package or module.startswith(package + "."))
                and not code.co_filename.startswith("<")) else None
        return line if left else None

    with tempfile.TemporaryDirectory(prefix="reach-") as scratch, \
            contextlib.redirect_stdout(io.StringIO()):
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            for entry in entry_points:
                directory = Path(scratch) / entry.__name__.strip("_")
                directory.mkdir()
                entry(directory)
        finally:
            sys.settrace(None)
            threading.settrace(None)
    ran: Dict[str, Set[int]] = {}
    for code, left in unrun.items():
        if left is not None:
            ran.setdefault(os.path.realpath(code.co_filename), set()).update(
                lines(code) - left)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in watched}, ran


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


def settings(repo: Path = REPO) -> Set[str]:
    """The CLI flags ``src/repro`` declares and the ``docs/API.md`` rows:
    what a ``setting`` line may name."""
    found: Set[str] = set()
    for path in (repo / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(".add_argument"):
                found.update(arg.value for arg in node.args if isinstance(arg, ast.Constant)
                             and str(arg.value).startswith("--"))
    api = repo / "docs" / "API.md"
    for row in api.read_text().splitlines() if api.is_file() else ():
        if row.startswith("|"):
            found.update(re.findall(r"`([A-Za-z_][\w.]*)", row.split("|")[1]))
    return found


def violations(found: Sequence[Function], allowlist: str, repo: Path = REPO,
               label: str = "reach_allowlist.txt", opts: Sequence[Option] = (),
               found_arms: Sequence[Arm] = ()) -> List[str]:
    """One line per broken rule (empty when the allowlist is exact)."""
    problems: List[str] = []
    owner: Dict[str, int] = {}  # unreached function or arm -> its line
    listed_arms = [arm for arm in found_arms if not arm.guard]
    oracle_of: Dict[str, int] = {}
    by_name = {option.name: option for option in opts}
    listed: Dict[str, int] = {}
    declared: Optional[Set[str]] = None
    for number, line in entries(allowlist):
        where = f"{label}:{number}: {line[0]}"
        if line[0].endswith("=)"):  # an option
            kind = line[1] if len(line) == 3 else None
            if kind not in ("setting", "seam", "pinned"):
                problems.append(f"{where}: expected '<option> setting <flag or API row>', "
                                f"'<option> seam <test>' or '<option> pinned <ROADMAP item>'")
                continue
            option = by_name.get(line[0])
            if option is None:
                problems.append(f"{where}: no such option in src/repro")
            elif option.set or not option.reached:
                problems.append(f"{where}: stale: "
                                + ("a call sets it" if option.set else "nothing calls it"))
            if line[0] in listed:
                problems.append(f"{where}: already allowlisted on line {listed[line[0]]}")
            listed.setdefault(line[0], number)
            if kind == "pinned" and line[2] not in PINNED_ITEMS:
                problems.append(f"{where}: pinned to {line[2]}; only ROADMAP items "
                                f"{', '.join(PINNED_ITEMS)} pin code")
            if kind == "seam" and not names_a_test(line[2], repo):
                problems.append(f"{where}: no test {line[2]}")
            if kind == "setting":
                declared = settings(repo) if declared is None else declared
                if line[2] not in declared:
                    problems.append(f"{where}: {line[2]} is neither a flag src/repro "
                                    f"declares nor a docs/API.md row")
            continue
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
        unreached = [function.name for function in inside if not function.reached]
        armed = [arm.name for arm in listed_arms if inside_of(arm.function, unit)]
        if not unreached and not armed:
            problems.append(f"{where}: stale: every function and arm in it runs")
        for name in unreached:
            if name in owner:
                problems.append(f"{where}: {name} is already allowlisted on line {owner[name]}")
            owner.setdefault(name, number)
        for name in armed:  # one line per test that runs some of a function's arms
            owner.setdefault(name, number)
        if kind == "pinned" and line[2] not in PINNED_ITEMS:
            problems.append(f"{where}: pinned to {line[2]}; only ROADMAP items "
                            f"{', '.join(PINNED_ITEMS)} pin code")
        if kind in ("oracle", "fault") and not names_a_test(line[-1], repo):
            problems.append(f"{where}: no test {line[-1]}")
        if kind == "oracle":
            if any(function.module != unit and inside_of(function.module, unit)
                   for function in inside):
                problems.append(f"{where}: an oracle is a module, class or function, "
                                f"not a package")
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
    for arm in listed_arms:
        if arm.name not in owner:
            problems.append(f"{arm.name}: never run and not allowlisted "
                            f"({os.path.relpath(arm.path, repo)}:{arm.first}-{arm.last}, "
                            f"{arm.lines} lines): delete it or name a test that runs it")
    for option in opts:
        if option.reached and not option.set and option.name not in listed:
            problems.append(f"{option.name}: no call sets it and it is not allowlisted "
                            f"({os.path.relpath(option.path, repo)}:{option.line}); "
                            f"make it a constant")
    return problems


def package_of(name: str) -> str:
    return ".".join(name.split(".")[:2])


def report(found: Sequence[Function], allowlist: str, opts: Sequence[Option] = (),
           found_arms: Sequence[Arm] = ()) -> str:
    """Per package: lines in unreached functions, allowlisted or not;
    options no call sets, allowlisted or not; and never-run arm lines of
    reached functions, those in guards, and those neither guard nor
    allowlisted."""
    allowed = {function.name for _, line in entries(allowlist)
               for function in members(line[0], found)}
    allowed.update(line[0] for _, line in entries(allowlist))
    rows: Dict[str, List[int]] = {}
    for function in found:
        row = rows.setdefault(package_of(function.module), [0] * 10)
        row[0] += 1
        row[1] += function.lines
        if not function.reached:
            row[2] += function.lines
            row[3] += function.lines * (function.name not in allowed)
    for option in opts:
        if option.reached:
            row = rows.setdefault(package_of(option.owner), [0] * 10)
            row[4] += 1
            row[5] += not option.set
            row[6] += not option.set and option.name not in allowed
    for arm in found_arms:
        row = rows[package_of(arm.function)]
        row[7] += arm.lines
        row[8] += arm.lines * arm.guard
        row[9] += arm.lines * (not arm.guard and arm.function not in allowed)
    rows["src/repro total"] = [sum(column) for column in zip(*rows.values())]
    out = [f"{'':24s}{'functions':>10s}{'lines':>8s}{'unreached':>10s}{'not allowed':>12s}"
           f"{'options':>9s}{'never set':>10s}{'not allowed':>12s}"
           f"{'arm lines':>10s}{'guards':>8s}{'not allowed':>12s}"]
    out += [f"{name:24s}{a:10d}{b:8d}{c:10d}{d:12d}{e:9d}{f:10d}{g:12d}{h:10d}{i:8d}{j:12d}"
            for name, (a, b, c, d, e, f, g, h, i, j) in rows.items()]
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 with one line per violation of the allowlist rules")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    found, opts = functions(), options()
    called, ran = record(opts)
    mark_reached(found, called)
    found_arms = arms(found, ran)
    allowlist = ALLOWLIST.read_text()
    print(report(found, allowlist, opts, found_arms))
    print(f"entry points ran in {time.perf_counter() - started:.1f} s")
    if not args.check:
        return 0
    problems = violations(found, allowlist, opts=opts, found_arms=found_arms)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
