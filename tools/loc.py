"""Physical and code lines per ``src/repro`` package (``make loc``).

Python and C sources both count.  A code line carries a token that is
neither a comment nor part of a docstring; blank lines count towards
physical only.  ``--max-physical N``
exits non-zero when ``src/repro`` has more than ``N`` physical lines: the
budget ``make loc`` and ``tests/test_loc_budget.py`` hold, lowered PR by PR.
``tests/`` and ``bench/`` are printed beside it so that lines moved out
of ``src/`` to meet the budget show — and so is the surface of
``src/repro`` that lines do not measure: ``add_argument(`` calls,
environment variables read, ``__all__`` names, and settable values
(defaulted parameters plus defaulted fields of frozen dataclasses).
``tests/test_loc_budget.py`` holds the ``tests/`` row and the four surface
rows to ceilings too.
"""
import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple:
    text = path.read_text()
    if path.suffix == ".c":
        bare = re.sub(r"/\*.*?\*/|//[^\n]*", lambda m: "\n" * m[0].count("\n"), text, flags=re.S)
        return len(text.splitlines()), sum(1 for line in bare.splitlines() if line.strip())
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(text.splitlines()), len(code)


def frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and ast.unparse(d.func).endswith("dataclass")
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                       for k in d.keywords)
               for d in node.decorator_list)


def surface(paths) -> dict:
    """Options and names ``paths`` offer: what a line count cannot see grow."""
    arguments, variables, exported, settable = 0, set(), 0, 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                settable += len(node.args.defaults) + sum(
                    default is not None for default in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and frozen_dataclass(node):
                settable += sum(isinstance(field, ast.AnnAssign) and field.value is not None
                                and "ClassVar" not in ast.unparse(field.annotation)
                                for field in node.body)
            elif isinstance(node, ast.Call) and node.args:
                called = ast.unparse(node.func)
                arguments += called.endswith(".add_argument")
                if called.endswith(("environ.get", "getenv")):
                    variables.add(ast.unparse(node.args[0]))
            elif isinstance(node, ast.Subscript) and ast.unparse(node.value).endswith("environ"):
                variables.add(ast.unparse(node.slice))
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                exported += len(node.value.elts)
    return {"add_argument( calls": arguments, "environment variables read": len(variables),
            "__all__ names": exported, "settable values": settable}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-physical", type=int, metavar="N")
    args = parser.parse_args(argv)
    def sources(directory: Path, glob=Path.rglob) -> list:
        return [*glob(directory, "*.py"), *glob(directory, "*.c")]

    groups = {f"repro.{init.parent.name}": sources(init.parent)
              for init in sorted(SRC.glob("*/__init__.py"))}
    groups["repro (top level)"] = sources(SRC, Path.glob)
    groups["src/repro total"] = sources(SRC)
    groups["core/batch.py + core/stream.py"] = [SRC / "core/batch.py", SRC / "core/stream.py"]
    groups["core/fragment_policy.py"] = [SRC / "core/fragment_policy.py",
                                         SRC / "core/_fragment_policy.c"]
    groups["tests/"] = (REPO / "tests").rglob("*.py")
    groups["bench/"] = (REPO / "bench").rglob("*.py")
    print(f"{'':32s}{'files':>6s}{'physical':>10s}{'code':>8s}")
    totals = {}
    for name, files in groups.items():
        counts = [count(path) for path in files]
        totals[name], code = map(sum, zip(*counts))
        print(f"{name:32s}{len(counts):6d}{totals[name]:10d}{code:8d}")
    for name, number in surface(SRC.rglob("*.py")).items():
        print(f"src/repro {name:28s}{number:6d}")
    total = totals["src/repro total"]
    if args.max_physical is not None and total > args.max_physical:
        print(f"src/repro is {total} physical lines, over the budget of "
              f"{args.max_physical} by {total - args.max_physical}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
