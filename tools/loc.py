"""Physical and code lines per ``src/repro`` package (``make loc``).

A code line carries a token that is neither a comment nor part of a
docstring; blank lines count towards physical only.
"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple:
    text = path.read_text()
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(text.splitlines()), len(code)


if __name__ == "__main__":
    groups = {f"repro.{d.name}": d.rglob("*.py") for d in sorted(SRC.iterdir()) if d.is_dir()}
    groups["repro (top level)"] = SRC.glob("*.py")
    groups["src/repro total"] = SRC.rglob("*.py")
    groups["core/batch.py + core/stream.py"] = [SRC / "core/batch.py", SRC / "core/stream.py"]
    groups["core/fragment_policy.py"] = [SRC / "core/fragment_policy.py"]
    print(f"{'':32s}{'files':>6s}{'physical':>10s}{'code':>8s}")
    for name, files in groups.items():
        counts = [count(path) for path in files]
        physical, code = map(sum, zip(*counts))
        print(f"{name:32s}{len(counts):6d}{physical:10d}{code:8d}")
