"""Count each module's lines and its code lines.

    python tools/code_lines.py src/qisim

A code line holds at least one token outside comments and docstrings; blank
lines hold none.  A docstring is the string that opens a module, class or
function body.  A string that spans several lines makes each of them a code
line.  The table lists the modules by code lines, most first, and ends with
the total.
"""
from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=pathlib.Path, help="directory of the package's modules")
    package = parser.parse_args(argv).package
    counts = {
        ".".join(file.relative_to(package).with_suffix("").parts): count(file.read_text(encoding="utf-8"))
        for file in sorted(package.rglob("*.py"))
    }
    if not counts:
        parser.error(f"no .py file under {package}")
    rows = sorted(counts.items(), key=lambda item: (-item[1][1], item[0]))
    rows.append(("total", tuple(map(sum, zip(*counts.values())))))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, (lines, code) in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
