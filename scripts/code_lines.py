#!/usr/bin/env python3
"""Count the code lines of a Python package, as ROADMAP.md and CHANGES.md
quote them.

A code line holds at least one token that is not a comment, not part of a
docstring (the string that is the first statement of a module, class or
function) and not layout (newlines, indents, dedents).  A token that spans
several lines, such as a triple-quoted string that is no docstring, counts
every line it spans.  Prints one line per module, then the total.

Usage: ``python3 scripts/code_lines.py [path]``, where ``path`` is a
directory searched for ``*.py`` files or a single file; it defaults to
``src/boundarykit``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/boundarykit")
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,} {path}")
    print(f"{total:6,} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
