#!/usr/bin/env python3
"""Count the code lines of a Python package.

    python3 scripts/code_lines.py [DIR]

A code line is one that holds a ``tokenize`` token outside docstrings
and comments: blank lines, comment lines and the lines of a docstring
(the string that opens a module, class or function body) do not count,
and a token that spans lines, such as a multi-line string, counts on
each line it spans.  Every ``*.py`` file under DIR is read, by default
``src/princlat``; the script prints one line per file, sorted by path,
and then the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that are layout, not code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("directory", nargs="?", default=Path(__file__).parent.parent / "src" / "princlat",
                    type=Path)
    args = ap.parse_args()
    total = 0
    for path in sorted(args.directory.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(args.directory)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
