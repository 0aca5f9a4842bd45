"""Count the lines of each module of the vclabels package by kind.

Usage: python tools/code_lines.py [package directory]

For every ``*.py`` file of the package (default ``src/vclabels`` beside
this script's parent) and in total, prints the number of lines and how
many of them are code, docstring, comment and blank.  A docstring line
is any line, blank or not, inside the span of a module, class or
function docstring, as ``ast`` reports it; a comment line is one whose
first non-blank character is ``#``; a blank line is empty after
stripping; every other line is code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("lines", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (from 1) covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The counts of one module's source text, by kind."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        counts["lines"] += 1
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "vclabels"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<18}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<18}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'total':<18}" + "".join(f"{total[kind]:>10}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
