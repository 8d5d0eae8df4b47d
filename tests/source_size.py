"""Print the line count of each module under ``src/mmchat`` and the total,
split into code, docstring, comment and blank lines.

    python tests/source_size.py

A docstring line is a line of an ``ast`` docstring node (of a module, class
or function), a comment line is one whose first non-blank character is
``#``, a blank line is empty, and every other line is code. The ``module
doc`` column is the module docstring's share of the docstring lines. The
file name keeps pytest from collecting it: it is a tool, not a test.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "mmchat"
COLUMNS = ("lines", "code", "docstring", "comment", "blank", "module doc")


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_node(node: ast.AST) -> ast.Expr | None:
    """``node``'s docstring statement, if it has one."""
    if isinstance(node, _DOCUMENTED) and node.body:
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            return first
    return None


def split(text: str) -> dict[str, int]:
    """The counts of ``COLUMNS`` for one module's source ``text``."""
    lines = text.splitlines()
    tree = ast.parse(text)
    docstring = set()
    module_doc = 0
    for node in ast.walk(tree):
        expr = _docstring_node(node)
        if expr is not None:
            span = range(expr.lineno, expr.end_lineno + 1)
            docstring.update(span)
            if node is tree:
                module_doc = len(span)
    counts = dict.fromkeys(COLUMNS, 0)
    counts["lines"], counts["module doc"] = len(lines), module_doc
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(COLUMNS, 0)
    rows = []
    for path in sorted(SOURCE.glob("*.py")):
        counts = split(path.read_text(encoding="utf-8"))
        rows.append((path.name, counts))
        for column in COLUMNS:
            total[column] += counts[column]
    rows.append(("total", total))
    sys.stdout.write(f"{'module':<14}" + "".join(f"{c:>11}" for c in COLUMNS) + "\n")
    for name, counts in rows:
        sys.stdout.write(f"{name:<14}" + "".join(f"{counts[c]:>11}" for c in COLUMNS) + "\n")


if __name__ == "__main__":
    main()
