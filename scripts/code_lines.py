"""Count the code, docstring, comment and blank lines of each ``src/bdld`` module.

    python3 scripts/code_lines.py [REPO]

REPO is the checkout counted (default: the one holding this script).  A
docstring line is a line of a string statement that opens a module, class
or function body; a comment line is one whose first non-blank character is
``#``; a blank line holds only whitespace; a code line is any other line.
A blank line inside a docstring counts as a docstring line, and a line of a
string that is not a docstring counts as code.  This is the rule behind
ROADMAP aim 2's counts.  The script prints one row a module and a total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that belong to a docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docs = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif line.lstrip().startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    repo = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<20}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted((repo / "src" / "bdld").glob("*.py")):
        counts = count(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<20}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'total':<20}" + "".join(f"{total[kind]:>10}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
