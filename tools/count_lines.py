"""Print the physical and code lines of the library's sources: one
line per module, then the total on the last line.

Code lines are the non-blank lines that are neither comments nor part
of a module, class or function docstring.  Every ``*.py`` file
directly in ``src/gpcodes`` is counted.  Run from anywhere:

    python tools/count_lines.py
"""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "gpcodes"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            out.update(range(doc.lineno, doc.end_lineno + 1))
    return out


def count(text: str) -> tuple[int, int]:
    """(physical, code) lines of one Python source."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docs)
    return len(lines), code


def main() -> int:
    physical = code = 0
    for path in sorted(SOURCES.glob("*.py")):
        p, c = count(path.read_text())
        print(f"  {path.name}: {p} physical lines, {c} code lines")
        physical += p
        code += c
    print(f"{SOURCES.name}: {physical} physical lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
