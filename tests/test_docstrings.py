"""Every cross-reference in the library's docstrings names something
that exists."""

import ast
import importlib
import re
from pathlib import Path
from types import SimpleNamespace

import gpcodes

SOURCES = Path(gpcodes.__file__).resolve().parent
ROLE = re.compile(r":(?:func|meth|class|attr):`~?([\w.]+)`")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _lookup(obj, dotted):
    """The object at ``dotted`` under ``obj``, or None."""
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _references(tree):
    """(enclosing class name or None, referenced name, line) for every
    role in a docstring of ``tree``."""
    out = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node):
            for name in ROLE.findall(ast.get_docstring(node)):
                out.append((cls, name, node.body[0].lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return out


def test_docstring_references_resolve():
    """A name resolves in the enclosing class, then the module, then as
    a dotted ``gpcodes.`` path; a leading ``~`` is ignored."""
    modules = {path: importlib.import_module(f"gpcodes.{path.stem}")
               for path in sorted(SOURCES.glob("*.py"))
               if path.stem != "__init__"}
    modules[SOURCES / "__init__.py"] = gpcodes
    root = SimpleNamespace(gpcodes=gpcodes)
    dangling, seen = [], 0
    for path, module in modules.items():
        for cls, name, line in _references(ast.parse(path.read_text())):
            seen += 1
            scopes = [getattr(module, cls)] if cls else []
            if not any(_lookup(scope, name) is not None
                       for scope in scopes + [module, root]):
                dangling.append(f"{path.name}:{line}: {name}")
    assert seen > 50
    assert dangling == []
