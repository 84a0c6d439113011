"""The package root's lazy exports, what a CLI launch imports, and the
value records of the library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpcodes
from gpcodes import gpc
from gpcodes.epc import EpcShape
from gpcodes.fields import default_field
from gpcodes.gpc import ErasureProfile, GpcParams
from gpcodes.oracle import DistanceReport
from test_gpc import FLAGSHIP

MODULES = ("fields", "linalg", "gpc", "epc", "oracle")


def _fresh_python(code: str) -> str:
    src = os.path.dirname(os.path.dirname(gpcodes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True,
                          timeout=60).stdout.strip()


def test_package_exports_resolve():
    for name in gpcodes.__all__:
        obj = getattr(gpcodes, name)
        assert obj.__module__.startswith("gpcodes."), name
        assert vars(sys.modules[obj.__module__])[name] is obj, name
    namespace = {}
    exec("from gpcodes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gpcodes.__all__)
    assert set(gpcodes.__all__) | set(MODULES) <= set(dir(gpcodes))
    with pytest.raises(AttributeError, match="no_such_name"):
        gpcodes.no_such_name
    # a bare import loads no submodule, yet each one resolves
    assert _fresh_python(
        "import gpcodes, sys; "
        "print(any(m.startswith('gpcodes.') for m in sys.modules), "
        f"*(getattr(gpcodes, m).__name__ for m in {MODULES}))"
    ).split() == ["False", *(f"gpcodes.{m}" for m in MODULES)]


def test_cli_import_skips_dataclasses_inspect_and_oracle():
    # counted against what the interpreter itself loaded at start-up,
    # which on some installs already includes inspect
    assert _fresh_python(
        "import sys; before = set(sys.modules); import gpcodes.cli; "
        "print(sorted({'dataclasses', 'inspect', 'gpcodes.oracle'} "
        "& (set(sys.modules) - before)))") == "[]"


F8 = default_field(3)
RECORDS = [
    (GpcParams, dict(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F8)),
    (EpcShape, dict(m=7, v=2, n=8, h=3, g=3)),
    (ErasureProfile, dict(entries=((2, 0), (1, 3), (0, 1)))),
    (DistanceReport, dict(distance=3, witness=(0, 2, 5), subsets_examined=40)),
]


@pytest.mark.parametrize("cls, values", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, values):
    by_name, by_position = cls(**values), cls(*values.values())
    assert by_name == by_position and hash(by_name) == hash(by_position)
    assert {by_name: 1}[by_position] == 1
    for name in (*values, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_name, name, None)


def test_gpc_params_level_vectors_become_tuples():
    listed = GpcParams(6, 7, 4, [2, 1, 3], [1, 3, 4], F8)
    assert (listed.s, listed.u) == ((2, 1, 3), (1, 3, 4))
    tupled = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F8)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed != GpcParams(6, 7, 4, [2, 1, 3], [1, 3, 5], F8)


# Attributes that reach into a field's tables or a symbol's bytes: gpc
# takes every multiply from linalg, so outside its encoder compile it
# reads none of them.
FIELD_INTERNALS = {"mul_tables", "_exp", "_log", "to_bytes", "from_bytes",
                   "translate"}


def _attribute_reads(node, scope=()):
    """(scope, attribute) for every attribute read under ``node``, scope
    the names of the classes and functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = (*scope, child.name)
        elif isinstance(child, ast.Attribute):
            yield scope, child.attr
        yield from _attribute_reads(child, inner)


def test_gpc_takes_its_field_arithmetic_from_linalg():
    """Outside the encoder compile, gpc reads no product table, exp/log
    table or byte form of a symbol, and reads a field's width only to
    validate parameters: linalg owns every multiply and the block rule."""
    source = (Path(gpcodes.__file__).parent / "gpc.py").read_text()
    reads = list(_attribute_reads(ast.parse(source)))
    assert (("_compile_encoder",), "to_bytes") in reads   # the walk sees it
    assert [(scope, attr) for scope, attr in reads
            if attr in FIELD_INTERNALS
            and "_compile_encoder" not in scope] == []
    assert {scope for scope, attr in reads if attr == "w"} == {
        ("GpcParams", "violations")}


def test_the_private_gpc_names_perfbench_reads_exist():
    """perfbench's worker clears and counts ``gpc._TRIANGULATION_CACHE``,
    and only ``pytest perfbench`` runs it: each private gpc name the
    worker reads exists, and that cache is a dict nothing fills."""
    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    reads = {node.attr for node in ast.walk(ast.parse(worker.read_text()))
             if isinstance(node, ast.Attribute) and node.attr[0] == "_"
             and isinstance(node.value, ast.Name) and node.value.id == "gpc"}
    assert reads == {"_TRIANGULATION_CACHE"}
    for name in reads:
        assert hasattr(gpc, name), name
    assert type(gpc._TRIANGULATION_CACHE) is dict
    trace = gpc.DecodeTrace()       # a decode that triangulates
    gpc.decode_rows(gpc.erase_positions(gpc.SymbolArray.zeros(6, 7), [
        (0, 0), (0, 1), (0, 2)]), FLAGSHIP, trace=trace)
    assert trace.system is not None and gpc._TRIANGULATION_CACHE == {}
