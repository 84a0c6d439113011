"""Tests for the scripts under tools/."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"


def load_counter():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_lines_skips_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return 1  # trailing comment
'''
    assert load_counter().count(source) == (15, 5)


def test_count_lines_modules_add_up_to_the_total(capsys):
    counter = load_counter()
    assert counter.main() == 0
    *modules, total = [
        re.fullmatch(r"\s*(\S+): (\d+) physical lines, (\d+) code lines",
                     line).groups()
        for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _, _ in modules] == sorted(
        path.name for path in counter.SOURCES.glob("*.py"))
    assert total[0] == "gpcodes"
    for i in (1, 2):
        assert sum(int(m[i]) for m in modules) == int(total[i])
