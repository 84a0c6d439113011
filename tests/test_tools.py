"""Tests for the scripts under tools/."""

import importlib.util
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
