"""Tests for the scripts under tools/."""

import importlib.util
import itertools
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
    assert load_tool("count_lines").count(source) == (15, 5)


def test_count_lines_modules_add_up_to_the_total(capsys):
    counter = load_tool("count_lines")
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


def test_distance_check_reports_each_differing_code(monkeypatch, capsys):
    tool = load_tool("check_distance_search")
    codes = list(itertools.islice(tool._small_param_grid(), 3))
    monkeypatch.setattr(tool, "_small_param_grid", lambda: iter(codes))
    assert tool.main() == 0
    real = tool._pruned_min_distance

    def one_more_subset(h, cap):
        distance, witness, examined = real(h, cap)
        return distance, witness, examined + 1

    monkeypatch.setattr(tool, "_pruned_min_distance", one_more_subset)
    assert tool.main() == 1
    *lines, summary = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(" at cap ")[0] for line in lines] == \
        [p.notation() for p in codes]
    assert summary == "3 codes of criterion 6 checked, 3 differ"
