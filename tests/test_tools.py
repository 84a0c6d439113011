"""Tests for the scripts under tools/."""

import importlib.util
import itertools
import json
import re
import subprocess
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
    # the column walk certifies the grid's 14th code, information sets
    # its 13th and 15th
    codes = list(itertools.islice(tool._small_param_grid(), 12, 15))
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
    assert summary == ("3 codes of criterion 6 checked, 3 differ; "
                       "2 certified by information sets, "
                       "1 certified by the column walk")


def test_correctable_check_reports_each_differing_pattern(monkeypatch,
                                                         capsys):
    tool = load_tool("check_correctable")
    codes = list(itertools.islice(tool._small_param_grid(), 2))
    monkeypatch.setattr(tool, "_small_param_grid", lambda: iter(codes))
    assert tool.main() == 0
    assert capsys.readouterr().out == (
        "2 codes with mn <= 12, 32 patterns checked, 0 differ\n")
    real = tool.oracle.correctable
    # a broken oracle that calls every pattern of three or more erasures
    # dependent
    monkeypatch.setattr(tool.oracle, "correctable",
                        lambda cols, h: len(cols) < 3 and real(cols, h))
    assert tool.main() == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines and all(": oracle False, rank True" in line
                         for line in lines)
    assert summary.endswith(f"32 patterns checked, {len(lines)} differ")


def test_flip_walk_counts_every_single_flip_of_the_smallest_codes():
    """Every (E, j) pair of the 23 grid codes with mn <= 8, both
    decoders alike: within |E| + 1 < d every pair raises but 180, which
    return a silent non-codeword, and beyond it 372 pairs do.  These
    counts are a ratchet: a change that alters a decode moves them, and
    the fix for silent non-codewords lowers both to 0."""
    counts = load_tool("flip_walk").walk(8)
    assert list(counts) == ["decode_rows", "decode_iterative"]
    for name, tally in counts.items():
        within = sum(n for (inside, _), n in tally.items() if inside)
        beyond = sum(n for (inside, _), n in tally.items() if not inside)
        assert (within, beyond) == (5600, 9312), name
        assert (tally[True, "raised"], tally[True, "silent"]) == (5420, 180)
        assert tally[False, "silent"] == 372, name
    assert counts["decode_rows"][False, "stalled"] == 0


def _result_line(ops, cli_ms, failed=0):
    """A benchmark result line with two of its metrics."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"gpc_ops_per_s": {"value": ops, "unit": "1/s"},
                        "cli_ms": {"value": cli_ms, "unit": "ms"}}}


def test_bench_pairs_summarises_medians_quartiles_and_wins():
    tool = load_tool("bench_pairs")
    metrics = [{"name": "gpc_ops_per_s", "better": "higher", "bound": 0.2},
               {"name": "cli_ms", "better": "lower", "bound": 0.25}]
    parent = [(100, 300), (110, 280), (90, 320), (105, 290), (95, 310)]
    change = [(120, 400), (105, 270), (99, 420), (130, 300), (100, 390)]
    runs = [{"side": side, "pair": pair, "result": _result_line(*values)}
            for pair, (p, c) in enumerate(zip(parent, change), 1)
            for side, values in (("change", c), ("parent", p))]
    summary = tool.summarise(runs, metrics)
    assert summary["pairs"] == 5 and summary["correct"]
    assert summary["failed_parent"] == summary["failed_change"] == 0
    assert summary["gpc_ops_per_s"] == {
        "parent_median": 100, "parent_iqr": 10, "change_median": 105,
        "ratio": 1.05, "wins": 4, "within_bound": True}
    # cli_ms: lower is better; 390 / 300 = 1.3 is beyond the 0.25 bound
    assert summary["cli_ms"] == {
        "parent_median": 300, "parent_iqr": 20, "change_median": 390,
        "ratio": 1.3, "wins": 1, "within_bound": False}
    runs[0]["result"] = _result_line(120, 400, failed=2)
    summary = tool.summarise(runs, metrics)
    assert (summary["failed_change"], summary["correct"]) == (2, False)
    # a pair missing one side is left out
    assert tool.summarise(runs[1:], metrics)["pairs"] == 4


def test_bench_pairs_refuses_a_bytecode_cache_in_one_checkout(
        tmp_path, monkeypatch, capsys):
    tool = load_tool("bench_pairs")
    names = [m["name"] for m in
             json.loads(tool.BENCHMARK.read_text())["end_to_end"]]
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append(checkout)
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(tool, "run_once", run_once)
    parent, change = tmp_path / "parent", tmp_path / "change"
    cache = change / "src" / "gpcodes" / "__pycache__"
    (parent / "src" / "gpcodes").mkdir(parents=True)
    cache.mkdir(parents=True)
    options = ["--workload", "scrub", "--seed", "1", "--seconds", "1",
               "--pairs", "1"]
    assert tool.main([str(parent), str(change), *options]) == 2
    assert runs == []
    err = capsys.readouterr().err
    assert f"only checkout {change} holds" in err and f"rm -r {cache}" in err
    # the same checkout twice, or both cached, is compared
    assert tool.main([str(change), str(change), *options]) == 0
    (parent / "src" / "gpcodes" / "__pycache__").mkdir()
    assert tool.main([str(parent), str(change), *options]) == 0
    assert len(runs) == 4


def test_bench_pairs_compares_archive_throughputs_from_the_report_line(
        tmp_path, monkeypatch, capsys):
    """Archive's encode and repair MB/s, read from the report line, are
    printed and summarised next to the end-to-end metrics, with no
    bound; a workload whose report has none prints none."""
    tool = load_tool("bench_pairs")
    names = [m["name"] for m in
             json.loads(tool.BENCHMARK.read_text())["end_to_end"]]
    speeds = {"parent": [2.0, 4.0, 3.0], "change": [3.0, 5.0, 2.5]}

    def run(argv, cwd, **kwargs):
        speed = speeds[Path(cwd).name].pop(0)
        named = {"failed_ratio": {"value": 0.0, "unit": "ratio"}}
        if "archive" in argv:
            named.update({name: {"value": speed * (i + 1), "unit": "MB/s"}
                          for i, name in enumerate(tool.THROUGHPUTS)})
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {name: {"value": 1.0} for name in names}}
        lines = [json.dumps({"report": {"named": named}}), json.dumps(result)]
        return subprocess.CompletedProcess(argv, 0, "\n".join(lines), "")

    monkeypatch.setattr(tool.subprocess, "run", run)
    checkouts = [str(tmp_path / "parent"), str(tmp_path / "change")]
    out = tmp_path / "bench.json"
    options = ["--seed", "3", "--seconds", "1", "--pairs", "3"]
    assert tool.main([*checkouts, "--workload", "archive", *options,
                      "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1 + len(names):] == [
        f"  {name}: parent {3.0 * i} (IQR {1.0 * i}), change {3.0 * i}, "
        f"ratio 1.0, won 2 of 3" for i, name in enumerate(tool.THROUGHPUTS, 1)]
    summary = json.loads(out.read_text())["summary"]["archive_seed3"]
    assert summary["epc_repair_MBps"] == {
        "parent_median": 12.0, "parent_iqr": 4.0, "change_median": 12.0,
        "ratio": 1.0, "wins": 2}
    speeds.update(parent=[1.0], change=[1.0])
    assert tool.main([*checkouts, "--workload", "scrub", *options[:4],
                      "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(names) and "within bound" in lines[-1]


def test_mutants_reports_a_surviving_mutant_and_a_stale_pattern(capsys):
    tool = load_tool("mutants")
    live = tool.MUTANTS[0]
    stale = live._replace(name="stale", old="text that is in no file")
    seen = []

    def tests_pass(root, tests):      # no subprocess: every mutant survives
        seen.append(((root / live.path).read_text().count(live.new), tests))
        return False

    assert tool.run_table([live, stale], run=tests_pass) == 1
    assert seen == [(1, live.tests)]   # the stale mutant never ran
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"SURVIVED: {live.name}",
        f"STALE (old text found 0 times in {live.path}): stale"]
    assert lines[2].startswith("2 mutants, 0 caught")
    assert tool.run_table([live], run=lambda root, tests: True) == 0
    assert capsys.readouterr().out.startswith(f"caught: {live.name}\n")


def test_digest_of_the_library_outputs_is_pinned():
    """tools/digest.py hashes the outputs, decode records and errors of
    every decoder and encoder on its seeded inputs.  A change that alters
    any of them must update this pin and say why in CHANGES.md."""
    digest = load_tool("digest").compute()
    assert (digest.items, digest.raised) == (1798, 432)
    assert digest.hash.hexdigest() == (
        "63d2b07139b6eb809092de21a9bcb957caff661be530c39690d8f37345fac827")
