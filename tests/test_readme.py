"""The README's examples run as written."""

import json
import re
from pathlib import Path

import pytest

from gpcodes import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "C(7;4,(1,1,3,4,4,4)) 19 10\n"


@pytest.mark.parametrize("command", ["bound 7 2 8 3 3", "info code.json",
                                     "verify g1.json --random 50 --seed 1"])
def test_readme_cli_examples_run(command, tmp_path, monkeypatch, capsys):
    text = README.read_text()
    expected = re.search(r"```\n\$ gpcodes " + re.escape(command)
                         + r"\n(.*?)```", text, re.S).group(1)
    # The spec files are the README's gpc and epc-g1 examples.
    specs = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    by_kind = {json.loads(line)["kind"]: line for line in specs.splitlines()}
    (tmp_path / "code.json").write_text(by_kind["gpc"])
    (tmp_path / "g1.json").write_text(by_kind["epc-g1"])
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == expected
