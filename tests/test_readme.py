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


def _write_specs(text, directory):
    # The spec files are the README's gpc and epc-g1 examples.
    specs = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    by_kind = {json.loads(line)["kind"]: line for line in specs.splitlines()}
    (directory / "code.json").write_text(by_kind["gpc"])
    (directory / "g1.json").write_text(by_kind["epc-g1"])


@pytest.mark.parametrize("command", ["bound 7 2 8 3 3", "info code.json",
                                     "verify g1.json --random 50 --seed 1"])
def test_readme_cli_examples_run(command, tmp_path, monkeypatch, capsys):
    text = README.read_text()
    expected = re.search(r"```\n\$ gpcodes " + re.escape(command)
                         + r"\n(.*?)```", text, re.S).group(1)
    _write_specs(text, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == expected


def test_readme_encode_punch_decode_transcript(tmp_path, monkeypatch,
                                               capsys):
    """The README's encode, punch and decode example, data file included,
    is word for word the transcript of running it, and the decode gives
    back the encoded array."""
    text = README.read_text()
    block = re.search(r"```\n(\$ cat data\.txt\n.*?)```", text, re.S).group(1)
    _write_specs(text, tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt").write_text("1 2 3 4 5 6 7 0 1 2 3\n")
    transcript = "$ cat data.txt\n" + (tmp_path / "data.txt").read_text()
    transcript += "$ gpcodes encode g1.json data.txt -o enc.txt\n"
    assert cli.main(["encode", "g1.json", "data.txt", "-o", "enc.txt"]) == 0
    transcript += capsys.readouterr().out
    encoded = (tmp_path / "enc.txt").read_text()
    # sed -e '2s/^1/?/': a leading 1 on line 2, the array's first row
    lines = encoded.splitlines(keepends=True)
    lines[1] = re.sub(r"^1", "?", lines[1])
    (tmp_path / "holes.txt").write_text("".join(lines))
    transcript += "$ sed -e '2s/^1/?/' enc.txt > holes.txt\n"
    transcript += "$ gpcodes decode g1.json holes.txt\n"
    assert cli.main(["decode", "g1.json", "holes.txt"]) == 0
    decoded = capsys.readouterr().out
    transcript += decoded
    assert block == transcript
    assert "?" in lines[1] and decoded == encoded
