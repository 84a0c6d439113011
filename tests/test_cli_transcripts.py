"""Golden transcripts of the command line, one per README spec kind.

Each kind runs ``info``, ``encode`` of a fixed data file, ``decode`` of
the encoded array with one cell punched, ``decode`` of a pattern beyond
the code's reach, ``decode --single-pass`` of the one-cell pattern and
``verify``.  The exact exit code, standard output and standard error of
every command are pinned, so a change to how a command reaches the
codes cannot change what it prints.
"""

import json
from pathlib import Path

import pytest

from gpcodes import cli

SPECS = {
    "gpc": {"kind": "gpc", "m": 6, "n": 7, "k": 4,
            "s": [2, 1, 3], "u": [1, 3, 4]},
    "epc-g1": {"kind": "epc-g1", "m": 4, "v": 1, "n": 5, "h": 1},
    "epc-h2": {"kind": "epc-h2", "m": 3, "n": 3},
    "epc-h3": {"kind": "epc-h3", "m": 3, "n": 3,
               "field": {"w": 10, "modulus_hex": "7ff"}},
}
DATA = {
    "gpc": [(5 * i + 1) % 8 for i in range(19)],
    "epc-g1": [1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3],
    "epc-h2": [11, 6],
    "epc-h3": [0x2c5],
}
# Cells lost beyond each code's reach: three whole rows of the gpc code
# plus one cell its decoder still repairs, a 2x3 rectangle of the
# distance-6 epc-g1 code plus one repairable cell, and every cell of
# the flat codes.
BEYOND = {
    "gpc": [(r, c) for r in (1, 2, 3) for c in range(7)] + [(5, 6)],
    "epc-g1": [(r, c) for r in (1, 2) for c in (0, 2, 4)] + [(3, 1)],
    "epc-h2": [(r, c) for r in range(3) for c in range(3)],
    "epc-h3": [(r, c) for r in range(3) for c in range(3)],
}


def punched(text, cells):
    lines = [line.split() for line in text.splitlines()]
    for r, c in cells:
        lines[1 + r][c] = "?"
    return "\n".join(map(" ".join, lines)) + "\n"


def transcript(tmp_path, capsys, kind):
    """[(command, exit code, stdout, stderr)] for one spec kind."""
    code = tmp_path / "code.json"
    code.write_text(json.dumps(SPECS[kind]) + "\n")
    data = tmp_path / "data.txt"
    data.write_text(" ".join(f"{v:x}" for v in DATA[kind]) + "\n")
    out = []

    def run(name, *args):
        status = cli.main([args[0], str(code), *args[1:]])
        out.append((name, status, *capsys.readouterr()))

    capsys.readouterr()
    run("info", "info")
    run("encode", "encode", str(data))
    encoded = out[-1][2]
    one = tmp_path / "one.txt"
    one.write_text(punched(encoded, [(0, 0)]))
    beyond = tmp_path / "beyond.txt"
    beyond.write_text(punched(encoded, BEYOND[kind]))
    run("decode one cell", "decode", str(one))
    run("decode beyond reach", "decode", str(beyond))
    run("decode --single-pass", "decode", str(one), "--single-pass")
    run("verify", "verify")
    return out


def test_transcripts_cover_every_readme_kind():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = [json.loads(line) for line in readme.splitlines()
              if line.startswith('{"kind": ')]
    assert listed == list(SPECS.values())


@pytest.mark.parametrize("kind", list(SPECS))
def test_cli_transcript(tmp_path, capsys, kind):
    assert transcript(tmp_path, capsys, kind) == EXPECTED[kind]


EXPECTED = {
    "gpc": [
        ("info", 0,
         "kind: gpc\n"
         "code: C(7;4,(1,1,3,4,4,4))\n"
         "N=42 K=19 d=10\n"
         "field: GF(2^3) modulus=0xb alpha=2 order(alpha)=7\n"
         "levels: m=6 n=7 k=4 s=(2, 1, 3) u=(1, 3, 4)\n"
         "parity cells: 23\n"
         "transpose: C(6;6,(2,2,2,3,4,4,4))\n",
         ""),
        ("encode", 0,
         "6 7 3\n"
         "1 6 3 0 5 2 3\n"
         "7 4 1 6 3 0 7\n"
         "5 2 7 4 5 2 3\n"
         "1 6 3 4 2 2 0\n"
         "0 3 1 2 0 2 2\n"
         "2 5 7 4 1 0 5\n",
         ""),
        ("decode one cell", 0,
         "6 7 3\n"
         "1 6 3 0 5 2 3\n"
         "7 4 1 6 3 0 7\n"
         "5 2 7 4 5 2 3\n"
         "1 6 3 4 2 2 0\n"
         "0 3 1 2 0 2 2\n"
         "2 5 7 4 1 0 5\n",
         ""),
        ("decode beyond reach", 3,
         "6 7 3\n"
         "1 6 3 0 5 2 3\n"
         "? ? ? ? ? ? ?\n"
         "? ? ? ? ? ? ?\n"
         "? ? ? ? ? ? ?\n"
         "0 3 1 2 0 2 2\n"
         "2 5 7 4 1 0 5\n",
         "uncorrectable: 21 unresolved positions [(1, 0), (1, 1), "
         "(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 0), (2, 1), "
         "(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 0), (3, 1), "
         "(3, 2), (3, 3), (3, 4), (3, 5), (3, 6)]\n"),
        ("decode --single-pass", 0,
         "6 7 3\n"
         "1 6 3 0 5 2 3\n"
         "7 4 1 6 3 0 7\n"
         "5 2 7 4 5 2 3\n"
         "1 6 3 4 2 2 0\n"
         "0 3 1 2 0 2 2\n"
         "2 5 7 4 1 0 5\n",
         ""),
        ("verify", 5,
         "rank=23 expected=23 OK\n"
         "d_bruteforce=skipped (2068564063 subsets of size <= 10 out "
         "of 42 exceed the budget of 10000000; lower the cap or raise "
         "the budget)\n",
         ""),
    ],
    "epc-g1": [
        ("info", 0,
         "kind: epc-g1\n"
         "code: C(5;3,(1,1,2,2))\n"
         "N=20 K=11 d=6\n"
         "field: GF(2^3) modulus=0xb alpha=2 order(alpha)=7\n"
         "levels: m=4 n=5 k=3 s=(2, 2) u=(1, 2)\n"
         "parity cells: 9\n"
         "shape: EP(4,1;5,1;1) bound: 6\n"
         "transpose: C(4;4,(1,1,1,2,2))\n",
         ""),
        ("encode", 0,
         "4 5 3\n"
         "1 2 3 4 4\n"
         "5 6 7 0 4\n"
         "1 2 3 5 5\n"
         "5 6 7 1 5\n",
         ""),
        ("decode one cell", 0,
         "4 5 3\n"
         "1 2 3 4 4\n"
         "5 6 7 0 4\n"
         "1 2 3 5 5\n"
         "5 6 7 1 5\n",
         ""),
        ("decode beyond reach", 3,
         "4 5 3\n"
         "1 2 3 4 4\n"
         "? 6 ? 0 ?\n"
         "? 2 ? 5 ?\n"
         "5 6 7 1 5\n",
         "uncorrectable: 6 unresolved positions [(1, 0), (1, 2), "
         "(1, 4), (2, 0), (2, 2), (2, 4)]\n"),
        ("decode --single-pass", 0,
         "4 5 3\n"
         "1 2 3 4 4\n"
         "5 6 7 0 4\n"
         "1 2 3 5 5\n"
         "5 6 7 1 5\n",
         ""),
        ("verify", 0,
         "rank=9 expected=9 OK\n"
         "d_bruteforce=6 d_formula=6 OK\n"
         "bound=6 d_formula=6 OK\n",
         ""),
    ],
    "epc-h2": [
        ("info", 0,
         "kind: epc-h2\n"
         "shape: EP(3,1;3,1;2)\n"
         "N=9 K=2\n"
         "field: GF(2^4) modulus=0x13 alpha=2 order(alpha)=15\n"
         "distance upper bound: 8\n",
         ""),
        ("encode", 0,
         "3 3 4\n"
         "b 6 d\n"
         "4 8 c\n"
         "f e 1\n",
         ""),
        ("decode one cell", 0,
         "3 3 4\n"
         "b 6 d\n"
         "4 8 c\n"
         "f e 1\n",
         ""),
        ("decode beyond reach", 3,
         "",
         "uncorrectable: 9 erased positions span a dependent column "
         "set; unresolved positions [(0, 0), (0, 1), (0, 2), (1, 0), "
         "(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]\n"),
        ("decode --single-pass", 2,
         "",
         "error: --single-pass needs a gpc or epc-g1 code, got kind "
         "'epc-h2'\n"),
        ("verify", 0,
         "d_bruteforce=8 expected=8 OK\n",
         ""),
    ],
    "epc-h3": [
        ("info", 0,
         "kind: epc-h3\n"
         "shape: EP(3,1;3,1;3)\n"
         "N=9 K=1\n"
         "field: GF(2^10) modulus=0x7ff alpha=2 order(alpha)=11\n"
         "distance upper bound: 9\n",
         ""),
        ("encode", 0,
         "3 3 10\n"
         "2c5 211 d4\n"
         "2ee 99 277\n"
         "2b 288 2a3\n",
         ""),
        ("decode one cell", 0,
         "3 3 10\n"
         "2c5 211 d4\n"
         "2ee 99 277\n"
         "2b 288 2a3\n",
         ""),
        ("decode beyond reach", 3,
         "",
         "uncorrectable: 9 erased positions span a dependent column "
         "set; unresolved positions [(0, 0), (0, 1), (0, 2), (1, 0), "
         "(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]\n"),
        ("decode --single-pass", 2,
         "",
         "error: --single-pass needs a gpc or epc-g1 code, got kind "
         "'epc-h3'\n"),
        ("verify", 0,
         "condition35=ok d_bruteforce=9 expected=9 OK\n",
         ""),
    ],
}
