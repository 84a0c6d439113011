"""End-to-end tests for the command-line interface (exit codes + output)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gpcodes import cli, epc, gpc, linalg, oracle
from gpcodes.files import parse_array_text, parse_code_spec, read_array
from gpcodes.oracle import DistanceReport
from test_oracle import corrupt_survivors, flip_first_recovered

FLAGSHIP_SPEC = {"kind": "gpc", "m": 6, "n": 7, "k": 4,
                 "s": [2, 1, 3], "u": [1, 3, 4]}
K_EQ_M_SPEC = {"kind": "gpc", "m": 4, "n": 6, "k": 4,
               "s": [2, 2], "u": [1, 2]}
STAIR_SPEC = {"kind": "gpc", "m": 6, "n": 7, "k": 5,
              "s": [2, 2, 2], "u": [1, 3, 5]}
G1_SPEC = {"kind": "epc-g1", "m": 4, "v": 1, "n": 5, "h": 1}
H2_SPEC = {"kind": "epc-h2", "m": 3, "n": 3}
H3_SPEC = {"kind": "epc-h3", "m": 3, "n": 3,
           "field": {"w": 10, "modulus_hex": "7ff"}}
# The epc-h2 and epc-h3 shapes with no data symbols: no admissible
# rectangle, so no distance bound.
NO_DATA_SHAPES = [("epc-h2", 2, 2), ("epc-h2", 2, 3), ("epc-h2", 3, 2),
                  ("epc-h3", 2, 2), ("epc-h3", 2, 3), ("epc-h3", 2, 4),
                  ("epc-h3", 3, 2), ("epc-h3", 4, 2)]


def write_spec(tmp_path, obj, name="code.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def write_data(tmp_path, symbols, name="data.txt"):
    path = tmp_path / name
    path.write_text(" ".join(f"{v:x}" for v in symbols) + "\n")
    return str(path)


def punch_holes(src, dst, cells):
    """Replace the given (row, col) tokens of an array file with '?'."""
    lines = Path(src).read_text().splitlines()
    for r, c in cells:
        tokens = lines[1 + r].split()
        tokens[c] = "?"
        lines[1 + r] = " ".join(tokens)
    with open(dst, "w") as fp:
        fp.write("\n".join(lines) + "\n")


# ------------------------------------------------------------------ bound

def test_bound_table(capsys):
    assert cli.main(["bound", "7", "2", "8", "3", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a=1: 24", "a=2: 20", "a=3: 22", "a=4: 21", "bound: 20"]


def test_bound_degenerate_shape(capsys):
    assert cli.main(["bound", "3", "2", "3", "2", "3"]) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- info

def test_info_gpc(tmp_path, capsys):
    code = write_spec(tmp_path, FLAGSHIP_SPEC)
    assert cli.main(["info", code]) == 0
    out = capsys.readouterr().out
    assert "kind: gpc" in out
    assert "code: C(7;4,(1,1,3,4,4,4))" in out
    assert "N=42 K=19 d=10" in out
    assert "field: GF(2^3)" in out
    assert "parity cells: 23" in out
    assert "transpose: C(6;6," in out


def test_info_g1_prints_its_shape_and_bound(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    assert cli.main(["info", code]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "shape: EP(4,1;5,1;1) bound: 6" in out


def test_info_gpc_without_column_view(tmp_path, capsys):
    code = write_spec(tmp_path, K_EQ_M_SPEC)
    assert cli.main(["info", code]) == 0
    assert "transpose: undefined (k = m)" in capsys.readouterr().out


def test_info_linear(tmp_path, capsys):
    code = write_spec(tmp_path, H2_SPEC)
    assert cli.main(["info", code]) == 0
    out = capsys.readouterr().out
    assert "shape: EP(3,1;3,1;2)" in out
    assert "N=9 K=2" in out
    assert "distance upper bound: 8" in out


@pytest.mark.parametrize("command", ["info", "encode", "verify"])
@pytest.mark.parametrize("kind, m, n", NO_DATA_SHAPES)
def test_shapes_with_no_data_symbols_exit_2(tmp_path, capsys, command,
                                            kind, m, n):
    code = write_spec(tmp_path, {"kind": kind, "m": m, "n": n})
    extra = [write_data(tmp_path, [])] if command == "encode" else []
    assert cli.main([command, code, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    g = 2 if kind == "epc-h2" else 3
    assert err == (f"error: degenerate shape EP({m},1;{n},1;{g}): "
                   "no admissible rectangle\n")


def test_info_missing_file(tmp_path, capsys):
    assert cli.main(["info", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_info_unknown_kind(tmp_path, capsys):
    code = write_spec(tmp_path, {"kind": "rs", "n": 7})
    assert cli.main(["info", code]) == 2


@pytest.mark.parametrize("change", [{"s": [2.0, 1, 3]}, {"u": [1, 3, 4.5]},
                                    {"u": [True, 3, 4]}],
                         ids=["float_s", "float_u", "bool_u"])
def test_info_rejects_non_integer_levels(tmp_path, capsys, change):
    code = write_spec(tmp_path, {**FLAGSHIP_SPEC, **change})
    assert cli.main(["info", code]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "integer lists 's' and 'u'" in err


@pytest.mark.parametrize("change, message", [
    ({"m": 0, "k": 0}, "array shape 0x7 must be positive"),
    ({"u": [1, 3]}, "level vectors disagree: 3 vs 2"),
    ({"s": [3, 0, 3]}, "every s_i must be >= 1"),
    ({"s": [], "u": []}, "need at least one level in s and u")],
    ids=["empty_shape", "level_lengths", "empty_level", "no_levels"])
def test_info_reports_params_violations(tmp_path, capsys, change, message):
    code = write_spec(tmp_path, {**FLAGSHIP_SPEC, **change})
    assert cli.main(["info", code]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


# --------------------------------------------------------- encode / decode

def test_encode_decode_roundtrip(tmp_path, capsys):
    rng = random.Random(5)
    code = write_spec(tmp_path, G1_SPEC)
    data = write_data(tmp_path, [rng.randrange(8) for _ in range(11)])
    enc = str(tmp_path / "enc.txt")
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, [(0, 0), (1, 2), (1, 4), (3, 1)])
    dec = str(tmp_path / "dec.txt")
    assert cli.main(["decode", code, holes, "-o", dec]) == 0
    assert Path(dec).read_text() == Path(enc).read_text()     # byte-identical


def test_encode_to_stdout(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    data = write_data(tmp_path, list(range(8)) + [1, 2, 3])
    assert cli.main(["encode", code, data]) == 0
    out = capsys.readouterr().out
    arr, w = parse_array_text(out)
    assert (arr.m, arr.n, w) == (4, 5, 3)
    # systematic: the first row of data symbols appears verbatim
    assert arr.values[0][:4] == [0, 1, 2, 3]


def test_encode_wrong_symbol_count(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    data = write_data(tmp_path, [1, 2, 3])
    assert cli.main(["encode", code, data]) == 2


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_missing_data_or_array_file(tmp_path, capsys, command):
    code = write_spec(tmp_path, G1_SPEC)
    missing = str(tmp_path / "nope.txt")
    assert cli.main([command, code, missing]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {missing}:")


def test_decode_rejects_array_width_outside_the_field_range(tmp_path, capsys):
    code = write_spec(tmp_path, FLAGSHIP_SPEC)
    array = tmp_path / "arr.txt"
    array.write_text("3 3 -1\n? 0 0\n0 0 0\n0 0 0\n")
    assert cli.main(["decode", code, str(array)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: array width w=-1 must be in [1, 63]\n"


def test_encode_unwritable_output(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    data = write_data(tmp_path, list(range(8)) + [1, 2, 3])
    out = str(tmp_path / "missing" / "enc.txt")
    assert cli.main(["encode", code, data, "-o", out]) == 2
    assert f"error: cannot write {out}:" in capsys.readouterr().err


G16_SPEC = {"kind": "gpc", "m": 16, "n": 30, "k": 14, "s": [8, 4, 4],
            "u": [2, 4, 8], "field": {"w": 8}}


def row_slots():
    """{(view m, level): the erased columns of every plan slot its row
    code holds}."""
    return {(p.m, i): sorted(code._plans)
            for p, view in gpc._VIEWS.items()
            for i, code in enumerate(view.levels) if code._plans}


def test_one_command_compiles_only_the_plans_it_reuses(tmp_path, capsys,
                                                       monkeypatch):
    """Row codes solve in closed form and keep no plan: one G16 encode
    solves level 0's parity columns for the 8 rows that share them as
    one block and each deeper parity row alone, and one decode of two
    lost columns and one lost row solves the two columns for the 15
    rows that share them as one block, with no plan slot and no call of
    linalg.solve.  The encoder map, used once, is counted and not
    compiled."""
    calls, solves = [], []
    real, step = linalg.solve, gpc._RowCode.solve_syndrome
    monkeypatch.setattr(linalg, "solve",
                        lambda *args: calls.append(args) or real(*args))

    def recording_step(self, syndrome, erased, block=1):
        solves.append((erased, block))
        return step(self, syndrome, erased, block)

    monkeypatch.setattr(gpc._RowCode, "solve_syndrome", recording_step)
    rng = random.Random(402)
    code = write_spec(tmp_path, G16_SPEC)
    data = write_data(tmp_path, [rng.randrange(256) for _ in range(372)])
    enc = str(tmp_path / "enc.txt")
    monkeypatch.setattr(gpc, "_VIEWS", {})
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    assert solves == [((28, 29), 8)] + [((26, 27, 28, 29), 1)] * 4 + [
        (tuple(range(22, 30)), 1)] * 2
    assert row_slots() == {} and calls == []
    assert [(view.encoder.uses, view.encoder.map)
            for view in gpc._VIEWS.values()] == [(1, None)]
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, [(r, c) for r in range(16) for c in range(30)
                             if c in (14, 17) or r == 5])
    dec = str(tmp_path / "dec.txt")
    monkeypatch.setattr(gpc, "_VIEWS", {})
    solves.clear()
    assert cli.main(["decode", code, holes, "-o", dec]) == 0
    assert Path(dec).read_text() == Path(enc).read_text()
    assert solves == [((14, 17), 15)]
    assert row_slots() == {} and calls == []


def test_decode_single_pass_vs_iterative(tmp_path, capsys):
    rng = random.Random(9)
    code = write_spec(tmp_path, STAIR_SPEC)
    data = write_data(tmp_path, [rng.randrange(8) for _ in range(22)])
    enc = str(tmp_path / "enc.txt")
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    stairs = [(0, 0), (0, 4), (1, 0), (1, 1), (2, 1), (2, 2),
              (3, 2), (3, 3), (4, 3), (4, 4)]
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, stairs)
    capsys.readouterr()
    assert cli.main(["decode", code, holes, "--single-pass"]) == 3
    assert "uncorrectable" in capsys.readouterr().err
    dec = str(tmp_path / "dec.txt")
    assert cli.main(["decode", code, holes, "-o", dec]) == 0
    assert Path(dec).read_text() == Path(enc).read_text()


@pytest.mark.parametrize("spec", [H2_SPEC, H3_SPEC], ids=["h2", "h3"])
def test_decode_single_pass_refuses_codes_without_gpc_decoders(
        tmp_path, capsys, monkeypatch, spec):
    code = write_spec(tmp_path, spec)
    data = write_data(tmp_path, [1] * parse_code_spec(spec).linear.dimension)
    enc = str(tmp_path / "enc.txt")
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, [(0, 0)])

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded before refusing --single-pass")
    monkeypatch.setattr(epc, "lc_erasure_decode", no_decode)
    out = tmp_path / "dec.txt"
    assert cli.main(["decode", code, holes, "--single-pass",
                     "-o", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: --single-pass needs a gpc or epc-g1 code, got kind "
            f"{spec['kind']!r}\n")
    assert not out.exists()


def test_decode_uncorrectable_writes_partial(tmp_path, capsys):
    rng = random.Random(13)
    code = write_spec(tmp_path, G1_SPEC)
    data = write_data(tmp_path, [rng.randrange(8) for _ in range(11)])
    enc = str(tmp_path / "enc.txt")
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    # a 2x3 solid rectangle defeats a distance-6 code
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, [(r, c) for r in (1, 2) for c in (0, 2, 4)])
    out = str(tmp_path / "partial.txt")
    assert cli.main(["decode", code, holes, "-o", out]) == 3
    assert "unresolved" in capsys.readouterr().err
    partial, _ = read_array(out)
    assert partial.erasure_count == 6   # nothing solvable in this pattern


def test_decode_uncorrectable_single_pass_writes_nothing(tmp_path, capsys):
    rng = random.Random(13)
    code = write_spec(tmp_path, G1_SPEC)
    data = write_data(tmp_path, [rng.randrange(8) for _ in range(11)])
    enc = str(tmp_path / "enc.txt")
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, [(r, c) for r in (1, 2) for c in (0, 2, 4)])
    out = tmp_path / "partial.txt"
    assert cli.main(["decode", code, holes, "-o", str(out),
                     "--single-pass"]) == 3
    assert "uncorrectable" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", [H2_SPEC, {"kind": "epc-h3", "m": 3, "n": 3}])
def test_decode_uncorrectable_linear_writes_nothing(tmp_path, capsys, spec):
    code = write_spec(tmp_path, spec)
    arr = tmp_path / "holes.txt"
    arr.write_text("3 3 4\n" + "? ? ?\n" * 3)
    out = tmp_path / "partial.txt"
    assert cli.main(["decode", code, str(arr), "-o", str(out)]) == 3
    assert "unresolved" in capsys.readouterr().err
    assert not out.exists()


def test_decode_linear_reports_row_col_cells(tmp_path, capsys):
    code = write_spec(tmp_path, H2_SPEC)
    arr = tmp_path / "holes.txt"
    arr.write_text("3 3 4\n" + "? ? ?\n" * 3)
    assert cli.main(["decode", code, str(arr)]) == 3
    cells = [(r, c) for r in range(3) for c in range(3)]
    assert f"unresolved positions {cells}\n" in capsys.readouterr().err


def test_decode_contradicting_survivor(tmp_path, capsys):
    code = write_spec(tmp_path, {"kind": "gpc", "m": 4, "n": 6, "k": 3,
                                 "s": [1, 3], "u": [2, 4]})
    data = write_data(tmp_path, [1, 2, 3, 4, 5, 6, 7, 1])
    enc = tmp_path / "enc.txt"
    assert cli.main(["encode", code, data, "-o", str(enc)]) == 0
    lines = enc.read_text().splitlines()
    assert lines[1] == "1 2 3 4 4 0"
    lines[1] = "? 3 3 4 4 0"    # (0, 1) was 2
    holes = tmp_path / "holes.txt"
    holes.write_text("\n".join(lines) + "\n")
    out = tmp_path / "dec.txt"
    for extra in ([], ["--single-pass"]):
        capsys.readouterr()
        assert cli.main(["decode", code, str(holes), "-o", str(out),
                         *extra]) == 7
        err = capsys.readouterr().err
        assert err.startswith("uncorrectable: ")
        assert err.endswith("unresolved positions [(0, 0)]\n")
        assert not out.exists()


def test_decode_contradicting_vanishing_row_survivor(tmp_path, capsys):
    # both erased rows of the flagship are filled from vanishing
    # combinations; the flipped survivor (2, 5) contradicts them
    code = write_spec(tmp_path, FLAGSHIP_SPEC)
    rng = random.Random(1)
    data = write_data(tmp_path, [rng.randrange(8) for _ in range(19)])
    enc = tmp_path / "enc.txt"
    assert cli.main(["encode", code, data, "-o", str(enc)]) == 0
    lines = [line.split() for line in enc.read_text().splitlines()]
    for r, c in [(1, c) for c in range(5)] + [(4, c) for c in range(2, 7)]:
        lines[1 + r][c] = "?"
    lines[3][5] = f"{int(lines[3][5], 16) ^ 1:x}"
    holes = tmp_path / "holes.txt"
    holes.write_text("\n".join(map(" ".join, lines)) + "\n")
    out = tmp_path / "dec.txt"
    for extra in ([], ["--single-pass"]):
        capsys.readouterr()
        assert cli.main(["decode", code, str(holes), "-o", str(out),
                         *extra]) == 7
        assert "uncorrectable" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("spec", [H2_SPEC, H3_SPEC], ids=["h2", "h3"])
def test_decode_linear_checks_arrays_with_no_erasures(tmp_path, capsys,
                                                      spec):
    code = write_spec(tmp_path, spec)
    data = write_data(tmp_path, [11, 6][:2 if spec is H2_SPEC else 1])
    enc = tmp_path / "enc.txt"
    assert cli.main(["encode", code, data, "-o", str(enc)]) == 0
    out = tmp_path / "dec.txt"
    assert cli.main(["decode", code, str(enc), "-o", str(out)]) == 0
    assert out.read_text() == enc.read_text()
    out.unlink()
    lines = [line.split() for line in enc.read_text().splitlines()]
    lines[2][1] = f"{int(lines[2][1], 16) ^ 1:x}"     # no "?" anywhere
    flipped = tmp_path / "flipped.txt"
    flipped.write_text("\n".join(map(" ".join, lines)) + "\n")
    capsys.readouterr()
    assert cli.main(["decode", code, str(flipped), "-o", str(out)]) == 7
    assert "uncorrectable" in capsys.readouterr().err
    assert not out.exists()


def test_decode_linear_contradicting_survivor_in_a_stopping_set(tmp_path,
                                                                capsys):
    # the 2 x 2 corners of an epc-h2 array are a stopping set of the
    # peel, so they reach the fill; one changed survivor contradicts it
    code = write_spec(tmp_path, {"kind": "epc-h2", "m": 4, "n": 4})
    data = write_data(tmp_path, [1, 2, 3, 4, 5, 6, 7])
    enc = tmp_path / "enc.txt"
    assert cli.main(["encode", code, data, "-o", str(enc)]) == 0
    corners = [(0, 1), (0, 2), (3, 1), (3, 2)]
    holes = tmp_path / "holes.txt"
    punch_holes(enc, holes, corners)
    out = tmp_path / "dec.txt"
    assert cli.main(["decode", code, str(holes), "-o", str(out)]) == 0
    assert out.read_text() == enc.read_text()
    out.unlink()
    lines = [line.split() for line in holes.read_text().splitlines()]
    lines[2][0] = f"{int(lines[2][0], 16) ^ 1:x}"
    holes.write_text("\n".join(map(" ".join, lines)) + "\n")
    capsys.readouterr()
    assert cli.main(["decode", code, str(holes), "-o", str(out)]) == 7
    assert capsys.readouterr() == (
        "", "uncorrectable: known symbols are inconsistent with the code; "
            f"unresolved positions {corners}\n")
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--single-pass"]],
                         ids=["iterative", "single_pass"])
def test_decode_gpc_checks_arrays_with_no_erasures(tmp_path, capsys, extra):
    # with nothing erased every row still repairs in the weakest row code,
    # which the changed symbol breaks: on the flagship, and on a k = m
    # code, which has no vanishing combinations
    for spec, dim in ((FLAGSHIP_SPEC, 19), (K_EQ_M_SPEC, 18)):
        code = write_spec(tmp_path, spec)
        rng = random.Random(2)
        data = write_data(tmp_path, [rng.randrange(8) for _ in range(dim)])
        enc = tmp_path / "enc.txt"
        assert cli.main(["encode", code, data, "-o", str(enc)]) == 0
        out = tmp_path / "dec.txt"
        assert cli.main(["decode", code, str(enc), "-o", str(out),
                         *extra]) == 0
        assert out.read_text() == enc.read_text()
        out.unlink()
        lines = [line.split() for line in enc.read_text().splitlines()]
        lines[3][4] = f"{int(lines[3][4], 16) ^ 1:x}"     # no "?" anywhere
        flipped = tmp_path / "flipped.txt"
        flipped.write_text("\n".join(map(" ".join, lines)) + "\n")
        capsys.readouterr()
        assert cli.main(["decode", code, str(flipped), "-o", str(out),
                         *extra]) == 7, spec
        assert capsys.readouterr().err.endswith("unresolved positions []\n")
        assert not out.exists()


@pytest.mark.parametrize("field", [{"w": 4.0}, {"w": 4, "alpha": True},
                                   {"w": 4, "modulus_hex": 19}],
                         ids=["float_w", "bool_alpha", "int_modulus"])
def test_non_integer_field_exits_2(tmp_path, capsys, field):
    code = write_spec(tmp_path, {**H2_SPEC, "field": field})
    assert cli.main(["info", code]) == 2
    assert "bad field description" in capsys.readouterr().err


def test_decode_linear_code(tmp_path, capsys):
    code = write_spec(tmp_path, H2_SPEC)
    data = write_data(tmp_path, [11, 6])
    enc = str(tmp_path / "enc.txt")
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)])
    dec = str(tmp_path / "dec.txt")
    assert cli.main(["decode", code, holes, "-o", dec]) == 0
    assert Path(dec).read_text() == Path(enc).read_text()
    # eight erasures exceed what the checks can pin down
    punch_holes(enc, holes, [(r, c) for r in range(3) for c in range(3)
                             if (r, c) != (2, 2)])
    capsys.readouterr()
    assert cli.main(["decode", code, holes]) == 3
    assert "uncorrectable" in capsys.readouterr().err


def test_decode_width_mismatch(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    bad = tmp_path / "arr.txt"
    bad.write_text("4 5 4\n" + "\n".join("0 0 0 0 0" for _ in range(4)) + "\n")
    assert cli.main(["decode", code, str(bad)]) == 2
    assert "width" in capsys.readouterr().err


def test_decode_shape_mismatch(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    bad = tmp_path / "arr.txt"
    bad.write_text("2 2 3\n0 0\n0 0\n")
    assert cli.main(["decode", code, str(bad)]) == 2


def test_decode_unwritable_output(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    data = write_data(tmp_path, list(range(8)) + [1, 2, 3])
    enc = str(tmp_path / "enc.txt")
    assert cli.main(["encode", code, data, "-o", enc]) == 0
    holes = str(tmp_path / "holes.txt")
    punch_holes(enc, holes, [(0, 0), (3, 1)])
    out = str(tmp_path / "missing" / "dec.txt")
    assert cli.main(["decode", code, holes, "-o", out]) == 2
    assert f"error: cannot write {out}:" in capsys.readouterr().err


# ----------------------------------------------------------------- verify

def test_verify_g1_clean(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    assert cli.main(["verify", code, "--random", "20", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "rank=9 expected=9 OK" in out
    assert "d_bruteforce=6 d_formula=6 OK" in out
    assert "bound=6 d_formula=6 OK" in out
    assert "random trials: 20 seed=5 mismatches=0 OK" in out


def test_verify_budget_skip(tmp_path, capsys):
    # the workhorse code needs ~2e9 subsets at its distance: over budget
    code = write_spec(tmp_path, FLAGSHIP_SPEC)
    assert cli.main(["verify", code, "--random", "10"]) == 5
    out = capsys.readouterr().out
    assert "rank=23 expected=23 OK" in out
    assert "d_bruteforce=skipped" in out
    assert "random trials: 10 seed=0 mismatches=0 OK" in out


@pytest.mark.parametrize("option", [["--random", "-5"], ["--budget", "-1"],
                                    ["--exhaustive-cap", "0"]],
                         ids=["random", "budget", "exhaustive_cap"])
def test_verify_rejects_meaningless_counts(tmp_path, capsys, option):
    code = write_spec(tmp_path, G1_SPEC)
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["verify", code, *option])
    assert exc_info.value.code == 2
    assert f"argument {option[0]}" in capsys.readouterr().err


def test_verify_low_cap_is_inconclusive(tmp_path, capsys):
    code = write_spec(tmp_path, G1_SPEC)
    assert cli.main(["verify", code, "--exhaustive-cap", "3"]) == 5
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_verify_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # force a wrong exhaustive result to check the failure path
    monkeypatch.setattr(oracle, "brute_min_distance",
                        lambda h, cap, budget=0: DistanceReport(5, (0,), 1))
    code = write_spec(tmp_path, G1_SPEC)
    assert cli.main(["verify", code]) == 4
    assert "d_bruteforce=5 d_formula=6 MISMATCH" in capsys.readouterr().out


def test_verify_random_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gpc, "decode_rows",
                        flip_first_recovered(gpc.decode_rows))
    monkeypatch.setattr(gpc, "decode_iterative",
                        flip_first_recovered(gpc.decode_iterative))
    code = write_spec(tmp_path, G1_SPEC)
    assert cli.main(["verify", code, "--random", "20", "--seed", "5"]) == 4
    out, err = capsys.readouterr()
    assert "d_bruteforce=6 d_formula=6 OK" in out
    assert any(line.startswith("random trials: 20 seed=5 mismatches=")
               and line.endswith(" MISMATCH") for line in out.splitlines())
    assert "row decoder mismatch" in err
    assert "iterative decoder wrote a wrong symbol" in err


def test_verify_random_counts_one_wrong_symbol_per_trial(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(gpc, "decode_iterative",
                        corrupt_survivors(gpc.decode_iterative))
    code = write_spec(tmp_path, G1_SPEC)
    assert cli.main(["verify", code, "--random", "4"]) == 4
    out, err = capsys.readouterr()
    assert "random trials: 4 seed=0 mismatches=4 MISMATCH" in out.splitlines()
    assert err.count("iterative decoder wrote a wrong symbol") == 4


def test_verify_h3_small_field_falls_short(tmp_path, capsys):
    code = write_spec(tmp_path, {"kind": "epc-h3", "m": 3, "n": 3})
    assert cli.main(["verify", code]) == 0
    out = capsys.readouterr().out
    assert "condition35=violated(1, 2, 2, -2)" in out
    assert "d_bruteforce=8 expected=<9 OK" in out


def test_verify_h3_prime_field(tmp_path, capsys):
    code = write_spec(tmp_path, {"kind": "epc-h3", "m": 3, "n": 3,
                                 "field": {"w": 10, "modulus_hex": "7ff"}})
    assert cli.main(["verify", code]) == 0
    out = capsys.readouterr().out
    assert "condition35=ok" in out
    assert "d_bruteforce=9 expected=9 OK" in out


@pytest.mark.parametrize("m, n, line", [
    (2, 5, "d_bruteforce=10 expected=10 OK"),
    (5, 2, "d_bruteforce=10 expected=10 OK"),
    (3, 3, "condition35=violated(1, 2, 2, -2) d_bruteforce=8 expected=<9 OK"),
])
def test_verify_h3_expects_the_distance_bound(tmp_path, capsys, m, n, line):
    # With two rows or two columns the bound is 10, and condition 3.5,
    # which decides whether the code reaches 9, does not apply.
    code = write_spec(tmp_path, {"kind": "epc-h3", "m": m, "n": n})
    assert cli.main(["verify", code]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_verify_h2(tmp_path, capsys):
    code = write_spec(tmp_path, H2_SPEC)
    assert cli.main(["verify", code]) == 0
    assert "d_bruteforce=8 expected=8 OK" in capsys.readouterr().out


def test_verify_h2_low_cap_is_inconclusive(tmp_path, capsys):
    code = write_spec(tmp_path, H2_SPEC)
    assert cli.main(["verify", code, "--exhaustive-cap", "3"]) == 5
    assert capsys.readouterr().out == "d_bruteforce>3 expected=8 INCONCLUSIVE\n"


def test_verify_h2_cap_hit_is_mismatch(tmp_path, capsys, monkeypatch):
    def no_dependent_set(h, cap, budget=0):
        raise oracle.DistanceCapError("forced")
    monkeypatch.setattr(oracle, "brute_min_distance", no_dependent_set)
    code = write_spec(tmp_path, H2_SPEC)
    assert cli.main(["verify", code]) == 4
    assert capsys.readouterr().out == "d_bruteforce>8 expected=8 MISMATCH\n"


def test_verify_h2_budget_skip(tmp_path, capsys):
    code = write_spec(tmp_path, H2_SPEC)
    assert cli.main(["verify", code, "--budget", "10"]) == 5
    assert capsys.readouterr().out.startswith("d_bruteforce=skipped (")


def test_verify_h3_budget_skip_reports_condition35(tmp_path, capsys):
    code = write_spec(tmp_path, H3_SPEC)
    assert cli.main(["verify", code, "--budget", "10"]) == 5
    out = capsys.readouterr().out
    assert out.startswith("condition35=ok d_bruteforce=skipped (")


@pytest.mark.parametrize("spec", [H2_SPEC, H3_SPEC], ids=["h2", "h3"])
def test_verify_random_refuses_codes_without_gpc_decoders(tmp_path, capsys,
                                                          monkeypatch, spec):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before refusing --random")
    monkeypatch.setattr(oracle, "brute_min_distance", no_search)
    code = write_spec(tmp_path, spec)
    assert cli.main(["verify", code, "--random", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: --random needs a gpc or epc-g1 code, got kind "
                   f"{spec['kind']!r}\n")


# ------------------------------------------------------------- find-prime

def test_find_prime(capsys):
    assert cli.main(["find-prime", "9"]) == 0
    assert capsys.readouterr().out.strip() == "11"
    assert cli.main(["find-prime", "61"]) == 5
    assert "search limit" in capsys.readouterr().err
    for size in ("64", "100"):
        # not an empty interval (100, 64]: no width above 63 exists
        assert cli.main(["find-prime", size]) == 5
        assert capsys.readouterr().err == (
            "search limit: no usable prime lies above 63: GF widths p - 1 "
            "stop at 63\n")


@pytest.mark.parametrize("command", [
    ["info", "{code}"],
    ["bound", "7", "2", "8", "3", "3"],
    ["verify", "{code}", "--random", "5", "--seed", "1"],
], ids=["info", "bound", "verify_random"])
def test_a_closed_output_pipe_exits_quietly(tmp_path, command):
    # The child's standard output is a pipe whose reader closed before
    # the child wrote anything, as in `gpcodes info code.json | head -0`.
    code = write_spec(tmp_path, G1_SPEC)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gpcodes.cli",
             *(arg.format(code=code) for arg in command)],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")


def test_find_prime_has_no_cap_option(capsys):
    # the search bound is GF's width rule, not an option
    with pytest.raises(SystemExit) as exc:
        cli.main(["find-prime", "61", "--cap", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 100" in capsys.readouterr().err
