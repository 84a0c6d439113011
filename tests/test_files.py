"""Tests for the JSON code descriptions and the array text format."""

import json
import random

import pytest

from gpcodes import cli, epc, gpc
from gpcodes.fields import GF, default_field
from gpcodes.files import (SpecFileError, array_to_text, field_from_json,
                           load_code_spec, parse_array_text, parse_code_spec,
                           read_array, read_symbols)
from gpcodes.gpc import SymbolArray, UncorrectableError, erase_positions
from test_cli_transcripts import BEYOND, SPECS


def test_field_json_roundtrip():
    for obj, f in (
            ({"w": 3, "modulus_hex": "b", "alpha": 2}, default_field(3)),
            ({"w": 8, "modulus_hex": "11d", "alpha": 2}, default_field(8)),
            ({"w": 10, "modulus_hex": "7ff", "alpha": 2}, GF.from_prime(11)),
            ({"w": 4, "modulus_hex": "1f", "alpha": 3},
             GF(4, 0b11111, alpha=3))):
        assert field_from_json(obj) == f


def test_field_json_defaults_and_errors():
    f = field_from_json({"w": 4})
    assert f == default_field(4)
    with pytest.raises(SpecFileError):
        field_from_json({})
    with pytest.raises(SpecFileError):
        field_from_json({"w": 4, "modulus_hex": "zz"})
    with pytest.raises(SpecFileError):
        field_from_json({"w": 4, "modulus_hex": "15"})   # reducible


def test_parse_gpc_spec():
    spec = parse_code_spec({"kind": "gpc", "m": 6, "n": 7, "k": 4,
                            "s": [2, 1, 3], "u": [1, 3, 4]})
    p = spec.params
    assert p.notation() == "C(7;4,(1,1,3,4,4,4))"
    assert p.field == default_field(3)       # smallest order covering 7
    assert spec.linear is None and spec.shape is None
    # explicit field wins
    spec = parse_code_spec({"kind": "gpc", "m": 6, "n": 7, "k": 4,
                            "s": [2, 1, 3], "u": [1, 3, 4],
                            "field": {"w": 8}})
    assert spec.params.field == default_field(8)


def test_parse_gpc_spec_errors():
    with pytest.raises(SpecFileError):
        parse_code_spec({"kind": "gpc", "m": 6, "n": 7})
    with pytest.raises(SpecFileError):
        parse_code_spec({"kind": "gpc", "m": 6, "n": 7, "k": 4,
                         "s": 2, "u": [1]})
    with pytest.raises(SpecFileError):
        parse_code_spec({"kind": "gpc", "m": 6, "n": 7, "k": "4",
                         "s": [6], "u": [1]})
    # structurally fine JSON but invalid code parameters
    with pytest.raises(SpecFileError):
        parse_code_spec({"kind": "gpc", "m": 6, "n": 7, "k": 3,
                         "s": [2, 1, 3], "u": [1, 3, 4]})


@pytest.mark.parametrize("change", [{"s": [2.0, 1, 3]}, {"u": [1, 3, 4.5]},
                                    {"u": [True, 3, 4]}, {"m": True}],
                         ids=["float_s", "float_u", "bool_u", "bool_m"])
def test_parse_gpc_spec_rejects_non_integers(change):
    with pytest.raises(SpecFileError, match="integer"):
        parse_code_spec({"kind": "gpc", "m": 6, "n": 7, "k": 4,
                         "s": [2, 1, 3], "u": [1, 3, 4], **change})


@pytest.mark.parametrize("field", [
    {"w": 8.7}, {"w": 8.0}, {"w": True}, {"w": "8"},
    {"w": 8, "alpha": 2.0}, {"w": 8, "alpha": True},
    {"w": 8, "modulus_hex": 285}, {"w": 8, "modulus_hex": None}],
    ids=["float_w", "integral_float_w", "bool_w", "string_w",
         "float_alpha", "bool_alpha", "int_modulus", "null_modulus"])
def test_parse_field_rejects_non_integers(field):
    with pytest.raises(SpecFileError, match="integer|string"):
        parse_code_spec({"kind": "epc-h2", "m": 3, "n": 3, "field": field})


def test_parse_epc_specs():
    g1 = parse_code_spec({"kind": "epc-g1", "m": 4, "v": 1, "n": 5, "h": 1})
    assert g1.params is not None
    assert str(g1.shape) == "EP(4,1;5,1;1)"
    h2 = parse_code_spec({"kind": "epc-h2", "m": 3, "n": 3})
    assert h2.linear is not None and h2.params is None
    assert h2.field == default_field(4)      # needs order >= 9
    assert str(h2.shape) == "EP(3,1;3,1;2)"
    h3 = parse_code_spec({"kind": "epc-h3", "m": 3, "n": 3,
                          "field": {"w": 10, "modulus_hex": "7ff",
                                    "alpha": 2}})
    assert h3.linear.check_matrix.rows == 9
    assert h3.field.w == 10
    for m, n in ((3, 3), (3, 4), (5, 2)):
        assert epc.build_h2(m, n).shape == epc.EpcShape(m, 1, n, 1, 2)
        assert epc.build_h3(m, n).shape == epc.EpcShape(m, 1, n, 1, 3)


def test_parse_spec_unknown_kind():
    with pytest.raises(SpecFileError):
        parse_code_spec({"kind": "rs"})
    with pytest.raises(SpecFileError):
        parse_code_spec({})
    with pytest.raises(SpecFileError):
        parse_code_spec([1, 2])
    with pytest.raises(SpecFileError):
        parse_code_spec({"kind": "epc-h2", "m": 3, "n": 3,
                         "field": {"w": 3}})  # alpha order 7 < 9


def test_load_and_dump_spec(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"kind": "epc-h2", "m": 3, "n": 3}))
    spec = load_code_spec(str(path))
    assert spec.kind == "epc-h2"
    assert json.loads(path.read_text())["m"] == 3
    with pytest.raises(SpecFileError):
        load_code_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_code_spec(str(bad))


def test_array_text_roundtrip(tmp_path):
    arr = SymbolArray([[10, 11, 12], [13, 14, 15]])
    arr.erase(0, 1)
    arr.erase(1, 2)
    text = array_to_text(arr, 4)
    assert text == "2 3 4\na ? c\nd e ?\n"
    back, w = parse_array_text(text)
    assert w == 4
    assert back == arr
    path = tmp_path / "arr.txt"
    path.write_text(text)
    again, w2 = read_array(str(path))
    assert again == arr and w2 == 4


def test_parse_array_text_errors():
    with pytest.raises(SpecFileError):
        parse_array_text("")
    with pytest.raises(SpecFileError):
        parse_array_text("2 3\n0 0 0\n0 0 0\n")       # short header
    with pytest.raises(SpecFileError):
        parse_array_text("2 3 x\n0 0 0\n0 0 0\n")
    with pytest.raises(SpecFileError):
        parse_array_text("2 3 4\n0 0 0\n")            # missing row
    with pytest.raises(SpecFileError):
        parse_array_text("1 3 4\n0 0\n")              # short row
    with pytest.raises(SpecFileError):
        parse_array_text("1 3 4\n0 0 g0\n")           # bad symbol
    with pytest.raises(SpecFileError):
        parse_array_text("1 3 3\n0 0 9\n")            # out of range for w=3
    # blank lines are tolerated
    arr, _ = parse_array_text("\n1 2 4\n\n1 ?\n\n")
    assert arr.values == [[1, 0]] and arr.erased[0][1]


@pytest.mark.parametrize("w", [-1, 0, 64, 10**12])
def test_parse_array_text_rejects_widths_outside_the_field_range(w):
    with pytest.raises(SpecFileError, match=rf"w={w} must be in \[1, 63\]"):
        parse_array_text(f"1 2 {w}\n0 ?\n")


@pytest.mark.parametrize("header", ["0 3 8", "-1 3 8", "2 0 8", "1 -2 8"])
def test_decode_refuses_an_array_header_of_no_cells(tmp_path, capsys, header):
    """A header whose m or n is below 1 is refused by its shape, before
    any row count: gpcodes decode exits 2."""
    m, n, _ = header.split()
    code, array = tmp_path / "code.json", tmp_path / "arr.txt"
    code.write_text(json.dumps(SPECS["gpc"]))
    array.write_text(header + "\n0 0 0\n")
    with pytest.raises(SpecFileError, match=f"array shape {m}x{n} must"):
        parse_array_text(array.read_text())
    assert cli.main(["decode", str(code), str(array)]) == 2
    assert f"array shape {m}x{n} must be at least 1x1" in \
        capsys.readouterr().err


def test_read_symbols(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("0 1 a\nf 7\n")
    assert read_symbols(str(path), 4) == [0, 1, 10, 15, 7]
    path.write_text("10")
    with pytest.raises(SpecFileError):
        read_symbols(str(path), 4)       # 0x10 too large for w=4
    path.write_text("zz")
    with pytest.raises(SpecFileError):
        read_symbols(str(path), 4)
    with pytest.raises(SpecFileError):
        read_symbols(str(tmp_path / "nope.txt"), 4)


# ------------------------------------------------------------------ codec

def _codec_case(kind, seed=27):
    """(spec, data, codeword array, the array with two cells erased)."""
    spec = parse_code_spec(SPECS[kind])
    rng = random.Random(seed)
    k = (spec.params.dimension() if spec.params is not None
         else spec.linear.dimension)
    data = [rng.randrange(1 << spec.field.w) for _ in range(k)]
    arr = spec.encode(data)
    cells = rng.sample([(r, c) for r in range(spec.m)
                        for c in range(spec.n)], 2)
    return spec, data, arr, erase_positions(arr, cells)


@pytest.mark.parametrize("kind", list(SPECS))
def test_codec_equals_the_library_calls_of_its_kind(kind):
    spec, data, arr, holes = _codec_case(kind)
    beyond = erase_positions(arr, BEYOND[kind])
    assert (arr.m, arr.n, arr.erasure_count) == (spec.m, spec.n, 0)
    assert spec.decode(holes) == arr
    if spec.params is not None:
        assert spec.field is spec.params.field
        assert arr == gpc.encode(data, spec.params)
        for damaged in (holes, beyond):
            assert spec.decode(damaged) == gpc.decode_iterative(
                damaged, spec.params)
        return
    assert spec.field is spec.linear.field
    assert arr.flatten() == epc.lc_encode(data, spec.linear)
    erased = {r * spec.n + c for r, c in holes.erased_positions()}
    assert spec.decode(holes).flatten() == epc.lc_erasure_decode(
        holes.flatten(), erased, spec.linear)


@pytest.mark.parametrize("kind", ["epc-h2", "epc-h3"])
def test_flat_codec_reports_unresolved_row_col_cells(kind):
    spec, _, arr, _ = _codec_case(kind)
    flipped = arr.copy()
    flipped.values[1][2] ^= 1
    cases = [(arr, BEYOND[kind], "span a dependent column set"),
             (flipped, [], "inconsistent"),
             (flipped, [(0, 0), (2, 1)], "inconsistent")]
    for word, cells, message in cases:
        with pytest.raises(UncorrectableError, match=message) as info:
            spec.decode(erase_positions(word, cells))
        assert info.value.remaining == frozenset(cells)


@pytest.mark.parametrize("kind, module, name", [
    ("gpc", gpc, "encode"), ("epc-g1", gpc, "decode_iterative"),
    ("epc-h2", epc, "lc_encode"), ("epc-h3", epc, "lc_erasure_decode")])
def test_codec_calls_the_library_through_module_attributes(
        monkeypatch, kind, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(name)
        return original(*args)
    monkeypatch.setattr(module, name, spy)
    spec, _, arr, holes = _codec_case(kind)
    assert spec.decode(holes) == arr
    assert calls == [name]


@pytest.mark.parametrize("kind", list(SPECS))
def test_codec_refuses_an_array_of_another_shape(kind):
    # A 3 x 4 codeword written back transposed, and the zero array, each
    # 4 x 3 with one cell erased: every kind refuses both before any
    # decode (a flat code would read the zero array as 3 x 4).
    extra = {"gpc": {"k": 2, "s": [3], "u": [1]}, "epc-g1": {"v": 1, "h": 1}}
    spec = parse_code_spec({"kind": kind, "m": 3, "n": 4,
                            **extra.get(kind, {})})
    k = (spec.params.dimension() if spec.params is not None
         else spec.linear.dimension)
    arr = spec.encode([(7 * i + 1) % (1 << spec.field.w) for i in range(k)])
    for wrong in (SymbolArray(zip(*arr.values)), SymbolArray.zeros(4, 3)):
        with pytest.raises(ValueError, match="array is 4x3, code expects 3x4"):
            spec.decode(erase_positions(wrong, [(1, 2)]))
