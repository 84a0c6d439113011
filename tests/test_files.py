"""Tests for the JSON code descriptions and the array text format."""

import json

import pytest

from gpcodes.fields import GF, default_field
from gpcodes.files import (SpecFileError, array_to_text, field_from_json,
                           field_to_json, load_code_spec, parse_array_text,
                           parse_code_spec, read_array, read_symbols)
from gpcodes.gpc import SymbolArray


def test_field_json_roundtrip():
    for f in (default_field(3), default_field(8), GF.from_prime(11),
              GF(4, 0b11111, alpha=3)):
        obj = field_to_json(f)
        assert field_from_json(obj) == f
    assert field_to_json(default_field(3)) == \
        {"w": 3, "modulus_hex": "b", "alpha": 2}


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


def test_parse_epc_specs():
    g1 = parse_code_spec({"kind": "epc-g1", "m": 4, "v": 1, "n": 5, "h": 1})
    assert g1.params is not None
    assert str(g1.shape) == "EP(4,1;5,1;1)"
    h2 = parse_code_spec({"kind": "epc-h2", "m": 3, "n": 3})
    assert h2.linear is not None and h2.params is None
    assert h2.field == default_field(4)      # needs order >= 9
    assert str(h2.shape) == "EP(3,1;3,1;2)"
    h3 = parse_code_spec({"kind": "epc-h3", "m": 3, "n": 3,
                          "field": field_to_json(GF.from_prime(11))})
    assert h3.linear.check_matrix.rows == 9
    assert h3.field.w == 10


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
