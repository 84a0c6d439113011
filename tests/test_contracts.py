"""The contract table: every public entry point that takes a count or a
position refuses a value it cannot define with ``ValueError``.

Each row names one argument, or one entry of a sequence argument, with a
call that takes it, the valid value the call accepts and an int outside
the argument's range.  The walk sends the call that int, a negative int,
the valid value as a float and as a string, and None; each must raise
``ValueError``, never ``TypeError`` from a comparison or an index.  A
count (a record's field, a field's width) refuses a bool as well, as spec
files do; a position accepts one as the int it is.  The gpc entry
points take a params record equal to a valid one that is cached before
the bad call, so a cached view refuses a float or bool count as a fresh
one does.

A second table names the other arguments of the same entry points (a
record's sequence or field, a cell's symbol) with a call, a valid value
and values the call must refuse with ``ValueError``, never ``TypeError``
or ``AttributeError``.
"""

from typing import Callable, NamedTuple

import pytest

from gpcodes.epc import (EpcShape, build_h2, build_h3, build_optimal_g1,
                         distance_bound, lc_erasure_decode)
from gpcodes.fields import (GF, default_field, field_with_order,
                            find_construction_prime, is_irreducible,
                            is_two_primitive, mp_polynomial)
from gpcodes.gpc import (GpcParams, SymbolArray, decode_rows, encode,
                         erase_positions, full_parity_matrix, is_member,
                         min_weight_codeword)
from gpcodes.oracle import (brute_min_distance, correctable,
                            decoder_oracle_equivalence)

F8 = default_field(3)
GF256 = default_field(8)

# the 6x7 flagship code: K = 19, d = 10
FLAGSHIP = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F8)
H = full_parity_matrix(FLAGSHIP)       # 42 columns
H2 = build_h2(3, 3)                    # words of 9 symbols


class Contract(NamedTuple):
    name: str
    call: Callable[[object], object]
    valid: int
    out_of_range: int | None    # None: no int outside the range exists
    count: bool = False         # refuses bools too
    none_ok: bool = False       # None selects a default


def params(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4)):
    return GpcParams(m=m, n=n, k=k, s=s, u=u, field=F8)


def shape(m=4, v=1, n=5, h=1, g=1):
    return EpcShape(m, v, n, h, g).check()


def fill(r=0, c=0, value=1):
    SymbolArray.zeros(6, 7).fill(r, c, value)


def erase(r=0, c=0):
    SymbolArray.zeros(6, 7).erase(r, c)


def weight(level=0, row=1, col=3):
    return min_weight_codeword(FLAGSHIP, level, [0, row, 3, 4, 5], [1, col])


CONTRACTS = (
    Contract("GpcParams m", lambda x: params(m=x).check(), 6, 7, count=True),
    Contract("GpcParams n", lambda x: params(n=x).check(), 7, 8, count=True),
    Contract("GpcParams k", lambda x: params(k=x).check(), 4, 7, count=True),
    Contract("GpcParams s[1]", lambda x: params(s=(2, x, 3)).check(), 1, 2,
             count=True),
    Contract("GpcParams u[1]", lambda x: params(u=(1, x, 4)).check(), 3, 7,
             count=True),
    Contract("EpcShape m", lambda x: shape(m=x), 4, 1, count=True),
    Contract("EpcShape v", lambda x: shape(v=x), 1, 4, count=True),
    Contract("EpcShape n", lambda x: shape(n=x), 5, 1, count=True),
    Contract("EpcShape h", lambda x: shape(h=x), 1, 5, count=True),
    Contract("EpcShape g", lambda x: shape(g=x), 1, None, count=True),
    Contract("distance_bound v",
             lambda x: distance_bound(EpcShape(4, x, 5, 1, 1)), 1, 4,
             count=True),
    Contract("distance_bound g",
             lambda x: distance_bound(EpcShape(4, 1, 5, 1, x)), 1, 100,
             count=True),
    Contract("build_optimal_g1 m", lambda x: build_optimal_g1(x, 1, 5, 1),
             4, 2, count=True),
    Contract("build_optimal_g1 v", lambda x: build_optimal_g1(4, x, 5, 1),
             1, 3, count=True),
    Contract("build_optimal_g1 n", lambda x: build_optimal_g1(4, 1, x, 1),
             5, 2, count=True),
    Contract("build_optimal_g1 h", lambda x: build_optimal_g1(4, 1, 5, x),
             1, 4, count=True),
    Contract("GF w", lambda x: GF(x), 8, 64, count=True),
    Contract("GF modulus", lambda x: GF(8, x), 0x11d, 1 << 9, count=True,
             none_ok=True),
    Contract("GF alpha", lambda x: GF(8, alpha=x), 2, 256, count=True),
    Contract("field_with_order min_order", field_with_order, 5, 1 << 17,
             count=True),
    Contract("GF.from_prime p", GF.from_prime, 5, 7, count=True),
    Contract("is_two_primitive p", is_two_primitive, 5, 15, count=True),
    Contract("mp_polynomial p", mp_polynomial, 5, 1, count=True),
    Contract("is_irreducible poly", is_irreducible, 0b1011, 1, count=True),
    Contract("find_construction_prime min_size", find_construction_prime, 4,
             None, count=True),
    Contract("build_h2 m", lambda x: build_h2(x, 3, GF256), 3, 10 ** 9,
             count=True),
    Contract("build_h2 n", lambda x: build_h2(3, x, GF256), 3, 10 ** 9,
             count=True),
    Contract("build_h3 m", lambda x: build_h3(x, 3, GF256), 3, 10 ** 9,
             count=True),
    Contract("min_weight_codeword level", lambda x: weight(level=x), 0, 3),
    Contract("min_weight_codeword rows[1]", lambda x: weight(row=x), 1, 6),
    Contract("min_weight_codeword cols[1]", lambda x: weight(col=x), 3, 7),
    Contract("correctable position", lambda x: correctable([0, x], H), 1, 42),
    Contract("brute_min_distance cap",
             lambda x: brute_min_distance(H2.check_matrix, x), 8, 0,
             count=True),
    Contract("brute_min_distance budget",
             lambda x: brute_min_distance(H2.check_matrix, 8, x), 511, None,
             count=True),
    Contract("decoder_oracle_equivalence trials",
             lambda x: decoder_oracle_equivalence(FLAGSHIP, x, 0), 1, None,
             count=True),
    Contract("erase_positions row",
             lambda x: erase_positions(SymbolArray.zeros(6, 7), [(x, 0)]),
             1, 6),
    Contract("erase_positions column",
             lambda x: erase_positions(SymbolArray.zeros(6, 7), [(0, x)]),
             1, 7),
    Contract("SymbolArray.fill row", lambda x: fill(r=x), 5, 6),
    Contract("SymbolArray.fill column", lambda x: fill(c=x), 6, 7),
    Contract("SymbolArray.erase row", lambda x: erase(r=x), 5, 6),
    Contract("SymbolArray.erase column", lambda x: erase(c=x), 6, 7),
    Contract("lc_erasure_decode position",
             lambda x: lc_erasure_decode([0] * 9, {0, x}, H2), 1, 9),
    Contract("encode n, view cached",
             lambda x: encode([0] * 19, params(n=x)), 7, 8, count=True),
    Contract("decode_rows s[1], view cached",
             lambda x: decode_rows(SymbolArray.zeros(6, 7),
                                   params(s=(2, x, 3))), 1, 2, count=True),
    Contract("is_member k, view cached",
             lambda x: is_member(SymbolArray.zeros(6, 7), params(k=x)),
             4, 7, count=True),
)


class Refusal(NamedTuple):
    name: str
    call: Callable[[object], object]
    valid: object
    bad: tuple                  # each must raise ValueError


REFUSALS = (
    Refusal("GpcParams s", lambda x: params(s=x).check(), (2, 1, 3),
            (3, None)),
    Refusal("GpcParams u", lambda x: params(u=x).check(), (1, 3, 4),
            (4, None)),
    Refusal("GpcParams field",
            lambda x: GpcParams(6, 7, 4, (2, 1, 3), (1, 3, 4), x).check(),
            F8, ("x", None, 3)),
    Refusal("min_weight_codeword rows",
            lambda x: min_weight_codeword(FLAGSHIP, 0, x, [1, 3]),
            [0, 1, 3, 4, 5], (None, 5)),
    Refusal("min_weight_codeword cols",
            lambda x: min_weight_codeword(FLAGSHIP, 0, [0, 1, 3, 4, 5], x),
            [1, 3], (None, 3)),
    Refusal("SymbolArray.fill value", lambda x: fill(value=x), 1,
            ("x", 2.5, -1, None)),
    Refusal("brute_min_distance check_matrix",
            lambda x: brute_min_distance(x, 8), H2.check_matrix,
            (None, [[1, 0], [0, 1]], H2)),
    Refusal("erase_positions position",
            lambda x: erase_positions(SymbolArray.zeros(6, 7), [x]), (1, 2),
            (5, None, (1, 2, 3))),
)


def bad_values(contract):
    """The values the contract's call must refuse."""
    out = [-1, float(contract.valid), str(contract.valid)]
    if contract.out_of_range is not None:
        out.append(contract.out_of_range)
    if not contract.none_ok:
        out.append(None)
    if contract.count:
        out.append(True)
    return out


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: c.name)
def test_each_bad_count_or_position_raises_value_error(contract):
    contract.call(contract.valid)
    for value in bad_values(contract):
        with pytest.raises(ValueError):
            contract.call(value)


@pytest.mark.parametrize("refusal", REFUSALS, ids=lambda r: r.name)
def test_each_bad_sequence_field_or_symbol_raises_value_error(refusal):
    refusal.call(refusal.valid)
    for value in refusal.bad:
        with pytest.raises(ValueError):
            refusal.call(value)


def test_a_position_takes_a_bool_as_its_int():
    assert correctable([0, True], H) == correctable([0, 1], H)
    assert erase_positions(SymbolArray.zeros(2, 2), [(True, False)]) == \
        erase_positions(SymbolArray.zeros(2, 2), [(1, 0)])


def test_a_cell_takes_a_bool_as_its_symbol():
    arr = SymbolArray.zeros(2, 2)
    arr.fill(0, 1, True)
    assert arr.values == [[0, 1], [0, 0]]
