"""Tests for extended-product shapes, bounds and the three constructions."""

import hashlib
import random

import pytest

from gpcodes import linalg
from gpcodes.epc import (EpcShape, LinearCode, build_h2, build_h3,
                         build_optimal_g1, check_condition_35, distance_bound,
                         lc_encode, lc_erasure_decode, lc_is_member)
from gpcodes.fields import GF, default_field
from gpcodes.gpc import (ContradictionError, GpcParams, UncorrectableError,
                         component_parity_check, full_parity_matrix)
from gpcodes.linalg import Matrix, NoSolutionError, rank
from gpcodes.oracle import brute_min_distance
from test_gpc import G16
from test_properties import low_rank_rows

F16 = default_field(4)


def test_shape_validation_and_str():
    shape = EpcShape(7, 2, 8, 3, 3)
    assert shape.violations() == []
    assert str(shape) == "EP(7,2;8,3;3)"
    assert EpcShape(3, 0, 3, 1, 0).violations()
    assert EpcShape(3, 3, 3, 1, 0).violations()
    assert EpcShape(3, 1, 3, 3, 0).violations()
    assert EpcShape(3, 1, 3, 1, -1).violations()
    with pytest.raises(ValueError):
        EpcShape(3, 3, 3, 1, 0).check()


def test_distance_bound_table():
    bound, table = distance_bound(EpcShape(7, 2, 8, 3, 3))
    assert bound == 20
    assert table == {1: 24, 2: 20, 3: 22, 4: 21}


def test_distance_bound_simple_cases():
    # one global parity on a single-parity product: the classic 6
    bound, table = distance_bound(EpcShape(4, 1, 5, 1, 1))
    assert bound == 6
    assert table == {1: 6, 2: 6}
    # no global parities: plain product distance
    bound, _ = distance_bound(EpcShape(4, 1, 5, 1, 0))
    assert bound == 4
    # narrow shape with just one admissible rectangle width
    bound, table = distance_bound(EpcShape(5, 1, 3, 2, 1))
    assert table == {1: 9} and bound == 9


def test_distance_bound_degenerate():
    # g+1 erasure columns cannot fit: m - v = 1 forces a >= 4 > n - h = 1
    with pytest.raises(ValueError):
        distance_bound(EpcShape(3, 2, 3, 2, 3))


# ------------------------------------------------------------ g = 1 codes

def test_build_optimal_g1_reference():
    p = build_optimal_g1(4, 1, 5, 1)
    assert (p.m, p.n, p.k) == (4, 5, 3)
    assert p.s == (2, 2) and p.u == (1, 2)
    assert p.min_distance() == 6
    assert p.dimension() == (4 - 1) * (5 - 1) - 1
    bound, _ = distance_bound(EpcShape(4, 1, 5, 1, 1))
    assert p.min_distance() == bound


def test_build_optimal_g1_grid():
    checked = 0
    for m in range(3, 8):
        for n in range(3, 8):
            for v in (1, 2):
                for h in (1, 2):
                    if m < v + 2 or h > n - 2:
                        continue
                    p = build_optimal_g1(m, v, n, h)
                    bound, _ = distance_bound(EpcShape(m, v, n, h, 1))
                    assert p.min_distance() == bound, (m, v, n, h)
                    assert p.dimension() == (m - v) * (n - h) - 1
                    checked += 1
    assert checked == 81


def test_build_optimal_g1_boundaries():
    with pytest.raises(ValueError):
        build_optimal_g1(3, 2, 5, 1)     # m < v + 2
    with pytest.raises(ValueError):
        build_optimal_g1(5, 1, 3, 2)     # h = n - 1: no second-level code
    with pytest.raises(ValueError):
        build_optimal_g1(4, 0, 5, 1)     # invalid shape
    # an explicit field is passed through
    p = build_optimal_g1(4, 1, 5, 1, field=F16)
    assert p.field is F16


# ------------------------------------------------------------ linear codes

def test_linear_code_positions():
    code = build_h2(3, 3)
    assert code.length == 9
    assert code.redundancy == 7          # m + n + 1
    assert code.dimension == 2
    parity = code.parity_positions()
    assert len(parity) == 7
    data = code.data_positions()
    assert len(data) == 2
    assert sorted(parity + data) == list(range(9))
    # chosen parity columns really are independent
    sub = code.check_matrix.submatrix(cols=list(parity))
    assert rank(sub) == 7


def greedy_parity_reference(code):
    # Scan right to left and keep column j only if the rank grows.
    h = code.check_matrix
    kept = []
    for j in range(code.length - 1, -1, -1):
        if rank(h.submatrix(cols=kept + [j])) > len(kept):
            kept.append(j)
    return tuple(sorted(kept))


def degenerate_code(field, rng):
    # A random check matrix of a random rank, with a zero column and a
    # repeated column.
    length = rng.randint(4, 12)
    data = low_rank_rows(field, rng, rng.randint(2, 6), length)
    zero, src, dst = rng.sample(range(length), 3)
    for row in data:
        row[zero] = 0
        row[dst] = row[src]
    return LinearCode(Matrix(field, data))


def test_parity_positions_match_greedy_rank_scan():
    codes = [build(m, n) for build in (build_h2, build_h3)
             for m in range(2, 7) for n in range(2, 7)]
    codes.append(build_h3(3, 4, GF.from_prime(13)))
    rng = random.Random(12)
    codes += [degenerate_code(field, rng) for field in
              (default_field(8), default_field(12)) for _ in range(20)]
    for code in codes:
        expected = greedy_parity_reference(code)
        assert code.parity_positions() == expected
        assert code.dimension == code.length - len(expected)


def test_build_h2_structure():
    m, n = 3, 4
    code = build_h2(m, n)
    h = code.check_matrix
    assert (h.rows, h.cols) == (m + n + 2, m * n)
    f = code.field
    for i in range(m):
        assert h.data[i] == [1 if j // n == i else 0 for j in range(m * n)]
    for j in range(n):
        assert h.data[m + j] == [1 if i % n == j else 0 for i in range(m * n)]
    assert h.data[m + n] == [f.alpha_pow(j) for j in range(m * n)]
    assert h.data[m + n + 1] == [f.alpha_pow(-j) for j in range(m * n)]
    # the row sums and column sums overlap in one constraint
    assert code.redundancy == m + n + 1


@pytest.mark.parametrize("m, n, field", [
    (2, 5, None), (4, 3, None), (3, 4, GF.from_prime(13)),
    (8, 8, default_field(8))])
def test_h2_and_h3_rows_are_product_checks_then_power_rows(m, n, field):
    h2 = build_h2(m, n, field).check_matrix.data
    code3 = build_h3(m, n, field)
    h3 = code3.check_matrix.data
    f = code3.field
    cells = [(i, j) for i in range(m) for j in range(n)]
    row_sums = [[int(i == r) for i, _ in cells] for r in range(m)]
    col_sums = [[int(j == c) for _, j in cells] for c in range(n)]
    powers = [[f.alpha_pow(step * x) for x in range(m * n)]
              for step in (1, -1, 2)]
    assert h2 == row_sums + col_sums + powers[:2]
    assert h3 == row_sums + col_sums + powers


@pytest.mark.parametrize("field", [default_field(4), default_field(5),
                                   default_field(8), default_field(10)],
                         ids=["w4", "w5", "w8", "w10"])
def test_grid_syndrome_equals_mul_vec(field):
    """The syndrome of build_h2's and build_h3's codes, for w <= 8 in
    grid form, is the check matrix times the word: on every shape with
    m, n in 2..9, 16 or 17 that the field allows, so that the folds of
    the array rows and of each row's bytes meet an odd count at every
    halving, and on 15 x 17, for random words and the all-zero and
    all-maximum ones."""
    rng = random.Random(field.w)
    top = 1 << field.w
    sizes = [*range(2, 10), 16, 17]
    shapes = [(m, n) for m in sizes for n in sizes] + [(15, 17)]
    built = 0
    for m, n in shapes:
        if field.alpha_order < m * n:
            continue
        for build in (build_h2, build_h3):
            code = build(m, n, field)
            h = code.check_matrix
            words = [[0] * code.length, [top - 1] * code.length]
            words += [[rng.randrange(top) for _ in range(code.length)]
                      for _ in range(4)]
            for word in words:
                assert code.syndrome(word) == h.mul_vec(word), (build, m, n)
            built += 1
    assert built == {4: 32, 5: 76, 8: 194, 10: 202}[field.w]


def test_build_h2_validation():
    with pytest.raises(ValueError):
        build_h2(1, 5)
    with pytest.raises(ValueError):
        build_h2(3, 3, default_field(3))     # order(alpha) = 7 < 9


def test_build_h3_adds_one_constraint():
    code2 = build_h2(3, 3)
    code3 = build_h3(3, 3)
    assert code3.check_matrix.rows == code2.check_matrix.rows + 1
    assert code3.check_matrix.data[:-1] == code2.check_matrix.data
    assert code3.check_matrix.data[8] == \
        [code3.field.alpha_pow(2 * j) for j in range(9)]
    assert code3.redundancy == code2.redundancy + 1


def test_h2_and_h3_check_matrices_and_errors_match_their_digest():
    # The SHA-256 of every check matrix, or error message, of build_h2
    # and build_h3 for m, n in 1..6 over the default field, GF(2^8) and
    # GF(2^10) with the all-ones modulus (order(alpha) = 11).
    digest = hashlib.sha256()
    for build in (build_h2, build_h3):
        for field in (None, GF(8), GF(10, 0x7ff)):
            for m in range(1, 7):
                for n in range(1, 7):
                    try:
                        out = build(m, n, field).check_matrix.data
                    except ValueError as exc:
                        out = str(exc)
                    digest.update(repr(out).encode())
    assert digest.hexdigest() == ("e18159c7d7b6c313f85939d0b5c9de96"
                                  "5bc7eef172557c7a9cce93fd1cc45787")


def test_condition_35_violated_on_small_field():
    # the default field for a 3x3 array is GF(2^4); the quadruple test
    # fails there, and the first failure in scan order is pinned
    hit = check_condition_35(3, 3, F16)
    assert hit == (1, 2, 2, -2)
    i1, i2, j1, j2 = hit
    f = F16
    acc = 1 ^ f.alpha_pow(-j1)
    acc ^= f.alpha_pow(-i2 * 3 + j2)
    acc ^= f.alpha_pow(-(i2 - i1) * 3 + j2)
    assert acc == 0


def test_condition_35_holds_on_prime_order_fields():
    assert check_condition_35(3, 3, GF.from_prime(11)) is None
    assert check_condition_35(3, 4, GF.from_prime(13)) is None


def test_h2_and_h3_reach_their_distance_over_a_field_without_tables():
    # GF.from_prime(19) has w = 18, past the exp/log tables
    f = GF.from_prime(19)
    assert check_condition_35(3, 4, f) is None
    for build, d in ((build_h2, 8), (build_h3, 9)):
        report = brute_min_distance(build(3, 4, f).check_matrix, cap=d)
        assert report.distance == d


@pytest.mark.parametrize("field", [default_field(4), default_field(5),
                                   default_field(8), GF.from_prime(19)],
                         ids=["w4", "w5", "w8", "p19"])
def test_h3_with_two_rows_or_two_columns_reaches_its_bound_of_10(field):
    # Only a = 4 (two rows) or a = 1 (two columns) is admissible, and
    # each gives 10: one more than the 9 of a = 2.
    for m, n in ((2, 5), (5, 2), (2, 6), (6, 2)):
        bound, _ = distance_bound(EpcShape(m, 1, n, 1, 3))
        h = build_h3(m, n, field).check_matrix
        assert bound == brute_min_distance(h, cap=10).distance == 10


def test_shapes_without_a_bound_are_those_with_no_data_symbols():
    none = set()
    for build, g in ((build_h2, 2), (build_h3, 3)):
        for m in range(2, 12):
            for n in range(2, 12):
                try:
                    distance_bound(EpcShape(m, 1, n, 1, g))
                except ValueError:
                    none.add((g, m, n))
                assert (build(m, n).dimension == 0) == ((g, m, n) in none)
    assert none == {(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 2, 3),
                    (3, 2, 4), (3, 3, 2), (3, 4, 2)}


def _generic_code(shape, field, rng):
    # EP(m, v; n, h; g) with random global rows: the checks of the t = 1
    # gpc product code (v vertical, h horizontal parities), then g rows
    # of nonzero random symbols.
    m, v, n, h, g = shape
    product = full_parity_matrix(
        GpcParams(m, n, k=m - v, s=(m,), u=(h,), field=field))
    top = 1 << field.w
    return Matrix(field, product.data + [
        [rng.randrange(1, top) for _ in range(m * n)] for _ in range(g)])


@pytest.mark.parametrize("v, h", [(1, 2), (2, 1), (2, 2)])
def test_generic_codes_meet_the_distance_bound(v, h):
    # where no construction pins the bound: v or h is 2, g = 1, 2, 3;
    # 4 x 5 and 5 x 4 draw one seed each, as their searches are longer
    field = default_field(16)
    for m, n, seeds in ((4, 4, (0, 1)), (4, 5, (0,)), (5, 4, (0,))):
        for g in (1, 2, 3):
            shape = EpcShape(m, v, n, h, g)
            bound, _ = distance_bound(shape)
            for seed in seeds:
                h_matrix = _generic_code(shape, field, random.Random(seed))
                report = brute_min_distance(h_matrix, cap=bound)
                assert report.distance == bound, (str(shape), seed)


@pytest.mark.parametrize("w", [3, 4, 8, 10])
def test_lc_is_member_rejects_symbols_out_of_field(w):
    field = default_field(w)
    code = build_h2(2, 3, field)
    word = lc_encode([1] * code.dimension, code)
    assert lc_is_member(word, code)
    for bad in (1 << w, 256, -1):
        if 0 <= bad < 1 << w:
            continue
        for pos in (0, code.length - 1):
            damaged = word[:]
            damaged[pos] = bad
            with pytest.raises(ValueError, match="symbol out of field range"):
                lc_is_member(damaged, code)


def test_lc_encode_roundtrip():
    rng = random.Random(61)
    code = build_h2(3, 3)
    for _ in range(20):
        data = [rng.randrange(16) for _ in range(code.dimension)]
        word = lc_encode(data, code)
        assert lc_is_member(word, code)
        assert [word[j] for j in code.data_positions()] == data
    with pytest.raises(ValueError):
        lc_encode([0] * 5, code)


@pytest.mark.parametrize("w", [4, 8, 10])
def test_lc_encode_fills_any_check_matrix_without_raising(w):
    # The parity positions are a column basis of the check matrix, so
    # their fill has one solution and zero residual rows: on random and
    # rank-deficient check matrices, and on gpc parity-check matrices,
    # whose rows are dependent.
    field = default_field(w)
    rng = random.Random(w)
    codes = [degenerate_code(field, rng) for _ in range(10)]
    codes += [LinearCode(Matrix(field, low_rank_rows(
        field, rng, rng.randint(2, 8), rng.randint(4, 12))))
        for _ in range(10)]
    grids = [GpcParams(m, n, k, s, u, field) for m, n, k, s, u in (
        (6, 7, 4, (2, 1, 3), (1, 3, 4)), (4, 5, 3, (2, 2), (1, 2)),
        (4, 5, 3, (4,), (2,)))]
    codes += [LinearCode(full_parity_matrix(p)) for p in grids]
    assert any(code.redundancy < code.check_matrix.rows for code in codes)
    for code in codes:
        for _ in range(3):      # w <= 8: the second compiles a plan
            data = [rng.randrange(1 << w) for _ in range(code.dimension)]
            word = lc_encode(data, code)
            assert lc_is_member(word, code)
            assert [word[j] for j in code.data_positions()] == data


def _scalar(code):
    """A fresh copy of ``code``: its first decode of any pattern is the
    scalar syndrome solve, the reference every plan must equal."""
    return LinearCode(code.check_matrix)


def _scalar_encode(data, code):
    word = [0] * code.length
    for pos, sym in zip(code.data_positions(), data):
        word[pos] = sym
    return lc_erasure_decode(word, set(code.parity_positions()), _scalar(code))


def _compile_on_next_use(code, cols):
    """A slot for the pattern ``cols`` that has counted one use, so the
    next one compiles."""
    slot = linalg.PlanSlot()
    slot.uses = 1
    code._plans[tuple(sorted(cols))] = slot
    return slot


def _no_scalar_solve(monkeypatch):
    """From here on every decode and encode must come from a plan."""
    def forbidden(*args):
        raise AssertionError("scalar solve on a compiled pattern")
    monkeypatch.setattr(linalg, "solve", forbidden)


@pytest.mark.parametrize("data", [[-1, 1], [20, 1]],
                         ids=["negative", "past_field"])
def test_lc_encode_rejects_symbols_out_of_field(data):
    code = build_h2(3, 3)          # over GF(2^4)
    with pytest.raises(ValueError, match="out of field range"):
        lc_encode(data, code)
    for _ in range(code.redundancy + 1):
        lc_encode([1, 2], code)
    assert code._plans[code.parity_positions()].map is not None
    with pytest.raises(ValueError, match="out of field range"):
        lc_encode(data, code)


@pytest.mark.parametrize("bad", [-1, 20, 300])
def test_lc_erasure_decode_rejects_survivors_out_of_field(bad):
    peeled = build_h2(3, 3)        # over GF(2^4)
    code = _scalar(peeled)         # the generic fill, which has plans
    word = lc_encode([3, 9], code)
    erased = {0, 4}
    damaged = [0 if j in erased else v for j, v in enumerate(word)]
    corrupt = list(damaged)
    corrupt[8] = bad
    for c in (peeled, code):
        with pytest.raises(ValueError, match="out of field range"):
            lc_erasure_decode(corrupt, erased, c)
    for _ in range(len(erased) + 1):
        assert lc_erasure_decode(list(damaged), erased, code) == word
    assert code._plans[(0, 4)].map is not None
    with pytest.raises(ValueError, match="out of field range"):
        lc_erasure_decode(corrupt, erased, code)
    # the symbols at erased positions are ignored, as before
    for c in (peeled, code):
        assert lc_erasure_decode([bad if j in erased else v
                                  for j, v in enumerate(word)],
                                 erased, c) == word


def test_lc_erasure_decode_rejects_positions_out_of_range():
    code = build_h2(3, 3)
    word = lc_encode([3, 9], code)
    for erased in ({-1}, {9}, {0, 9}, {1.0}, {"1"}, {None}, {0, "1"}):
        with pytest.raises(ValueError, match="erased position out of range"):
            lc_erasure_decode(word, erased, code)


def _stripes(code, rng):
    top = (1 << code.field.w) - 1
    k = code.dimension
    return [[rng.randrange(top + 1) for _ in range(k)] for _ in range(3)] + \
        [[0] * k, [top] * k]


def _compile_on_next_encode(code):
    return _compile_on_next_use(code, code.parity_positions())


@pytest.mark.parametrize("build", [lambda: build_h2(15, 17),
                                   lambda: build_h2(3, 3),
                                   lambda: build_h3(3, 4)],
                         ids=["H2(15,17)", "h2(3,3)", "h3(3,4)"])
def test_compiled_lc_encode_matches_scalar(build, monkeypatch):
    code = build()
    cases = [(data, _scalar_encode(data, code))
             for data in _stripes(code, random.Random(75))]
    slot = _compile_on_next_encode(code)
    lc_encode(cases[0][0], code)
    assert slot.map is not None
    _no_scalar_solve(monkeypatch)
    for data, expected in cases:
        assert lc_encode(data, code) == expected


def test_lc_encoder_compiles_on_the_second_encode():
    code = build_h3(3, 4)
    for data in _stripes(code, random.Random(78)) * 2:
        assert lc_encode(data, code) == _scalar_encode(data, code)
        # one scalar encode, then one that compiles and applies the plan
        slot = code._plans[code.parity_positions()]
        assert (slot.map is None) == (slot.uses == 1)
    assert slot.map is not None and slot.uses == 2


def test_wide_field_lc_encode_stays_scalar():
    code = build_h3(3, 3, GF.from_prime(11))        # w = 10
    slot = _compile_on_next_encode(code)
    for data in _stripes(code, random.Random(76)):
        assert lc_encode(data, code) == _scalar_encode(data, code)
    assert slot.map is None


def test_oversized_lc_encoder_is_not_compiled(monkeypatch):
    code = build_h2(3, 3)
    rows = code.check_matrix.rows
    # a plan's held bytes, bounded: it reads the r check symbols, and
    # each plan holds its objects and its slot's key
    charge = rows * (rows + 64) + 256
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", charge - 1)
    slot = _compile_on_next_encode(code)
    for data in _stripes(code, random.Random(77)):
        assert lc_encode(data, code) == _scalar_encode(data, code)
    assert slot.map is None
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", charge)
    slot = _compile_on_next_encode(code)
    lc_encode([0] * code.dimension, code)
    assert [len(col) for col in slot.map.columns] == [rows] * rows


def _decode_outcome(values, erased, code):
    """The decoded word, or the error's class, message and cells."""
    try:
        return lc_erasure_decode(list(values), erased, code)
    except UncorrectableError as exc:
        return type(exc), str(exc), exc.remaining


def test_erasure_plan_matches_the_solve_on_h2_15_17(monkeypatch):
    """The archive pattern and its variants, through the public path of
    the generic fill; the peel of build_h2's code gives the same."""
    peeled = build_h2(15, 17)
    code = _scalar(peeled)
    rng = random.Random(79)
    word = lc_encode([rng.randrange(256) for _ in range(code.dimension)], code)
    column = {i * 17 + 5 for i in range(15)}
    cases = []
    square = {i * 17 + j for i in range(3) for j in range(3)}
    for erased in (column | {3, 40}, column | square):
        damaged = [0 if j in erased else v for j, v in enumerate(word)]
        flipped = list(damaged)
        flipped[next(j for j in range(code.length) if j not in erased)] ^= 7
        for values in (damaged, flipped):
            cases.append((values, erased,
                          _decode_outcome(values, erased, _scalar(code))))
    # the second pattern is dependent: a 3 x 3 square holds codewords
    assert cases[0][2] == word and cases[1][2][0] is ContradictionError
    assert "dependent" in cases[2][2][1] and "inconsistent" in cases[3][2][1]
    for values, erased, expected in cases:
        assert _decode_outcome(values, erased, peeled) == expected
        _compile_on_next_use(code, erased)
        assert _decode_outcome(values, erased, code) == expected
    assert code._plans[tuple(sorted(cases[0][1]))].map is not None
    assert code._plans[tuple(sorted(cases[2][1]))].map is None
    _no_scalar_solve(monkeypatch)
    for values, erased, expected in cases[:2]:
        assert _decode_outcome(values, erased, code) == expected


def _rectangle(n, rows, cols):
    """The cells of ``rows`` x ``cols`` in an array of n columns,
    flattened row by row."""
    return frozenset(r * n + c for r in rows for c in cols)


def _g16_level(level):
    return LinearCode(component_parity_check(G16, level))


@pytest.mark.parametrize("build, erased", [
    (lambda: build_h2(15, 17), _rectangle(17, (3, 14), (2, 7))),
    (lambda: build_h2(15, 17), _rectangle(17, (0, 9), (4, 5, 16))),
    (lambda: build_h3(5, 6), _rectangle(6, (1, 3), (0, 2, 5))),
    (lambda: _g16_level(0), frozenset({11})),
    (lambda: _g16_level(1), frozenset({0, 17, 29})),
    (lambda: _g16_level(2), frozenset({2, 3, 5, 8, 13, 21}))],
    ids=["H2(15,17)/2x2", "H2(15,17)/2x3", "h3(5,6)/2x3",
         "G16_level_0/1", "G16_level_1/3", "G16_level_2/6"])
def test_compiled_residual_plans_match_the_solve(build, erased, monkeypatch):
    """A rectangle is a stopping set of the peel, so it reaches the fill
    whole; a G16 level code fills at once.  The compiled plan, which
    reads the syndrome (in grid form on build_h2's and build_h3's
    codes), gives the scalar solve's codeword and, with one flipped
    survivor, its error, message and cells included, and leaves the word
    as it was, on single words and on blocks of words side by side."""
    code = build()
    rng = random.Random(83)
    top = 1 << code.field.w
    words = [lc_encode([rng.randrange(top) for _ in range(code.dimension)],
                       code) for _ in range(3)]
    word = words[0]
    key = tuple(sorted(erased))
    damaged = [0 if j in erased else v for j, v in enumerate(word)]
    flips = []
    for j in rng.sample(sorted(set(range(code.length)) - erased), 4):
        flips.append(list(damaged))
        flips[-1][j] ^= rng.randrange(1, top)
    cases = [(values, _decode_outcome(values, erased, _scalar(code)))
             for values in (damaged, *flips)]
    assert cases[0][1] == word
    assert all(outcome[0] is ContradictionError for _, outcome in cases[1:])
    _compile_on_next_use(code, erased)
    assert lc_erasure_decode(damaged, erased, code) == word
    assert code._plans[key].map is not None
    _no_scalar_solve(monkeypatch)
    for values, outcome in cases:
        assert _decode_outcome(values, erased, code) == outcome
    for bad in flips:
        before = list(bad)
        with pytest.raises(NoSolutionError):
            code.fill(bad, key)
        assert bad == before
    block = [[0 if j in erased else v for j, v in enumerate(w)]
             for w in words]
    packed = linalg.pack_blocks(block)
    code.fill(packed, key, len(words))
    assert packed == linalg.pack_blocks(words)
    for i, bad in enumerate(flips[:len(words)]):
        block[i], good = bad, block[i]
        packed = linalg.pack_blocks(block)
        before = list(packed)
        with pytest.raises(NoSolutionError):
            code.fill(packed, key, len(words))
        assert packed == before
        block[i] = good


def test_plan_slots_are_bounded_and_unique_patterns_never_compile(
        monkeypatch):
    code = _scalar(build_h2(3, 3))
    # a budget of four plans
    monkeypatch.setattr(linalg, "_PLAN_BUDGET", 4 * code._plan_bytes)
    word = lc_encode([3, 9], code)
    patterns = [frozenset({a, b}) for a in range(9) for b in range(a + 1, 9)]
    for erased in patterns:
        assert lc_erasure_decode(list(word), erased, code) == word
        assert len(code._plans) <= 4
    assert all(slot.map is None for slot in code._plans.values())
    # the newest slots are kept, the oldest went first
    assert list(code._plans) == [tuple(sorted(e)) for e in patterns[-4:]]
    lc_erasure_decode(list(word), patterns[-1], code)    # its second use
    assert code._plans[tuple(sorted(patterns[-1]))].map is not None


def test_plan_in_use_outlives_unique_patterns(monkeypatch):
    """Decodes of more unique patterns than the plan budget holds,
    interleaved with encodes, leave the parity pattern's compiled plan in
    place."""
    code = build_h2(3, 3)
    monkeypatch.setattr(linalg, "_PLAN_BUDGET", 16 * code._plan_bytes)
    for _ in range(2):
        word = lc_encode([3, 9], code)
    slot = code._plans[code.parity_positions()]
    assert slot.map is not None
    patterns = [{a, b} for a in range(9) for b in range(a + 1, 9)]
    assert len(patterns) > 16
    for erased in patterns:
        assert lc_erasure_decode(list(word), erased, code) == word
        assert lc_encode([3, 9], code) == word
    assert code._plans[code.parity_positions()] is slot


def test_lc_erasure_decode_small_patterns():
    """Every erasure pattern strictly below the distance comes back."""
    rng = random.Random(67)
    code = build_h2(3, 3)
    word = lc_encode([rng.randrange(16) for _ in range(code.dimension)], code)
    # exhaustive at weights 1 and 2, sampled at the maximum weight 7
    for a in range(9):
        assert lc_erasure_decode(list(word), {a}, code) == word
        for b in range(a + 1, 9):
            assert lc_erasure_decode(list(word), {a, b}, code) == word
    # a position named twice, in a list or as a bool alias, is erased once,
    # by the peel and by the plain fill
    for erased in ([0, 0], {True, 1}):
        for c in (code, _scalar(code)):
            assert lc_erasure_decode(list(word), erased, c) == word
    for _ in range(15):
        pattern = set(rng.sample(range(9), 7))
        assert lc_erasure_decode(list(word), pattern, code) == word


def test_lc_erasure_decode_uncorrectable():
    code = build_h2(3, 3)
    word = lc_encode([3, 7], code)
    # eight erasures exceed the redundancy: columns must go dependent
    pattern = set(range(8))
    with pytest.raises(UncorrectableError) as exc_info:
        lc_erasure_decode(list(word), pattern, code)
    assert exc_info.value.remaining == frozenset(pattern)


def test_lc_erasure_decode_inconsistent_known_symbols():
    code = build_h2(3, 3)
    word = lc_encode([3, 7], code)
    word[5] ^= 1      # corrupt a known symbol, then ask for position 0
    with pytest.raises(UncorrectableError):
        lc_erasure_decode(word, {0}, code)


def test_lc_erasure_decode_inconsistent_survivors_report_remaining():
    code = build_h2(3, 3)
    word = lc_encode([11, 6], code)
    word[4] ^= 1
    with pytest.raises(UncorrectableError, match="inconsistent") as exc_info:
        lc_erasure_decode(word, {0, 8}, code)
    assert exc_info.value.remaining == frozenset({0, 8})


def _flipped_survivor_cases(code):
    """Twelve seeded patterns of 1 to 6 erasures on a codeword of
    ``code``, each with its damaged word and that word with one survivor
    flipped: with |E| + 1 < d = 8 the flip always contradicts the code."""
    rng = random.Random(223)
    word = lc_encode([rng.randrange(256) for _ in range(code.dimension)],
                     code)
    for _ in range(12):
        erased = frozenset(rng.sample(range(code.length), rng.randint(1, 6)))
        damaged = [0 if j in erased else v for j, v in enumerate(word)]
        bad = list(damaged)
        j = rng.choice([j for j in range(code.length) if j not in erased])
        bad[j] ^= rng.randrange(1, 256)
        yield word, erased, damaged, bad


def test_flipped_survivor_raises_through_the_solve_on_h2():
    """Patterns on their first decode, so the scalar solve of the
    compiled syndrome runs: one flipped survivor with |E| + 1 < d = 8
    always contradicts the code."""
    code = _scalar(build_h2(15, 17))
    for word, erased, damaged, bad in _flipped_survivor_cases(code):
        assert tuple(sorted(erased)) not in code._plans
        with pytest.raises(UncorrectableError, match="inconsistent") as exc:
            lc_erasure_decode(bad, erased, code)
        assert exc.value.remaining == erased
        assert code._plans[tuple(sorted(erased))].map is None
        assert lc_erasure_decode(damaged, erased, code) == word


@pytest.mark.parametrize("build", [build_h2, build_h3], ids=["h2", "h3"])
def test_flipped_survivor_raises_through_the_peel(build):
    """Such patterns peel fully on build_h2's and build_h3's codes: the
    syndrome the peel tracks finds the flip, every power row included,
    and no pattern reaches the plan cache."""
    code = build(15, 17)
    for word, erased, damaged, bad in _flipped_survivor_cases(code):
        with pytest.raises(UncorrectableError, match="inconsistent") as exc:
            lc_erasure_decode(bad, erased, code)
        assert exc.value.remaining == erased
        assert lc_erasure_decode(damaged, erased, code) == word
    assert list(code._plans) == [code.parity_positions()]


def test_a_fully_peeled_decode_adds_no_plan_slot():
    """Only a stopping set, here a 2 x 2 rectangle that no row or column
    sum can start on, hands its cells to the fill and takes a slot."""
    code = build_h2(15, 17)
    rng = random.Random(41)
    word = lc_encode([rng.randrange(256) for _ in range(code.dimension)],
                     code)
    before = list(code._plans)
    column = {i * 17 + 5 for i in range(15)}
    for erased in (column | {3, 40}, set(), {0, 18, 254}):
        damaged = [0 if j in erased else v for j, v in enumerate(word)]
        for _ in range(2):
            assert lc_erasure_decode(list(damaged), erased, code) == word
        damaged[1 if 1 not in erased else 2] ^= 9
        with pytest.raises(UncorrectableError, match="inconsistent"):
            lc_erasure_decode(damaged, erased, code)
    assert list(code._plans) == before
    rectangle = {20, 22, 54, 56}
    damaged = [0 if j in rectangle else v for j, v in enumerate(word)]
    assert lc_erasure_decode(damaged, rectangle, code) == word
    assert list(code._plans) == before + [tuple(sorted(rectangle))]


@pytest.mark.parametrize("build", [build_h2, build_h3], ids=["h2", "h3"])
def test_a_stopping_set_solves_from_the_syndrome_the_peel_tracked(
        build, monkeypatch):
    """A 2 x 2 rectangle peels nothing: its fill starts from the
    syndrome the peel took, so each decode takes the syndrome once, on
    the scalar solve, on the compiled plan and on a flipped survivor."""
    code = build(15, 17)
    rng = random.Random(43)
    word = lc_encode([rng.randrange(256) for _ in range(code.dimension)],
                     code)
    calls = []
    syndrome = code.syndrome
    monkeypatch.setattr(code, "syndrome",
                        lambda w, block=1: calls.append(block)
                        or syndrome(w, block))
    rectangle = {20, 22, 54, 56}
    damaged = [0 if j in rectangle else v for j, v in enumerate(word)]
    for _ in range(2):
        calls.clear()
        assert lc_erasure_decode(damaged, rectangle, code) == word
        assert calls == [1]
    assert code._plans[tuple(sorted(rectangle))].map is not None
    damaged[0] ^= 1
    calls.clear()
    with pytest.raises(ContradictionError) as exc:
        lc_erasure_decode(damaged, rectangle, code)
    assert calls == [1] and exc.value.remaining == rectangle


def test_lc_erasure_decode_word_length():
    code = build_h2(3, 3)
    with pytest.raises(ValueError):
        lc_erasure_decode([0] * 8, {1}, code)
    # no erasures: a codeword comes back as it is
    assert lc_erasure_decode([0] * 9, set(), code) == [0] * 9


@pytest.mark.parametrize("build", [
    lambda: build_h2(3, 3),
    lambda: build_h3(3, 3, GF(10, 0x7ff)),     # the README's epc-h3 field
    lambda: build_h2(15, 17)], ids=["h2(3,3)", "h3(3,3)/w10", "h2(15,17)"])
def test_lc_erasure_decode_checks_words_with_no_erasures(build):
    code = build()
    rng = random.Random(191)
    word = lc_encode([rng.randrange(1 << code.field.w)
                      for _ in range(code.dimension)], code)
    assert lc_erasure_decode(word, set(), code) == word
    for _ in range(3):
        bad = list(word)
        bad[rng.randrange(code.length)] ^= 1
        with pytest.raises(UncorrectableError, match="inconsistent") as exc:
            lc_erasure_decode(bad, set(), code)
        assert exc.value.remaining == frozenset()


def test_a_flat_decode_reads_its_survivors_as_their_check_built_them(
        monkeypatch):
    """lc_erasure_decode on build_h2's code converts its survivors once:
    the grid syndrome reads the bytearray that GF.check_symbols built to
    validate them."""
    code = build_h2(15, 17)
    word = lc_encode(list(range(code.dimension)), code)
    erased = {0, 1, 17, 40}
    damaged = [0 if j in erased else v for j, v in enumerate(word)]
    checked, read = [], []
    check, syndrome = GF.check_symbols, type(code).syndrome

    def recording_check(self, values, what):
        checked.append(check(self, values, what))
        return checked[-1]

    def recording_syndrome(self, symbols, block=1):
        read.append(symbols)
        return syndrome(self, symbols, block)

    monkeypatch.setattr(GF, "check_symbols", recording_check)
    monkeypatch.setattr(type(code), "syndrome", recording_syndrome)
    assert lc_erasure_decode(damaged, erased, code) == word
    assert len(checked) == len(read) == 1 and read[0] is checked[0]
    assert type(read[0]) is bytearray
