"""Tests for array-code parameters, membership, encoding and decoding."""

import random

import pytest

from gpcodes import gpc, linalg
from gpcodes.epc import LinearCode
from gpcodes.fields import GF, default_field
from gpcodes.gpc import (DecodeTrace, ErasureProfile, GpcParams, SymbolArray,
                         UncorrectableError, component_parity_check,
                         decodable_profile, decode_iterative, decode_rows,
                         encode, erase_positions, full_parity_matrix,
                         is_member, min_weight_codeword)
from gpcodes.linalg import Matrix, rank, row_reduce
from gpcodes.oracle import random_decodable_pattern
from test_acceptance import _small_param_grid

F8 = default_field(3)
F16 = default_field(4)

# the 3-level 6x7 workhorse used across the suite: K = 19, d = 10
FLAGSHIP = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F8)

# 2-level 4x5 code: product code plus one global parity, d = 6
PLUS_ONE = GpcParams(m=4, n=5, k=3, s=(2, 2), u=(1, 2), field=F8)

# plain product code ([5,3] rows x [4,3] columns)
PRODUCT = GpcParams(m=4, n=5, k=3, s=(4,), u=(2,), field=F8)

# the 16x30 GF(2^8) storage code C(30;14,...) of the benchmark
G16 = GpcParams(m=16, n=30, k=14, s=(8, 4, 4), u=(2, 4, 8),
                field=default_field(8))

# k = m: no vanishing row combinations, so level t owns no rows
K_EQ_M = GpcParams(m=4, n=6, k=4, s=(2, 2), u=(1, 2), field=F8)


def rand_codeword(params, rng):
    data = [rng.randrange(1 << params.field.w)
            for _ in range(params.dimension())]
    return encode(data, params)


def xor_arrays(a, b):
    return SymbolArray([[x ^ y for x, y in zip(ra, rb)]
                        for ra, rb in zip(a.values, b.values)])


def scale_array(a, factor, field):
    return SymbolArray([[field.mul(factor, x) for x in row]
                        for row in a.values])


# ---------------------------------------------------------------- parameters

def test_parameter_validation():
    f = F8
    # reference set is fine
    assert FLAGSHIP.violations() == []
    assert FLAGSHIP.check() is FLAGSHIP
    # multiplicities must sum to m
    assert GpcParams(6, 7, 4, (2, 1, 2), (1, 3, 4), f).violations()
    # strengths strictly increasing and within [1, n-1]
    assert GpcParams(6, 7, 4, (2, 1, 3), (1, 4, 4), f).violations()
    assert GpcParams(6, 7, 4, (2, 1, 3), (0, 3, 4), f).violations()
    assert GpcParams(6, 7, 4, (2, 1, 3), (1, 3, 7), f).violations()
    # the m - k window is strict on the right
    assert GpcParams(6, 7, 3, (2, 1, 3), (1, 3, 4), f).violations()
    assert GpcParams(6, 7, 7, (2, 1, 3), (1, 3, 4), f).violations()
    with pytest.raises(ValueError):
        GpcParams(6, 7, 3, (2, 1, 3), (1, 3, 4), f).check()


def test_field_size_requirements():
    # GF(8) is too small for an 8-column code (need order >= 8)...
    p = GpcParams(4, 8, 3, (4,), (2,), F8)
    assert any("field size" in v for v in p.violations())
    # ...GF(16) works
    assert GpcParams(4, 8, 3, (4,), (2,), F16).violations() == []
    # alpha of low multiplicative order is rejected even if the field fits:
    # in GF(16) with the all-ones modulus x has order 5 < 6 = max(m, n)
    low = GF(4, modulus=0b11111)
    assert low.alpha_order == 5
    p = GpcParams(4, 6, 3, (4,), (2,), low)
    assert any("order(alpha)" in v for v in p.violations())
    assert GpcParams(4, 5, 3, (4,), (2,), low).violations() == []


def test_sentinels_and_expansion():
    p = FLAGSHIP
    assert p.t == 3
    assert [p.s_hat(i) for i in range(4)] == [6, 4, 3, 2]
    assert p.u_at(3) == 7
    assert p.expanded_u() == (1, 1, 3, 4, 4, 4)
    assert p.notation() == "C(7;4,(1,1,3,4,4,4))"


def test_dimension_and_distance_anchors():
    assert FLAGSHIP.dimension() == 19
    assert FLAGSHIP.min_distance() == 10
    assert PLUS_ONE.dimension() == 11     # product dimension 12 minus 1 global
    assert PLUS_ONE.min_distance() == 6
    assert PRODUCT.dimension() == 9       # 3 * 3
    assert PRODUCT.min_distance() == 6    # 2 * 3


@pytest.mark.parametrize("p, budgets", [
    (FLAGSHIP, (7, 7, 4, 3, 1, 1)),
    (PLUS_ONE, (5, 2, 1, 1)),
    (PRODUCT, (5, 2, 2, 2)),
    (G16, (30, 30, 8, 8) + (4,) * 4 + (2,) * 8),
    (K_EQ_M, (2, 2, 1, 1)),
], ids=["flagship", "plus_one", "product", "g16", "k_eq_m"])
def test_erasure_budgets(p, budgets):
    assert p.erasure_budgets() == budgets


def test_decodable_profile():
    p = FLAGSHIP
    ok = ErasureProfile.from_counts([1, 7, 4, 3, 7, 1])
    assert decodable_profile(ok, p)
    too_much = ErasureProfile.from_counts([2, 7, 4, 3, 7, 1])
    assert not decodable_profile(too_much, p)
    with pytest.raises(ValueError):
        decodable_profile(ErasureProfile.from_counts([0, 0]), p)


def test_profile_ordering():
    prof = ErasureProfile.from_counts([2, 3, 2, 0])
    assert prof.counts == (3, 2, 2, 0)
    assert prof.row_order == (1, 0, 2, 3)  # ties keep original order


@pytest.mark.parametrize("p, expected", [
    (FLAGSHIP, {(0, 6), (1, 6),                          # level 0 band
                (2, 4), (2, 5), (2, 6),                  # level 1 band
                (3, 3), (3, 4), (3, 5), (3, 6),          # level 2 band
                *((r, c) for r in (4, 5) for c in range(7))}),
    (K_EQ_M, {(0, 5), (1, 5),                            # level 0 band
              (2, 4), (2, 5), (3, 4), (3, 5)}),          # level 1 band
], ids=["flagship", "k_eq_m"])
def test_parity_positions_layout(p, expected):
    parity = p.parity_positions()
    assert len(parity) == p.m * p.n - p.dimension() == len(expected)
    assert parity == expected


def test_parity_layout_matches_generic_linear_code():
    # The structured layout is the greedy right-to-left systematic choice
    # of the generic linear code on the same constraints.
    g16 = GpcParams(m=16, n=30, k=14, s=(8, 4, 4), u=(2, 4, 8),
                    field=default_field(8))
    codes = [*_small_param_grid(), FLAGSHIP, g16]
    assert len(codes) == 1248
    for p in codes:
        generic = LinearCode(p.field, p.m * p.n, full_parity_matrix(p))
        flat = tuple(sorted(r * p.n + c for r, c in p.parity_positions()))
        assert generic.parity_positions() == flat, p.notation()


def test_encode_is_systematic():
    rng = random.Random(3)
    p = FLAGSHIP
    data = [rng.randrange(8) for _ in range(p.dimension())]
    arr = encode(data, p)
    assert arr.erasure_count == 0
    assert is_member(arr, p)
    parity = p.parity_positions()
    it = iter(data)
    for r in range(p.m):
        for c in range(p.n):
            if (r, c) not in parity:
                assert arr.values[r][c] == next(it)


def test_encode_validation():
    with pytest.raises(ValueError):
        encode([0] * 5, FLAGSHIP)
    bad = [0] * FLAGSHIP.dimension()
    bad[3] = 8
    with pytest.raises(ValueError):
        encode(bad, FLAGSHIP)


# ---------------------------------------------------------- compiled encoder

@pytest.fixture
def encoders(monkeypatch):
    """An empty cache of gpc views, and so of encoder slots, for one test."""
    cache = {}
    monkeypatch.setattr(gpc, "_VIEWS", cache)
    return cache


def scalar_encode(data, params):
    return gpc._scalar_encode(data, params, params.parity_positions())


def stripes(params, rng):
    top = (1 << params.field.w) - 1
    k = params.dimension()
    return [[rng.randrange(top + 1) for _ in range(k)] for _ in range(3)] + \
        [[0] * k, [top] * k]


def compile_on_next_encode(params):
    """The encoder slot, set to have counted K encodes, so the next one
    compiles."""
    slot = gpc._view(params).encoder
    slot.uses = params.dimension()
    return slot


@pytest.mark.parametrize("params", [G16, FLAGSHIP, K_EQ_M],
                         ids=["G16", "flagship", "k_eq_m"])
def test_compiled_encode_matches_scalar(params, encoders, monkeypatch):
    cases = [(data, scalar_encode(data, params))
             for data in stripes(params, random.Random(71))]
    slot = compile_on_next_encode(params)
    encode(cases[0][0], params)
    assert slot.map is not None
    # from here on every encode must come from the map
    monkeypatch.delattr(gpc, "_scalar_encode")
    for data, expected in cases:
        assert encode(data, params) == expected


def test_encoder_compiles_after_k_encodes(encoders):
    k = PLUS_ONE.dimension()
    for data in stripes(PLUS_ONE, random.Random(74)) * 3:
        assert encode(data, PLUS_ONE) == scalar_encode(data, PLUS_ONE)
        # K scalar encodes, then one that compiles and applies the map
        slot = encoders[PLUS_ONE].encoder
        assert (slot.map is None) == (slot.uses <= k)
    assert slot.map is not None and slot.uses == k + 1


def test_wide_field_encode_stays_scalar(encoders):
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                  field=default_field(10))
    slot = compile_on_next_encode(p)
    for data in stripes(p, random.Random(72)):
        assert encode(data, p) == scalar_encode(data, p)
    assert slot.map is None


def test_oversized_encoder_is_not_compiled(encoders, monkeypatch):
    k = FLAGSHIP.dimension()
    size = k * (FLAGSHIP.m * FLAGSHIP.n - k)
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", size - 1)
    slot = compile_on_next_encode(FLAGSHIP)
    for data in stripes(FLAGSHIP, random.Random(73)):
        assert encode(data, FLAGSHIP) == scalar_encode(data, FLAGSHIP)
    assert slot.map is None
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", size)
    slot = compile_on_next_encode(FLAGSHIP)
    encode([0] * k, FLAGSHIP)
    assert sum(map(len, slot.map.columns)) == size


def test_encoder_cache_is_bounded(encoders, monkeypatch):
    monkeypatch.setattr(gpc, "_VIEW_LIMIT", 3)
    for p in (FLAGSHIP, PLUS_ONE, PRODUCT, FLAGSHIP, K_EQ_M):
        encode([0] * p.dimension(), p)
        assert len(encoders) <= 3
    # the least recently used slot went first
    assert list(encoders) == [PRODUCT, FLAGSHIP, K_EQ_M]


def test_encoder_in_use_outlives_other_codes(encoders):
    """Decodes under more than _VIEW_LIMIT other codes, interleaved with
    encodes of one code, leave that code's compiled encoder in place."""
    data = stripes(FLAGSHIP, random.Random(80))[0]
    expected = scalar_encode(data, FLAGSHIP)
    slot = compile_on_next_encode(FLAGSHIP)
    encode(data, FLAGSHIP)
    assert slot.map is not None
    others = [p for p in _small_param_grid() if not p.violations()]
    for p in others[:gpc._VIEW_LIMIT + 1]:
        zeros = SymbolArray.zeros(p.m, p.n)
        assert decode_rows(zeros, p) == zeros
        assert encode(data, FLAGSHIP) == expected
    assert gpc._view(FLAGSHIP).encoder is slot


def test_membership_linearity():
    rng = random.Random(7)
    p = PLUS_ONE
    a = rand_codeword(p, rng)
    b = rand_codeword(p, rng)
    assert is_member(xor_arrays(a, b), p)
    assert is_member(scale_array(a, 5, p.field), p)
    # zero array is always a member
    assert is_member(SymbolArray.zeros(p.m, p.n), p)


def test_membership_rejects_noise():
    rng = random.Random(9)
    for p in (FLAGSHIP, PLUS_ONE, PRODUCT):
        arr = rand_codeword(p, rng)
        for _ in range(10):
            r = rng.randrange(p.m)
            c = rng.randrange(p.n)
            bumped = arr.copy()
            bumped.values[r][c] ^= rng.randrange(1, 8)
            assert not is_member(bumped, p)
    with pytest.raises(ValueError):
        is_member(erase_positions(arr, [(0, 0)]), p)


def test_membership_matches_parity_matrix():
    rng = random.Random(13)
    p = PLUS_ONE
    h = full_parity_matrix(p)
    for _ in range(20):
        arr = SymbolArray([[rng.randrange(8) for _ in range(p.n)]
                           for _ in range(p.m)])
        syndrome_zero = not any(h.mul_vec(arr.flatten()))
        assert is_member(arr, p) == syndrome_zero


def test_full_parity_matrix_rank():
    for p in (FLAGSHIP, PLUS_ONE, PRODUCT):
        assert rank(full_parity_matrix(p)) == p.m * p.n - p.dimension()


def test_component_parity_check_values():
    h = component_parity_check(PLUS_ONE, 1)
    assert (h.rows, h.cols) == (2, 5)
    for r in range(2):
        for j in range(5):
            assert h.data[r][j] == F8.alpha_pow(r * j)


# ---------------------------------------------------------------- decoding

def test_decode_rows_roundtrip_random():
    rng = random.Random(101)
    for p in (FLAGSHIP, PLUS_ONE, PRODUCT):
        for _ in range(25):
            arr = rand_codeword(p, rng)
            pattern = random_decodable_pattern(p, rng)
            decoded = decode_rows(erase_positions(arr, pattern), p)
            assert decoded == arr
            assert is_member(decoded, p)


@pytest.mark.parametrize("p, size", [(FLAGSHIP, 23), (G16, 108), (K_EQ_M, 6)],
                         ids=["flagship", "g16", "k_eq_m"])
def test_decode_rows_full_budget_pattern(p, size):
    """The worst profile the guarantee covers is actually decoded."""
    rng = random.Random(55)
    arr = rand_codeword(p, rng)
    budgets = p.erasure_budgets()
    rows = list(range(p.m))
    rng.shuffle(rows)
    pattern = []
    for budget, r in zip(budgets, rows):
        for c in rng.sample(range(p.n), budget):
            pattern.append((r, c))
    assert len(pattern) == sum(budgets) == size
    assert decode_rows(erase_positions(arr, pattern), p) == arr


def test_decode_rows_rejects_excess():
    rng = random.Random(77)
    p = FLAGSHIP
    arr = rand_codeword(p, rng)
    # five rows with two erasures each: the sorted budgets end in (..., 1, 1)
    pattern = [(r, c) for r in range(5) for c in (2 * r % 7, (2 * r + 1) % 7)]
    erased = erase_positions(arr, pattern)
    with pytest.raises(UncorrectableError) as exc_info:
        decode_rows(erased, p)
    assert exc_info.value.remaining == frozenset(pattern)


def test_decode_trace_structure():
    rng = random.Random(21)
    p = FLAGSHIP
    arr = rand_codeword(p, rng)
    pattern = [(0, 2), (2, 1), (2, 2), (2, 4), (2, 6), (3, 0), (3, 3), (3, 5),
               (5, 4)] + [(1, c) for c in range(7)] + [(4, c) for c in range(7)]
    trace = DecodeTrace()
    decoded = decode_rows(erase_positions(arr, pattern), p, trace=trace)
    assert decoded == arr
    assert trace.row_order == (1, 4, 2, 3, 0, 5)
    assert trace.counts == (7, 7, 4, 3, 0, 0)  # rows 0 and 5 fixed locally
    # triangulation came from the power-weight matrix of the row order
    f = p.field
    vm = [[f.alpha_pow(r * j) for j in trace.row_order] for r in range(4)]
    prod = trace.transform.matmul(
        type(trace.system)(f, vm))
    assert prod.data == trace.system.data
    # unit upper triangular system
    for i in range(4):
        assert trace.system.data[i][i] == 1
        assert all(trace.system.data[i][j] == 0 for j in range(i))
    # peeling happens bottom-up: positions strictly decreasing
    positions = [pos for pos, _, _ in trace.steps]
    assert positions == sorted(positions, reverse=True)
    # the two fully erased rows are recovered by vanishing combinations
    assert {(pos, row) for pos, row, lvl in trace.steps if lvl is None} == \
        {(0, 1), (1, 4)}


def test_decode_rows_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        decode_rows(SymbolArray.zeros(3, 3), FLAGSHIP)


def test_triangulation_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(gpc, "_TRIANGULATION_LIMIT", 4)
    monkeypatch.setattr(gpc, "_TRIANGULATION_CACHE", {})
    f = FLAGSHIP.field
    rng = random.Random(41)
    keys = []
    for _ in range(12):
        order = tuple(rng.sample(range(FLAGSHIP.m), FLAGSHIP.m))
        nsys = rng.randint(1, FLAGSHIP.m)
        keys.append((order, nsys))
        got = gpc._triangulated_system(FLAGSHIP, order, nsys)
        fresh = row_reduce(Matrix(f, [[f.alpha_pow(r * j) for j in order]
                                      for r in range(nsys)]))
        assert got == fresh
        assert len(gpc._TRIANGULATION_CACHE) <= 4
    # the oldest entries went first
    assert set(gpc._TRIANGULATION_CACHE) == {(FLAGSHIP, *k) for k in keys[-4:]}
    # decoding through the small cache still recovers every pattern
    for _ in range(40):
        word = rand_codeword(FLAGSHIP, rng)
        damaged = erase_positions(word,
                                  random_decodable_pattern(FLAGSHIP, rng))
        assert decode_rows(damaged, FLAGSHIP) == word
        assert len(gpc._TRIANGULATION_CACHE) <= 4


def test_decode_iterative_staircase():
    """A stair of double erasures defeats the row pass but not the
    column view: ten erasures, exactly the distance of the code."""
    p = GpcParams(m=6, n=7, k=5, s=(2, 2, 2), u=(1, 3, 5), field=F8)
    assert p.min_distance() == 10
    rng = random.Random(31)
    arr = rand_codeword(p, rng)
    stairs = [(0, 0), (0, 4), (1, 0), (1, 1), (2, 1), (2, 2),
              (3, 2), (3, 3), (4, 3), (4, 4)]
    erased = erase_positions(arr, stairs)
    with pytest.raises(UncorrectableError):
        decode_rows(erased, p)
    assert decode_iterative(erased, p) == arr


def test_decode_iterative_stalls_on_codeword_support():
    """Erasing the support of a codeword is ambiguous; the iterative
    decoder must stop without writing anything wrong."""
    rng = random.Random(43)
    p = FLAGSHIP
    arr = rand_codeword(p, rng)
    witness = min_weight_codeword(p, 0, rows=[0, 1, 3, 4, 5], cols=[1, 3])
    support = [(r, c) for r in range(p.m) for c in range(p.n)
               if witness.values[r][c]]
    assert len(support) == p.min_distance()
    result = decode_iterative(erase_positions(arr, support), p)
    assert result.erasure_count > 0
    for r in range(p.m):
        for c in range(p.n):
            if not result.erased[r][c]:
                assert result.values[r][c] == arr.values[r][c]


def test_decode_iterative_handles_k_equals_m():
    # no vanishing combinations at all: row passes only
    p = GpcParams(m=4, n=6, k=4, s=(2, 2), u=(1, 2), field=F8)
    with pytest.raises(ValueError):
        p.transposed()
    rng = random.Random(47)
    arr = rand_codeword(p, rng)
    erased = erase_positions(arr, [(0, 3), (1, 1), (2, 0), (2, 5), (3, 2)])
    assert decode_iterative(erased, p) == arr


# row 0 of CONTRA_WORD is 1 2 3 4 4 0
CONTRA = GpcParams(m=4, n=6, k=3, s=(1, 3), u=(2, 4), field=F8)
CONTRA_WORD = encode([1, 2, 3, 4, 5, 6, 7, 1], CONTRA)


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
def test_contradicting_survivor_reports_erased_cells(decoder):
    assert CONTRA_WORD.values[0] == [1, 2, 3, 4, 4, 0]
    bad = erase_positions(CONTRA_WORD, [(0, 0)])
    bad.fill(0, 1, 3)   # was 2: no row-code word matches the survivors
    with pytest.raises(UncorrectableError, match="inconsistent") as exc_info:
        decoder(bad, CONTRA)
    assert exc_info.value.remaining == {(0, 0)}


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
def test_contradicting_vanishing_row_survivor_reports_erased_cells(decoder):
    # both erased rows are filled from vanishing combinations: the flipped
    # (2, 5) leaks into (4, 5), and then the survivor (1, 5) contradicts
    # the last combination
    rng = random.Random(1)
    word = encode([rng.randrange(8) for _ in range(19)], FLAGSHIP)
    pattern = [(1, c) for c in range(5)] + [(4, c) for c in range(2, 7)]
    bad = erase_positions(word, pattern)
    bad.fill(2, 5, bad.values[2][5] ^ 1)
    with pytest.raises(UncorrectableError, match="inconsistent") as exc_info:
        decoder(bad, FLAGSHIP)
    assert exc_info.value.remaining == set(pattern)


def test_contradiction_in_column_pass_reports_row_col_cells():
    # the row pass refuses two rows of five erasures; the column view's
    # peel then meets the corrupted survivor in column 4
    pattern = [(r, c) for r in (0, 2) for c in range(6)
               if (r, c) not in {(0, 1), (2, 5)}]
    bad = erase_positions(CONTRA_WORD, pattern)
    bad.fill(3, 4, bad.values[3][4] ^ 1)
    with pytest.raises(UncorrectableError, match="inconsistent") as exc_info:
        decode_iterative(bad, CONTRA)
    assert exc_info.value.remaining == set(pattern)


# ---------------------------------------------------------------- row plans

def outcome(decoder, arr, params):
    """A decode's output, or its error with message and remaining."""
    try:
        out = decoder(arr, params)
    except UncorrectableError as exc:
        return str(exc), exc.remaining
    return out.values, out.erased


def decode_cases(params, rng, patterns=2):
    """Damaged codewords of ``params``: per pattern, clean survivors and
    one flipped survivor."""
    word = rand_codeword(params, rng)
    cells = [(r, c) for r in range(params.m) for c in range(params.n)]
    cases = []
    for i in range(patterns):
        pattern = random_decodable_pattern(params, rng) if i % 2 == 0 else \
            rng.sample(cells, rng.randint(1, len(cells) // 2))
        damaged = erase_positions(word, pattern)
        flipped = damaged.copy()
        r, c = rng.choice([rc for rc in cells if rc not in set(pattern)])
        flipped.fill(r, c, flipped.values[r][c] ^ 1)
        cases += [damaged, flipped]
    return cases


def grid_codes_over_wider_fields():
    grid = [p for p in _small_param_grid() if not p.violations()]
    for w, base in zip(range(4, 9), grid[::60]):
        for p in (base, grid[len(grid) - 1 - grid.index(base)]):
            yield GpcParams(p.m, p.n, p.k, p.s, p.u, default_field(w))


def row_plans(view):
    """Every row-plan slot of a gpc view, over all its level codes."""
    return [s for code in view.levels for s in code._plans.values()]


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
def test_row_plans_match_scalar_solves(decoder, encoders, monkeypatch):
    rng = random.Random(131)
    codes = list(grid_codes_over_wider_fields()) + [FLAGSHIP, G16]
    cases = [(p, arr) for p in codes for arr in decode_cases(p, rng)]
    # maps of at most 0 bytes: every row repair runs the scalar solve
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", 0)
    expected = [outcome(decoder, arr, p) for p, arr in cases]
    monkeypatch.undo()
    encoders.clear()
    monkeypatch.setattr(gpc, "_VIEWS", encoders)
    # a row plan compiles on use |cols| + 1 <= max(m, n)
    for (p, arr), want in zip(cases, expected):
        for _ in range(max(p.m, p.n)):
            assert outcome(decoder, arr, p) == want
    compiled = {p: sum(s.map is not None for s in row_plans(encoders[p]))
                for p in codes}
    assert all(compiled.values())


def test_row_plan_cache_is_bounded_lru(encoders, monkeypatch):
    monkeypatch.setattr(linalg, "_PLAN_LIMIT", 2)
    word = rand_codeword(FLAGSHIP, random.Random(133))
    for c in (1, 2, 1, 1, 3):
        assert decode_rows(erase_positions(word, [(0, c)]), FLAGSHIP) == word
    rows = gpc._view(FLAGSHIP).levels[0]._plans
    # column 2 was the least recently used when column 3 came
    assert list(rows) == [(1,), (3,)]
    assert rows[(1,)].map is not None and rows[(3,)].map is None


def test_wide_field_never_compiles_row_plans(encoders):
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                  field=default_field(10))
    rng = random.Random(137)
    for arr in decode_cases(p, rng):
        for _ in range(10):
            outcome(decode_iterative, arr, p)
    rows = row_plans(encoders[p])
    assert rows and all(s.map is None for s in rows)


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
@pytest.mark.parametrize("value", [-1, 16, 20, 300])
def test_out_of_field_survivor_raises(decoder, value, encoders):
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F16)
    word = rand_codeword(p, random.Random(139))
    damaged = erase_positions(word, [(0, 0)])   # row 0 repairs locally
    bad = damaged.copy()
    bad.values[0][1] = value
    with pytest.raises(ValueError, match="survivor out of field range"):
        decoder(bad, p)
    for _ in range(2):   # use |cols| + 1 compiles the row's plan
        assert decoder(damaged, p) == word
    assert encoders[p].levels[0]._plans[(0,)].map is not None
    with pytest.raises(ValueError, match="survivor out of field range"):
        decoder(bad, p)


# ---------------------------------------------------------------- transpose

def test_transpose_anchor():
    p = GpcParams(m=6, n=7, k=5, s=(2, 2, 2), u=(1, 3, 5), field=F8)
    q = p.transposed()
    assert q.notation() == "C(6;6,(1,1,2,2,4,4,4))"
    assert (q.m, q.n, q.k) == (7, 6, 6)
    assert q.violations() == []
    assert q.transposed().notation() == p.notation()
    assert q.transposed() == p


def test_transpose_single_level():
    q = PRODUCT.transposed()     # [5,3] x [4,3] seen column-wise
    assert (q.m, q.n, q.k) == (5, 4, 3)
    assert q.s == (5,) and q.u == (1,)
    assert q.dimension() == PRODUCT.dimension()
    assert q.min_distance() == PRODUCT.min_distance()
    assert q.transposed() == PRODUCT


def test_transpose_preserves_code():
    """Membership is invariant under the column view, codeword by codeword."""
    rng = random.Random(59)
    for p in (FLAGSHIP, PLUS_ONE, PRODUCT):
        q = p.transposed()
        assert q.dimension() == p.dimension()
        assert q.min_distance() == p.min_distance()
        for _ in range(5):
            arr = rand_codeword(p, rng)
            assert is_member(arr.transposed(), q)
        for _ in range(5):
            brr = rand_codeword(q, rng)
            assert is_member(brr.transposed(), p)


# ------------------------------------------------------- minimum weight

def test_min_weight_codeword_level0():
    w = min_weight_codeword(FLAGSHIP, 0, rows=[0, 1, 3, 4, 5], cols=[1, 3])
    assert is_member(w, FLAGSHIP)
    support = {(r, c) for r in range(6) for c in range(7) if w.values[r][c]}
    assert support == {(r, c) for r in [0, 1, 3, 4, 5] for c in [1, 3]}
    assert len(support) == 10 == FLAGSHIP.min_distance()


def test_min_weight_codeword_other_levels():
    cases = {1: ([0, 2, 3, 5], [1, 2, 4, 6]),
             2: ([1, 4, 5], [0, 2, 4, 5, 6])}
    for level, (rows, cols) in cases.items():
        w = min_weight_codeword(FLAGSHIP, level, rows, cols)
        assert is_member(w, FLAGSHIP)
        support = {(r, c) for r in range(6) for c in range(7)
                   if w.values[r][c]}
        assert support == {(r, c) for r in rows for c in cols}
        expected = (FLAGSHIP.s_hat(level + 1) + 1) * (FLAGSHIP.u[level] + 1)
        assert len(support) == expected


def test_min_weight_codeword_validation():
    with pytest.raises(ValueError):
        min_weight_codeword(FLAGSHIP, 3, [0], [0])
    with pytest.raises(ValueError):
        min_weight_codeword(FLAGSHIP, 0, [0, 1, 3, 4, 5], [1])     # few cols
    with pytest.raises(ValueError):
        min_weight_codeword(FLAGSHIP, 0, [0, 1], [1, 3])           # few rows
    with pytest.raises(ValueError):
        min_weight_codeword(FLAGSHIP, 0, [0, 1, 3, 4, 5], [1, 9])  # range
    with pytest.raises(ValueError):
        min_weight_codeword(FLAGSHIP, 0, [0, 0, 3, 4, 5], [1, 3])  # repeat


# ------------------------------------------------------- symbol arrays

def test_symbol_array_mask_is_authoritative():
    arr = SymbolArray([[1, 2], [3, 4]], erased=[[False, True], [False, False]])
    assert arr.values[0][1] == 0          # erased cells read as zero
    assert arr.erased[0][1]
    assert arr.erasure_count == 1
    assert arr.erased_positions() == [(0, 1)]
    assert [c for c, e in enumerate(arr.erased[0]) if e] == [1]
    arr.fill(0, 1, 7)
    assert not arr.erased[0][1] and arr.values[0][1] == 7
    arr.erase(1, 0)
    assert arr.values[1][0] == 0


def test_symbol_array_copy_and_transpose():
    arr = SymbolArray([[1, 2, 3], [4, 5, 6]])
    arr.erase(0, 2)
    dup = arr.copy()
    dup.fill(0, 2, 9)
    assert arr.erased[0][2]               # the original is untouched
    t = arr.transposed()
    assert (t.m, t.n) == (3, 2)
    assert t.values[1][0] == 2
    assert t.erased[2][0]
    assert t.transposed() == arr
    assert arr.flatten() == [1, 2, 0, 4, 5, 6]
    with pytest.raises(ValueError):
        SymbolArray([[1, 2], [3]])
    with pytest.raises(ValueError):
        SymbolArray([[1, 2]], erased=[[True]])
