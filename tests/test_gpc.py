"""Tests for array-code parameters, membership, encoding and decoding."""

import random
import re
import tracemalloc
import types

import pytest

from gpcodes import gpc, linalg
from gpcodes.epc import LinearCode, build_h2, lc_encode, lc_erasure_decode
from gpcodes.fields import GF, default_field
from gpcodes.gpc import (ContradictionError, ErasureProfile, GpcParams,
                         SymbolArray, UncorrectableError,
                         component_parity_check, decodable_profile,
                         decode_iterative, decode_plan, decode_rows, encode,
                         erase_positions, full_parity_matrix, is_member,
                         min_weight_codeword)
from gpcodes.linalg import Matrix, rank
from gpcodes.oracle import (decoder_oracle_equivalence,
                            random_decodable_pattern)
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


def grid_codes_over_wider_fields():
    grid = [p for p in _small_param_grid() if not p.violations()]
    for w, base in zip(range(4, 9), grid[::60]):
        for p in (base, grid[len(grid) - 1 - grid.index(base)]):
            yield GpcParams(p.m, p.n, p.k, p.s, p.u, default_field(w))


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
    # ties keep the original row order
    assert prof.entries == ((3, 1), (2, 0), (2, 2), (0, 3))


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
        generic = LinearCode(full_parity_matrix(p))
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
    return gpc._encode_pass(data, gpc._view(params))


def stripes(params, rng):
    top = (1 << params.field.w) - 1
    k = params.dimension()
    return [[rng.randrange(top + 1) for _ in range(k)] for _ in range(3)] + \
        [[0] * k, [top] * k]


def compile_on_next_encode(params):
    """The encoder slot, set to have counted one encode, so the next one
    compiles."""
    slot = gpc._view(params).encoder
    slot.uses = 1
    return slot


@pytest.mark.parametrize(
    "params",
    [pytest.param(G16, id="G16"), pytest.param(FLAGSHIP, id="flagship"),
     pytest.param(K_EQ_M, id="k_eq_m"), pytest.param(PLUS_ONE, id="plus_one"),
     *grid_codes_over_wider_fields()],
    ids=lambda p: f"{p.m}x{p.n}_k{p.k}_w{p.field.w}")
def test_compiled_encode_matches_scalar(params, encoders, monkeypatch):
    cases = [(data, scalar_encode(data, params))
             for data in stripes(params, random.Random(71))]
    slot = compile_on_next_encode(params)
    encode(cases[0][0], params)
    assert slot.map is not None
    # from here on every encode must come from the map
    monkeypatch.delattr(gpc, "_encode_pass")
    for data, expected in cases:
        assert encode(data, params) == expected


def test_check_matrix_readers_keep_compiled_views(encoders, monkeypatch):
    """full_parity_matrix, min_weight_codeword and build_h2 read check
    matrices only, so 16 h2 shapes take no view and G16's compiled
    encoder survives them."""
    data = stripes(G16, random.Random(83))[0]
    expected = scalar_encode(data, G16)
    slot = compile_on_next_encode(G16)
    encode(data, G16)
    assert slot.map is not None
    for m in range(2, 6):
        for n in range(2, 6):
            build_h2(m, n, G16.field)
    full_parity_matrix(FLAGSHIP)
    min_weight_codeword(FLAGSHIP, 0, rows=[0, 1, 3, 4, 5], cols=[1, 3])
    assert list(encoders) == [G16] and encoders[G16].encoder is slot
    monkeypatch.delattr(gpc, "_encode_pass")
    assert encode(data, G16) == expected


def probe_encoder_columns(params):
    """The encoder map's columns built from K scalar encodes of the unit
    data vectors, the compile's former construction."""
    parity = params.parity_positions()
    dim = params.dimension()
    size = params.m * params.n
    targets = sorted(r * params.n + c for r, c in parity)
    data_cells = [j for j in range(size) if j not in set(targets)]
    columns = [b""] * size
    for s, j in enumerate(data_cells):
        word = scalar_encode([int(i == s) for i in range(dim)],
                             params).flatten()
        columns[j] = bytes(word[t] for t in targets)
    return columns


@pytest.mark.parametrize(
    "params", [G16, FLAGSHIP, K_EQ_M, *grid_codes_over_wider_fields()],
    ids=lambda p: f"{p.m}x{p.n}_k{p.k}_w{p.field.w}")
def test_block_compiled_encoder_equals_unit_vector_probes(params, encoders):
    """Each data column's entry 1 is its unit-vector probe as an int, and
    the row itemgetters, given the data cells then the parity cells in
    row-major order, pick every array row's cells in place."""
    compiled = gpc._compile_encoder(gpc._view(params))
    columns = probe_encoder_columns(params)
    size, n = params.m * params.n, params.n
    targets = sorted(r * n + c for r, c in params.parity_positions())
    data_cells = [j for j in range(size) if j not in set(targets)]
    assert [lo[1] for lo in compiled.parity.lo] == [
        int.from_bytes(columns[j], "little") for j in data_cells]
    assert compiled.parity.height == len(targets)
    cells = data_cells + targets
    assert [row(cells) for row in compiled.rows] == [
        tuple(range(r, r + n)) for r in range(0, size, n)]


def test_encoder_compiles_on_the_second_encode(encoders):
    for data in stripes(PLUS_ONE, random.Random(74)):
        assert encode(data, PLUS_ONE) == scalar_encode(data, PLUS_ONE)
        # one scalar encode, then one that compiles and applies the map
        slot = encoders[PLUS_ONE].encoder
        assert (slot.map is None) == (slot.uses == 1)
    assert slot.map is not None and slot.uses == 2


def test_wide_field_encode_stays_scalar(encoders):
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                  field=default_field(10))
    slot = compile_on_next_encode(p)
    for data in stripes(p, random.Random(72)):
        assert encode(data, p) == scalar_encode(data, p)
    assert slot.map is None


def encoder_charge(params):
    """The held bytes an encoder slot is charged: 32 table entries per
    data symbol, each of P bytes and 64 of overhead."""
    k = params.dimension()
    return 32 * k * (params.m * params.n - k + 64)


def test_oversized_encoder_is_not_compiled(encoders, monkeypatch):
    k = FLAGSHIP.dimension()
    charge = encoder_charge(FLAGSHIP)
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", charge - 1)
    slot = compile_on_next_encode(FLAGSHIP)
    for data in stripes(FLAGSHIP, random.Random(73)):
        assert encode(data, FLAGSHIP) == scalar_encode(data, FLAGSHIP)
    assert slot.map is None
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", charge)
    slot = compile_on_next_encode(FLAGSHIP)
    encode([0] * k, FLAGSHIP)
    parity = slot.map.parity
    assert 32 * len(parity.lo) * (parity.height + 64) == charge


def test_encoder_charged_above_the_limit_stays_scalar(encoders):
    """A 16 x 255 code over GF(2^8), K = 4064 and P = 16, is charged
    10.4 MB for its tables: it encodes twice on the scalar path."""
    p = GpcParams(16, 255, 16, (16,), (1,), default_field(8))
    assert p.dimension() == 4064
    assert encoder_charge(p) > linalg.MAP_BYTES_LIMIT
    for data in stripes(p, random.Random(87))[:2]:
        assert encode(data, p) == scalar_encode(data, p)
    slot = encoders[p].encoder
    assert slot.uses == 2 and slot.map is None


@pytest.mark.parametrize("bad", [16, -1, 256])
def test_compiled_encode_still_checks_symbols(bad, encoders):
    """The split tables would read a wrong entry for a negative symbol,
    so a compiled encode checks the data symbols first."""
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F16)
    data = stripes(p, random.Random(85))[0]
    slot = compile_on_next_encode(p)
    expected = encode(data, p)
    assert slot.map is not None and expected == scalar_encode(data, p)
    data[5] = bad
    with pytest.raises(ValueError, match="data symbol out of field range"):
        encode(data, p)


def held_encoder_bytes(params):
    """The bytes by tracemalloc that the encode which compiles the
    encoder of ``params`` leaves held, its row plans compiled before."""
    data = stripes(params, random.Random(86))[0]
    # its row plans and product tables
    gpc._compile_encoder(gpc._view(params))
    slot = compile_on_next_encode(params)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        encode(data, params)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert slot.map is not None
    return held


def test_held_encoder_memory_is_bounded(encoders):
    """G16's compiled encoder, held as split tables, takes at most 1.8 MB
    by tracemalloc, about 40 times its 40 KB as a byte map, and no more
    than its charge, which is within MAP_BYTES_LIMIT."""
    held = held_encoder_bytes(G16)
    assert held <= 1_800_000
    assert held <= encoder_charge(G16) <= linalg.MAP_BYTES_LIMIT


def test_narrow_encoder_memory_stays_within_its_charge(encoders):
    """A narrow map over GF(2^8), K = 794 data symbols and P = 6 parity
    symbols, each of which most data symbols reach, pays more per byte
    of map for its tables than G16's: they still take no more than its
    charge."""
    p = GpcParams(m=4, n=200, k=4, s=(2, 2), u=(1, 2), field=default_field(8))
    held = held_encoder_bytes(p)
    assert held <= encoder_charge(p) <= linalg.MAP_BYTES_LIMIT


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


@pytest.mark.parametrize("w", [3, 4, 8, 10])
def test_membership_rejects_symbols_out_of_field(w):
    # w = 10 runs Matrix.mul_vec, the others the compiled syndrome
    p = GpcParams(m=4, n=5, k=3, s=(2, 2), u=(1, 2), field=default_field(w))
    arr = encode([1] * p.dimension(), p)
    assert is_member(arr, p)
    for bad in (1 << w, 256, -1):
        if 0 <= bad < 1 << w:
            continue
        for r, c in ((0, 0), (p.m - 1, p.n - 1)):
            damaged = arr.copy()
            damaged.values[r][c] = bad
            with pytest.raises(ValueError, match="symbol out of field range"):
                is_member(damaged, p)


@pytest.mark.parametrize("params", [
    G16, K_EQ_M, GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                           field=default_field(10))],
    ids=["G16", "k_eq_m", "w10"])
def test_membership_past_the_row_checks_matches_parity_matrix(params):
    """Arrays whose every row lies in the level-0 row code: the deeper
    checks on the row combinations decide, as the full parity matrix
    does."""
    rng = random.Random(211)
    top = 1 << params.field.w
    h = full_parity_matrix(params)
    basis = linalg.null_space(component_parity_check(params, 0))
    form = linalg.row_form(params.field)
    word = encode([rng.randrange(top) for _ in range(params.dimension())],
                  params)
    assert is_member(word, params)
    seen = set()
    for _ in range(4):
        arr = word.copy()
        r = rng.randrange(params.m)
        extra = linalg.combine(params.field,
                               [(rng.randrange(1, top), form(v))
                                for v in basis], params.n)
        arr.values[r] = [a ^ b for a, b in zip(arr.values[r], extra)]
        member = is_member(arr, params)
        assert member == (not any(h.mul_vec(arr.flatten())))
        seen.add(member)
    assert False in seen


@pytest.mark.parametrize("params", [
    G16, FLAGSHIP, K_EQ_M, GpcParams(m=6, n=7, k=4, s=(2, 1, 3),
                                     u=(1, 3, 4), field=default_field(10))],
    ids=["G16", "flagship", "k_eq_m", "w10"])
def test_each_combination_is_checked_in_its_deepest_level(params):
    """A word of level l - 1 that breaks level l's extra checks, added to
    one row, breaks exactly the combinations r < s_hat(l): each lies in
    level l or deeper, and a check one level too weak passes the ones in
    level l (for l = t, every vanishing one)."""
    rng = random.Random(223)
    top = 1 << params.field.w
    h = full_parity_matrix(params)
    word = rand_codeword(params, rng)
    checks = [component_parity_check(params, i) for i in range(params.t)]
    form = linalg.row_form(params.field)
    for level in range(1, params.t + 1):
        basis = linalg.null_space(checks[level - 1])
        for _ in range(3):
            extra = [0] * params.n
            while not any(checks[level].mul_vec(extra) if level < params.t
                          else extra):
                extra = linalg.combine(
                    params.field, [(rng.randrange(top), form(v))
                                   for v in basis], params.n)
            arr = word.copy()
            r = rng.randrange(params.m)
            arr.values[r] = [a ^ b for a, b in zip(arr.values[r], extra)]
            member = not any(h.mul_vec(arr.flatten()))
            assert is_member(arr, params) == member
            assert member == (params.s_hat(level) == 0)


# a w = 4 grid code whose membership test takes three combinations
W4_GRID = next(GpcParams(p.m, p.n, p.k, p.s, p.u, F16)
               for p in _small_param_grid()
               if not p.violations() and p.s_hat(1) == 3 and p.n > 3)


@pytest.mark.parametrize("params", [
    G16, FLAGSHIP, W4_GRID, GpcParams(m=6, n=7, k=4, s=(2, 1, 3),
                                      u=(1, 3, 4), field=default_field(10))],
    ids=["G16", "flagship", "w4_grid", "w10"])
def test_membership_folds_equal_the_combined_rows(params):
    """The view's folds give is_member each row combination r < s_hat(1),
    r = 0 included, as combine sums it, row j times alpha^(r*j): on
    random rows, codewords or not, read from the rows or from the
    symbols that the field's range check returned for them."""
    view = gpc._view(params)
    rng = random.Random(params.m * params.n)
    top = 1 << params.field.w
    form = linalg.row_form(params.field)
    for _ in range(4):
        rows = [[rng.randrange(top) for _ in range(params.n)]
                for _ in range(params.m)]
        expected = [
            linalg.combine(params.field,
                           zip(view.powers[r], map(form, rows)), params.n)
            for r in range(params.s_hat(1))]
        assert view.combos.sums(rows) == expected
        cells = params.field.check_symbols(
            [v for row in rows for v in row], "symbol")
        n = params.n
        assert view.combos.sums([cells[i:i + n] for i in range(
            0, len(cells), n)]) == expected


@pytest.mark.parametrize("params", [G16, FLAGSHIP], ids=["G16", "flagship"])
def test_membership_reads_its_symbols_as_their_check_built_them(
        params, monkeypatch):
    """is_member converts its symbols to bytes once: the level-0 batch
    syndrome and the combinations' fold both read the rows as slices of
    the bytearray that GF.check_symbols built to validate the symbols,
    and the answers stay those of the parity-check matrix."""
    rng = random.Random(211)
    word = rand_codeword(params, rng)
    flipped = word.copy()
    flipped.fill(3, 4, flipped.values[3][4] ^ 1)
    checked, read = [], []
    check = GF.check_symbols
    batch, sums = LinearCode.batch_syndrome, linalg.Fold.sums

    def recording_check(self, values, what):
        checked.append(check(self, values, what))
        return checked[-1]

    def recording_batch(self, rows, block=1):
        read.append(rows)
        return batch(self, rows, block)

    def recording_sums(self, rows):
        read.append(rows)
        return sums(self, rows)

    monkeypatch.setattr(GF, "check_symbols", recording_check)
    monkeypatch.setattr(LinearCode, "batch_syndrome", recording_batch)
    monkeypatch.setattr(linalg.Fold, "sums", recording_sums)
    assert is_member(word, params)
    assert len(checked) == 1 and type(checked[0]) is bytearray
    assert len(read) == 2
    for rows in read:
        assert len(rows) == params.m
        assert all(type(row) is bytearray for row in rows)
        assert b"".join(rows) == checked[0]
    assert not is_member(flipped, params)
    h = full_parity_matrix(params)
    assert any(h.mul_vec(flipped.flatten())) and \
        not any(h.mul_vec(word.flatten()))


def test_codes_and_views_build_their_fold_plans_once(monkeypatch):
    """build_h2's code builds its two fold plans with the code, and a
    view its two with the view: its level-0 code's batch syndrome and
    the membership combinations.  Syndromes, decodes, encodes (the
    encoder's compile included) and membership tests build none."""
    built = []
    real = linalg.Fold.__init__

    def counting(self, *args, **kwargs):
        built.append(args[:3])
        real(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Fold, "__init__", counting)
    monkeypatch.setattr(gpc, "_VIEWS", {})
    code = build_h2(15, 17)
    assert len(built) == 2
    word = lc_encode(list(range(code.dimension)), code)
    for _ in range(3):
        code.syndrome(word)
        lc_erasure_decode(word, {0, 1, 17, 18}, code)
    rng = random.Random(5)
    arr = rand_codeword(G16, rng)
    for _ in range(3):
        assert is_member(arr, G16)
        assert decode_rows(erase_positions(arr, [(0, 0)]), G16) == arr
        rand_codeword(G16, rng)     # the second encode compiles
    assert built[2:] == [(G16.field, G16.n, 1), (G16.field, G16.m, G16.n)]


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


def test_decode_plan_structure():
    rng = random.Random(21)
    p = FLAGSHIP
    arr = rand_codeword(p, rng)
    pattern = [(0, 2), (2, 1), (2, 2), (2, 4), (2, 6), (3, 0), (3, 3), (3, 5),
               (5, 4)] + [(1, c) for c in range(7)] + [(4, c) for c in range(7)]
    damaged = erase_positions(arr, pattern)
    decoded = decode_rows(damaged, p)
    assert decoded == arr
    (step,) = decode_plan(damaged, p).passes
    assert step.order == (1, 4, 2, 3, 0, 5)
    assert step.counts == (7, 7, 4, 3, 0, 0)  # rows 0 and 5 fixed locally
    # unit upper triangular system, whose row i combines the first i + 1
    # rows of the power-weight matrix of the row order
    f = p.field
    vm = [[f.alpha_pow(r * j) for j in step.order] for r in range(4)]
    for i in range(4):
        assert step.system[i][i] == 1
        assert all(step.system[i][j] == 0 for j in range(i))
        assert rank(Matrix(f, vm[:i + 1] + [step.system[i]])) == i + 1
    steps = [(pos, row, lvl) for pos, row, _, lvl, _, _ in step.peel]
    # peeling happens bottom-up: positions strictly decreasing
    positions = [pos for pos, _, _ in steps]
    assert positions == sorted(positions, reverse=True)
    # the two fully erased rows are recovered by vanishing combinations
    assert {(pos, row) for pos, row, lvl in steps if lvl is None} == \
        {(0, 1), (1, 4)}


def _mutable_parts(value, path="plan"):
    """The paths under ``value`` that hold something other than an int,
    None, a tuple, a read-only mapping or a params record."""
    if value is None or isinstance(value, (int, GpcParams)):
        return []
    if isinstance(value, tuple):
        return [bad for i, x in enumerate(value)
                for bad in _mutable_parts(x, f"{path}[{i}]")]
    if isinstance(value, types.MappingProxyType):
        return [bad for key, x in value.items()
                for bad in _mutable_parts(key, f"{path} key") +
                _mutable_parts(x, f"{path}[{key}]")]
    return [path]


def test_the_public_plan_is_the_cached_plan_and_cannot_change():
    """decode_plan hands out the very plan decode_rows runs, built of
    tuples, ints and read-only mappings only, so a caller holding it
    cannot change a later decode: a row pass, a refused profile, a
    column pass and a k = m code."""
    rng = random.Random(23)
    for params in (FLAGSHIP, G16, K_EQ_M):
        word = rand_codeword(params, rng)
        for pattern in (random_decodable_pattern(params, rng),
                        [(r, c) for r in range(params.m)
                         for c in range(params.u[0] + 1)]):
            damaged = erase_positions(word, pattern)
            plan = decode_plan(damaged, params)
            assert plan is decode_plan(damaged, params)
            assert plan is gpc._PLANS[params, False,
                                      tuple(map(bytes, damaged.erased))]
            assert _mutable_parts(plan) == []
            assert _mutable_parts(gpc._plan(gpc._view(params),
                                            damaged.erased, True)) == []
            with pytest.raises(TypeError):
                plan.passes[0].groups[()] = (0,)


def test_decode_rows_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        decode_rows(SymbolArray.zeros(3, 3), FLAGSHIP)


def archive_loss(rng):
    """The benchmark's archive loss on G16: two whole columns and one
    whole row."""
    cols = rng.sample(range(G16.n), 2)
    row = rng.randrange(G16.m)
    return {(r, c) for r in range(G16.m) for c in cols} | \
        {(row, c) for c in range(G16.n)}


def clear_pattern_caches():
    """Empty the plan cache."""
    gpc._PLANS.clear()


@pytest.fixture
def plans(monkeypatch):
    """An empty plan cache for one test, returned."""
    cache = {}
    monkeypatch.setattr(gpc, "_PLANS", cache)
    return cache


def test_plan_cache_is_a_bounded_lru(plans, monkeypatch):
    """Plans are kept per (params, iterate, mask), at most _PLAN_LIMIT of
    them, the least recently used dropped first; a pattern that differs
    from a cached one in its last row only gets a plan of its own."""
    monkeypatch.setattr(gpc, "_PLAN_LIMIT", 3)
    rng = random.Random(181)
    word = rand_codeword(FLAGSHIP, rng)
    clear_pattern_caches()      # the encoder's plan
    last = FLAGSHIP.m - 1
    patterns = {"a": [(0, 0), (last, 1)], "b": [(0, 0), (last, 2)],
                "c": [(2, 3)], "d": [(1, 1), (4, 4)]}
    keys, sizes = {}, []
    for name in "abcad":
        damaged = erase_positions(word, patterns[name])
        assert decode_iterative(damaged, FLAGSHIP) == word
        keys[name] = (FLAGSHIP, True, tuple(map(bytes, damaged.erased)))
        sizes.append(len(plans))
    assert sizes == [1, 2, 3, 3, 3]
    # b went first: a was used again after it
    assert list(plans) == [keys["c"], keys["a"], keys["d"]]
    # decode_rows plans apart from decode_iterative
    decode_rows(erase_positions(word, patterns["a"]), FLAGSHIP)
    assert list(plans)[-1] == (FLAGSHIP, False) + keys["a"][2:]


def test_a_repeated_loss_plans_once(plans, monkeypatch):
    """The archive loss decoded three times builds one plan and
    triangulates once: the plan holds its system, so no later decode
    triangulates again."""
    rng = random.Random(191)
    loss = archive_loss(rng)
    words = [rand_codeword(G16, rng) for _ in range(3)]
    clear_pattern_caches()      # the encoder's plan
    built, reduced = [], []
    plan, row_reduce_ = gpc._plan, gpc.row_reduce
    monkeypatch.setattr(gpc, "_plan", lambda *a: built.append(a) or plan(*a))
    monkeypatch.setattr(gpc, "row_reduce",
                        lambda m: reduced.append(m) or row_reduce_(m))
    for word in words:
        assert decode_iterative(erase_positions(word, loss), G16) == word
    assert len(built) == 1 and len(reduced) == 1
    assert len(plans) == 1


def test_a_plan_lives_while_four_new_patterns_pass(plans, monkeypatch):
    """100 distinct patterns, each with a row order of its own, leave
    _PLAN_LIMIT plans.  A pattern seen again with three others between
    gets the very plan built at its first sighting, its system with it,
    so it builds and triangulates nothing; with four others between, it
    is built again."""
    rng = random.Random(199)
    word = rand_codeword(G16, rng)
    clear_pattern_caches()      # the encoder's plan
    pairs = rng.sample([(a, b) for a in range(G16.m) for b in range(G16.m)
                        if a != b], 100)

    def decode(a, b):      # row a loses five cells, row b three
        loss = {(a, c) for c in range(5)} | {(b, c) for c in range(5, 8)}
        assert decode_iterative(erase_positions(word, loss), G16) == word

    for a, b in pairs:
        decode(a, b)
    assert len(plans) == gpc._PLAN_LIMIT == 4
    # the oldest plan held: pairs[-4]'s, three patterns decoded since
    key, held = next(iter(plans.items()))
    assert held.passes[0].system is not None
    built, reduced = [], []
    plan, row_reduce_ = gpc._plan, gpc.row_reduce
    monkeypatch.setattr(gpc, "_plan", lambda *a: built.append(a) or plan(*a))
    monkeypatch.setattr(gpc, "row_reduce",
                        lambda m: reduced.append(m) or row_reduce_(m))
    decode(*pairs[-4])
    assert next(reversed(plans)) == key and plans[key] is held
    assert built == reduced == []
    # pairs[-5]'s, with four patterns decoded since, was dropped
    decode(*pairs[-5])
    assert len(built) == len(reduced) == 1
    assert len(plans) == gpc._PLAN_LIMIT


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
def test_a_changed_survivor_under_a_cached_plan_raises(decoder, plans):
    """Under the archive loss each of the 15 rows with two erasures fills
    with no check to spare, so a changed survivor in one of them is
    caught by a vanishing combination alone; a cached plan still runs
    that comparison and reports every erased cell.  The loss is decoded
    once first, which caches its plan."""
    rng = random.Random(193)
    loss = archive_loss(rng)
    word = rand_codeword(G16, rng)
    assert decoder(erase_positions(word, loss), G16) == word
    assert len(plans) == 1
    for _ in range(3):
        damaged = erase_positions(rand_codeword(G16, rng), loss)
        r, c = rng.choice([(r, c) for r in range(G16.m) for c in range(G16.n)
                           if not damaged.erased[r][c]])
        damaged.fill(r, c, damaged.values[r][c] ^ rng.randrange(1, 256))
        with pytest.raises(ContradictionError, match="inconsistent") as exc:
            decoder(damaged, G16)
        assert exc.value.remaining == loss
    assert len(plans) == 1


def test_a_cached_plan_equals_a_fresh_one(plans):
    """decode_plan gives the cached plan, equal to a fresh plan of the
    mask, and a contradiction counts the same peel steps whether
    decode_rows ran a cached plan or a fresh one."""
    rng = random.Random(197)
    word = rand_codeword(FLAGSHIP, rng)
    for _ in range(30):
        damaged = erase_positions(word, random_decodable_pattern(FLAGSHIP,
                                                                 rng))
        if rng.random() < 0.5:
            r, c = rng.choice([(r, c) for r in range(FLAGSHIP.m)
                               for c in range(FLAGSHIP.n)
                               if not damaged.erased[r][c]])
            damaged.fill(r, c, damaged.values[r][c] ^ rng.randrange(1, 8))
        records = []
        for fresh in (True, False):
            if fresh:
                plans.clear()
            try:
                decode_rows(damaged, FLAGSHIP)
                steps = "decoded"
            except ContradictionError as exc:
                steps = exc.steps
            records.append((decode_plan(damaged, FLAGSHIP), steps))
        assert records[0] == records[1]
        assert records[0][0] == gpc._plan(gpc._view(FLAGSHIP),
                                          damaged.erased, False)


@pytest.mark.parametrize("make", [
    lambda h, nodes: LinearCode(h), lambda h, nodes: gpc._RowCode(h, nodes)],
    ids=["LinearCode", "_RowCode"])
def test_blocks_over_a_wide_field_raise_before_any_work(make):
    """A row code's block entry points, its closed-form solve_syndrome
    included, refuse blocks over GF(2^10) and GF(2^20) through linalg's
    one block rule, before the erasure count is looked at and before any
    row or symbol is written; L = 1 runs."""
    for field in (default_field(10), GF(20, 0x100009)):
        nodes = [field.alpha_pow(j) for j in range(7)]
        code = make(linalg.vandermonde(field, nodes, 3), nodes)
        syndrome, word = [5, 6, 7], [1, 2, 3, 4, 5, 0, 0]
        rows = [word[:], [7, 6, 5, 4, 3, 0, 0]]
        calls = [lambda e=e: code.solve_syndrome(syndrome, e, 3)
                 for e in ((0, 1), (0, 1, 2, 3), ())]
        calls += [lambda: code.syndrome(word, 3),
                  lambda: code.fill(word, (5, 6), 3),
                  lambda: code.fill_rows(rows, {(5, 6): [0, 1]}, 3)]
        for call in calls:
            with pytest.raises(ValueError, match=r"^blocks need a field "
                               r"with w <= 8$"):
                call()
        assert syndrome == [5, 6, 7] and word == [1, 2, 3, 4, 5, 0, 0]
        assert rows == [word, [7, 6, 5, 4, 3, 0, 0]]
        assert code.solve_syndrome([0, 0, 0], (), 1) == []
        code.fill(word, (4, 5, 6))
        assert not any(code.syndrome(word))


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


# ---------------------------------------------------------------- row solves

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


def row_plans(view):
    """Every plan slot of a gpc view, over all its level codes."""
    return [s for code in view.levels for s in code._plans.values()]


def scalar_row_solves(monkeypatch):
    """From here on every gpc row solve is the generic scalar one,
    ``LinearCode._solve``: one ``linalg.solve`` per word."""
    monkeypatch.setattr(
        gpc._RowCode, "solve_syndrome",
        lambda self, syndrome, erased, block=1:
            LinearCode._solve(self, syndrome, erased, block))


def record_row_solves(monkeypatch):
    """The list that records (code, erased, block) for every closed-form
    ``solve_syndrome`` of a gpc row code from here on: every row repair
    takes that step, through fill or from a syndrome it is given."""
    solves = []
    step = gpc._RowCode.solve_syndrome

    def recording_step(self, syndrome, erased, block=1):
        solves.append((self, erased, block))
        return step(self, syndrome, erased, block)

    monkeypatch.setattr(gpc._RowCode, "solve_syndrome", recording_step)
    return solves


def forbid_solve(monkeypatch):
    """From here on a call of ``linalg.solve`` fails the test."""
    def forbidden(*args):
        raise AssertionError("linalg.solve called")
    monkeypatch.setattr(linalg, "solve", forbidden)


def solve_answer(solve):
    """What ``solve()`` returns, or the class and message it raises."""
    try:
        return solve()
    except linalg.LinearSolveError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", [
    F16, default_field(8), default_field(10), default_field(16),
    GF(20, 0x100009), GF.from_prime(13), GF.from_prime(19)],
    ids=["w4", "w8", "w10", "w16", "w20", "from_prime_13", "from_prime_19"])
def test_closed_form_row_solves_equal_the_generic_solve(field):
    """A row code's closed form (Bjorck-Pereyra) returns the symbols, or
    raises the class and message, of a plain LinearCode's scalar solve
    over the same checks: for u = 1 and G16's strengths 2, 4 and 8, every
    e <= u on seeded columns, survivors clean and with one changed, and
    for w <= 8 blocks of L = 1, 3 and N = 480 words; e = u + 1 raises the
    generic UnderdeterminedError."""
    rng = random.Random(field.w + field.alpha_order)
    n = min(30, field.alpha_order)
    nodes = [field.alpha_pow(j) for j in range(n)]
    blocks = (1, 3, 16 * 30) if field.w <= 8 else (1,)
    for u in (1, 2, 4, 8):
        check = linalg.vandermonde(field, nodes, u)
        code, plain = gpc._RowCode(check, nodes), LinearCode(check)
        for e in range(u + 2):
            cols = tuple(sorted(rng.sample(range(n), e)))
            for block in blocks:
                words = []
                for _ in range(block):
                    word = [rng.randrange(1 << field.w) for _ in range(n)]
                    plain.fill(word, tuple(range(n - u, n)))
                    words.append(word)
                for flip in (False, True):
                    known = [[0 if c in cols else v for c, v in enumerate(w)]
                             for w in words]
                    if flip:
                        j = rng.choice([c for c in range(n) if c not in cols])
                        known[-1][j] ^= rng.randrange(1, 1 << field.w)
                    syndrome = plain.syndrome(linalg.pack_blocks(known), block)
                    got = solve_answer(lambda: code.solve_syndrome(
                        syndrome, cols, block))
                    assert got == solve_answer(lambda: plain._solve(
                        syndrome, cols, block)), (u, e, block, flip)
                    if e > u:
                        assert got == (linalg.UnderdeterminedError,
                                       f"rank {u} < {e} unknowns")
                    elif not flip:
                        assert got == linalg.pack_blocks(
                            [[w[c] for c in cols] for w in words])
        assert code._plans == {}


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
def test_row_plans_match_scalar_solves(decoder, encoders, monkeypatch):
    """Row codes solve in closed form with the outputs and errors of the
    generic scalar solve, hold no plan, and call no linalg.solve."""
    rng = random.Random(131)
    codes = list(grid_codes_over_wider_fields()) + [FLAGSHIP, G16]
    scalar_row_solves(monkeypatch)
    cases = [(p, arr) for p in codes for arr in decode_cases(p, rng)]
    expected = [outcome(decoder, arr, p) for p, arr in cases]
    monkeypatch.undo()
    encoders.clear()
    monkeypatch.setattr(gpc, "_VIEWS", encoders)
    forbid_solve(monkeypatch)
    solves = record_row_solves(monkeypatch)
    # a solve keeps no state: a repeat gives the same answer
    for (p, arr), want in zip(cases, expected):
        for _ in range(2):
            assert outcome(decoder, arr, p) == want
    solved = {id(code) for code, _, _ in solves}
    for p in codes:
        assert id(encoders[p].levels[0]) in solved
        assert row_plans(encoders[p]) == []


def shared_column_cases(params, rng):
    """Damaged codewords whose erasures put many rows on the same
    columns: u_0 whole columns, or one whole column and one whole row;
    clean survivors and one flipped survivor each."""
    word = rand_codeword(params, rng)
    cases = []
    for lost in (rng.sample(range(params.n), params.u[0]),
                 rng.sample(range(params.n), 1)):
        pattern = {(r, c) for r in range(params.m) for c in lost}
        if len(lost) == 1:
            row = rng.randrange(params.m)
            pattern |= {(row, c) for c in range(params.n)}
        damaged = erase_positions(word, pattern)
        flipped = damaged.copy()
        r, c = rng.choice([(r, c) for r in range(params.m)
                           for c in range(params.n) if (r, c) not in pattern])
        flipped.fill(r, c, flipped.values[r][c] ^ 1)
        cases += [damaged, flipped]
    return cases


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
def test_grouped_row_repairs_match_scalar_reference(decoder, encoders,
                                                    monkeypatch):
    """Rows that share their erased columns repair as one block, in
    closed form, with the output and errors of the scalar solves."""
    rng = random.Random(173)
    codes = list(grid_codes_over_wider_fields()) + [FLAGSHIP, G16, K_EQ_M]
    scalar_row_solves(monkeypatch)
    cases = [(p, arr) for p in codes
             for arr in shared_column_cases(p, rng) + decode_cases(p, rng)]
    expected = [outcome(decoder, arr, p) for p, arr in cases]
    monkeypatch.undo()
    encoders.clear()
    monkeypatch.setattr(gpc, "_VIEWS", encoders)
    solves = record_row_solves(monkeypatch)
    for _ in range(2):
        for (p, arr), want in zip(cases, expected):
            assert outcome(decoder, arr, p) == want
    assert max(block for _, _, block in solves) >= G16.m - 1
    assert all(row_plans(view) == [] for view in encoders.values())


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
def test_flipped_survivor_in_grouped_rows_raises(decoder, encoders,
                                                 monkeypatch):
    """G16 loses one whole column: all 16 rows repair as one block of
    level 0 with a check row to spare, so any flipped survivor raises."""
    rng = random.Random(179)
    word = rand_codeword(G16, rng)
    col = rng.randrange(G16.n)
    damaged = erase_positions(word, [(r, col) for r in range(G16.m)])
    solves = record_row_solves(monkeypatch)
    for _ in range(3):
        assert decoder(damaged, G16) == word
        bad = damaged.copy()
        r = rng.randrange(G16.m)
        c = rng.choice([c for c in range(G16.n) if c != col])
        bad.fill(r, c, bad.values[r][c] ^ rng.randrange(1, 256))
        with pytest.raises(UncorrectableError) as exc_info:
            decoder(bad, G16)
        assert exc_info.value.remaining == set(damaged.erased_positions())
    level0 = encoders[G16].levels[0]
    assert solves.count((level0, (col,), G16.m)) == 6
    assert row_plans(encoders[G16]) == []


def test_wide_field_never_builds_blocks(encoders, monkeypatch):
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                  field=default_field(10))
    solves = record_row_solves(monkeypatch)
    rng = random.Random(181)
    for _ in range(3):
        rand_codeword(p, rng)
    for arr in shared_column_cases(p, rng):
        for decoder in (decode_rows, decode_iterative):
            outcome(decoder, arr, p)
    assert solves and {block for _, _, block in solves} == {1}
    assert encoders[p].encoder.map is None


def test_row_plan_cache_is_bounded_lru(monkeypatch):
    # a plain LinearCode of FLAGSHIP's level-0 row checks, with a budget
    # of two plans; each batch fills row 0 at one column and tests the
    # five rows after it as one block of no erasures, a syndrome test
    # that holds no slot
    level0 = LinearCode(component_parity_check(FLAGSHIP, 0))
    monkeypatch.setattr(linalg, "_PLAN_BUDGET", 2 * level0._plan_bytes)
    steps = []

    def step(syndrome, erased, block=1):
        steps.append((erased, block))
        return LinearCode.solve_syndrome(level0, syndrome, erased, block)

    monkeypatch.setattr(level0, "solve_syndrome", step)
    word = rand_codeword(FLAGSHIP, random.Random(133))
    for c in (1, 2, 1, 1, 3):
        rows = [row[:] for row in word.values]
        rows[0][c] = 0
        level0.fill_rows(rows, {(c,): [0], (): range(1, FLAGSHIP.m)})
        assert rows == word.values
        assert steps == [((c,), 1), ((), 5)] and () not in level0._plans
        steps.clear()
    rows = level0._plans
    # column 2 was the least recently used when column 3 came
    assert list(rows) == [(1,), (3,)]
    assert rows[(1,)].map is not None and rows[(3,)].map is None


def test_wide_field_never_compiles_row_plans(encoders, monkeypatch):
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                  field=default_field(10))
    forbid_solve(monkeypatch)
    solves = record_row_solves(monkeypatch)
    rng = random.Random(137)
    for arr in decode_cases(p, rng):
        for _ in range(10):
            outcome(decode_iterative, arr, p)
    assert solves and row_plans(encoders[p]) == []
    assert encoders[p].encoder.map is None


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
@pytest.mark.parametrize("p", [
    GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
              field=default_field(10)),
    GpcParams(m=4, n=6, k=4, s=(2, 2), u=(1, 2), field=default_field(10))],
    ids=["flagship", "k_eq_m"])
def test_clean_wide_field_decode_runs_no_solve(decoder, p, encoders,
                                               monkeypatch):
    """Over GF(2^10) a row with no erasure is a syndrome test: a clean
    array decodes with no call of linalg.solve, and a changed symbol
    still raises ContradictionError, also with k = m, where no vanishing
    combination would show it.  A row with an erasure solves in closed
    form, with no call of linalg.solve either."""
    calls = []
    real = linalg.solve
    monkeypatch.setattr(linalg, "solve",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(239)
    for _ in range(4):
        word = rand_codeword(p, rng)
        assert decoder(word, p) == word
        r, c = rng.randrange(p.m), rng.randrange(p.n)
        bad = word.copy()
        bad.fill(r, c, bad.values[r][c] ^ rng.randrange(1, 1 << 10))
        with pytest.raises(ContradictionError):
            decoder(bad, p)
    solves = record_row_solves(monkeypatch)
    assert decoder(erase_positions(word, [(0, 0)]), p) == word
    assert (encoders[p].levels[0], (0,), 1) in solves
    assert calls == []


@pytest.mark.parametrize("field", [GF(20, 0x100009), GF.from_prime(19)],
                         ids=["w20", "from_prime_19"])
def test_gpc_over_a_field_without_tables(field, monkeypatch):
    """PLUS_ONE's shape (d = 6) over fields with no exp/log tables, where
    every product runs GF.mul: encode is systematic and gives members;
    a changed symbol is no member.  Both decoders recover a full-budget
    profile (5, 2, 1, 1) and refuse a codeword's support, decode_rows by
    raising and decode_iterative by stalling.  That support with a
    changed survivor in row 3, which has no erasure, raises
    ContradictionError naming every erased cell: only row 3's own checks
    see the change, since no peel runs.  Row solves run in closed form
    on GF.mul and GF.inv, with no call of linalg.solve."""
    p = GpcParams(m=4, n=5, k=3, s=(2, 2), u=(1, 2), field=field)
    assert field._log is None
    forbid_solve(monkeypatch)
    rng = random.Random(269 + field.w)
    data = [rng.randrange(1 << field.w) for _ in range(p.dimension())]
    word = encode(data, p)
    parity = p.parity_positions()
    assert [v for r, row in enumerate(word.values)
            for c, v in enumerate(row) if (r, c) not in parity] == data
    assert is_member(word, p)
    bad = word.copy()
    bad.fill(2, 3, bad.values[2][3] ^ rng.randrange(1, 1 << field.w))
    assert not is_member(bad, p)
    rows = [(3, c) for c in range(5)] + [(1, 0), (1, 4), (0, 2), (2, 1)]
    stall = min_weight_codeword(p, 0, rows=range(3), cols=range(2))
    support = [(r, c) for r in range(3) for c in range(2)
               if stall.values[r][c]]
    for decoder in (decode_rows, decode_iterative):
        damaged = erase_positions(word, rows)
        assert decoder(damaged, p) == word
        hidden = erase_positions(word, support)
        if decoder is decode_rows:
            with pytest.raises(UncorrectableError) as refused:
                decoder(hidden, p)
            assert type(refused.value) is UncorrectableError
        else:
            assert decoder(hidden, p).erasure_count
        hidden.fill(3, 3, hidden.values[3][3] ^ 1)
        with pytest.raises(ContradictionError) as caught:
            decoder(hidden, p)
        assert caught.value.remaining == set(support)


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
@pytest.mark.parametrize("value", [-1, 16, 20, 300])
def test_out_of_field_survivor_raises(decoder, value, encoders, monkeypatch):
    p = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F16)
    word = rand_codeword(p, random.Random(139))
    damaged = erase_positions(word, [(0, 0)])   # row 0 repairs locally
    bad = damaged.copy()
    bad.values[0][1] = value
    with pytest.raises(ValueError, match="survivor out of field range"):
        decoder(bad, p)
    # row 0's closed form runs on exp/log lookups, which an out-of-field
    # survivor would index past or alias
    solves = record_row_solves(monkeypatch)
    for _ in range(2):
        assert decoder(damaged, p) == word
    assert solves.count((encoders[p].levels[0], (0,), 1)) == 2
    assert row_plans(encoders[p]) == []
    with pytest.raises(ValueError, match="survivor out of field range"):
        decoder(bad, p)


@pytest.mark.parametrize("field", [F16, default_field(8), default_field(10),
                                   GF(20, 0x100009)],
                         ids=["w4", "w8", "w10", "w20"])
@pytest.mark.parametrize("bad", [1.5, 2.0, "3", None])
def test_symbols_that_are_no_int_raise_the_range_error(field, bad):
    """A float, a string or None among the data, the symbols of a word
    or its survivors raises the same ValueError as an int outside the
    field, before any work, from every entry point and at every width."""
    p = GpcParams(m=4, n=5, k=3, s=(2, 2), u=(1, 2), field=field)
    code = build_h2(3, 3, field)
    rng = random.Random(239)
    word = rand_codeword(p, rng)
    flat = lc_encode([rng.randrange(1 << field.w)
                      for _ in range(code.dimension)], code)
    data = [1] * (p.dimension() - 1) + [bad]
    changed = word.copy()
    changed.values[1][2] = bad
    cases = [("data symbol", encode, data, p),
             ("symbol", is_member, changed, p),
             ("survivor", decode_rows, erase_positions(changed, [(0, 0)]), p),
             ("data symbol", lc_encode, [1] * (code.dimension - 1) + [bad],
              code),
             ("survivor", lc_erasure_decode, flat[:-1] + [bad], {0}, code)]
    for what, fn, *args in cases:
        with pytest.raises(ValueError, match=f"^{what} out of field range$"):
            fn(*args)
    assert decode_rows(erase_positions(word, [(0, 0)]), p) == word


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
            assert is_member(SymbolArray(zip(*arr.values)), q)
        for _ in range(5):
            brr = rand_codeword(q, rng)
            assert is_member(SymbolArray(zip(*brr.values)), p)


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


def test_min_weight_codeword_single_row_when_k_equals_m():
    # k = m leaves no vanishing combinations, so level t-1 takes one row
    p = GpcParams(m=4, n=6, k=4, s=(2, 2), u=(1, 3), field=F8)
    w = min_weight_codeword(p, 1, rows=[2], cols=[0, 2, 3, 5])
    assert is_member(w, p)
    support = {(r, c) for r in range(4) for c in range(6) if w.values[r][c]}
    assert support == {(2, c) for c in [0, 2, 3, 5]}
    assert len(support) == 4 == p.min_distance()


# ------------------------------------------------------- invalid params

@pytest.mark.parametrize("bad", [
    GpcParams(m=3, n=4, k=2, s=(2, 2), u=(1, 2), field=F8),
    GpcParams(m=4, n=8, k=3, s=(4,), u=(2,), field=F8),
    GpcParams(m=4, n=5, k=2, s=(2, 2), u=(2, 1), field=F8),
    GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3), field=F8)],
    ids=["sum_s", "field_size", "u_order", "level_count"])
def test_entry_points_raise_the_violations_on_invalid_params(bad):
    message = re.escape("; ".join(bad.violations()))
    arr = SymbolArray.zeros(bad.m, bad.n)
    calls = [lambda: encode([0], bad), lambda: decode_rows(arr, bad),
             lambda: decode_iterative(arr, bad), lambda: is_member(arr, bad),
             lambda: min_weight_codeword(bad, 0, [0], [0]),
             lambda: full_parity_matrix(bad),
             lambda: decoder_oracle_equivalence(bad, 1, 0)]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert bad not in gpc._VIEWS


def test_an_equal_params_hits_its_view_after_a_type_check(monkeypatch):
    """A params equal to a cached view's but not the same object hits
    that view after checking only its types, which are all that can tell
    two equal params apart: violations() does not run again, and a count
    of another type, equal to the int, is still refused."""
    view = gpc._view(G16)
    calls = []
    monkeypatch.setattr(GpcParams, "violations",
                        lambda self: calls.append(self) or [])
    same = GpcParams(*G16)
    assert same == G16 and same is not G16
    assert gpc._view(same) is view and calls == []
    for bad, message in ((same._replace(n=30.0), "n must be an int"),
                         (same._replace(s=(8, 4.0, 4)), "s[1] must be an "
                          "int")):
        assert bad == G16
        with pytest.raises(ValueError, match=re.escape(message)):
            gpc._view(bad)
    assert calls == []


def test_column_views_of_the_grid_are_valid():
    # decode_iterative validates the column view when it builds it
    views = [p.transposed() for p in _small_param_grid() if p.k < p.m]
    assert len(views) == 543     # of the 1246 grid codes
    assert all(q.violations() == [] for q in views)


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
    with pytest.raises(ValueError, match="ragged rows"):
        SymbolArray([[1, 2], [3]])
    with pytest.raises(ValueError, match="mask shape mismatch"):
        SymbolArray([[1, 2]], erased=[[True]])


def test_symbol_array_copy_zeroes_erased_cells():
    arr = SymbolArray([[1, 2, 3], [4, 5, 6]])
    arr.erase(0, 2)
    arr.values[0][2] = 9                  # junk written past the mask
    arr.values[1][0] = 8
    dup = arr.copy()
    assert dup.values == [[1, 2, 0], [8, 5, 6]]
    assert dup.erased == arr.erased and dup.erased is not arr.erased
    assert all(a is not b for a, b in zip(dup.values, arr.values))
    assert all(a is not b for a, b in zip(dup.erased, arr.erased))
    dup.values[1][1] = 7
    dup.erase(1, 2)
    assert arr.values[1] == [8, 5, 6] and not arr.erased[1][2]
    assert dup.flatten() == [1, 2, 0, 8, 7, 0]


@pytest.mark.parametrize("position", [(-1, 0), (0, -1), (10**9, 0), (0, 3),
                                      (2, 0), (0.0, 1), (0, 1.0), ("0", 1),
                                      (None, 1)],
                         ids=["negative row", "negative column", "huge row",
                              "column past the end", "row past the end",
                              "float row", "float column", "string row",
                              "None row"])
def test_a_position_outside_the_array_raises_value_error(position):
    """erase_positions, SymbolArray.erase and SymbolArray.fill take only
    int positions in range: a negative one never wraps around to the
    end, and the array is left as it was."""
    arr = SymbolArray([[1, 2, 3], [4, 5, 6]])
    for call in (lambda: erase_positions(arr, [(1, 1), position]),
                 lambda: arr.erase(*position),
                 lambda: arr.fill(*position, 7)):
        with pytest.raises(ValueError, match=r"not in the 2x3 array"):
            call()
        assert arr == SymbolArray([[1, 2, 3], [4, 5, 6]])
