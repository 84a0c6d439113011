"""Tests for matrices, elimination, solving and Kronecker products."""

import random
import tracemalloc

import pytest

from gpcodes import gpc, linalg
from gpcodes.epc import build_h2, build_h3
from gpcodes.fields import GF, default_field
from gpcodes.gpc import (GpcParams, component_parity_check, encode,
                         full_parity_matrix)
from gpcodes.linalg import (LinearCode, Matrix, NoSolutionError, PlanSlot,
                            SplitMap, UnderdeterminedError, combine, kron,
                            null_space, pack_blocks, rank, row_reduce, solve,
                            unpack_block, vandermonde, vstack)
from test_acceptance import _small_param_grid
from test_gpc import G16, grid_codes_over_wider_fields

F16 = default_field(4)
F8 = default_field(3)


def rand_matrix(field, rows, cols, rng):
    top = 1 << field.w
    return Matrix(field, [[rng.randrange(top) for _ in range(cols)]
                          for _ in range(rows)])


def test_matrix_basics():
    m = Matrix(F16, [[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.data[1][0] == 3
    assert m.submatrix(cols=[1]).data == [[2], [4], [6]]
    with pytest.raises(ValueError):
        Matrix(F16, [[1, 2], [3]])


def test_identity_and_matmul():
    rng = random.Random(11)
    a = rand_matrix(F16, 3, 4, rng)
    eye3 = Matrix.identity(F16, 3)
    eye4 = Matrix.identity(F16, 4)
    assert eye3.matmul(a).data == a.data
    assert a.matmul(eye4).data == a.data
    # (AB)v == A(Bv)
    b = rand_matrix(F16, 4, 5, rng)
    v = [rng.randrange(16) for _ in range(5)]
    assert a.matmul(b).mul_vec(v) == a.mul_vec(b.mul_vec(v))


def test_product_with_a_zero_column_right_factor_keeps_its_rows():
    a = Matrix(F16, [[1, 2], [3, 4], [5, 6]])
    prod = a.matmul(Matrix(F16, [[], []]))
    assert (prod.rows, prod.cols, prod.data) == (3, 0, [[], [], []])


def test_shape_and_field_mismatches_raise():
    a = Matrix(F16, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="vector length mismatch"):
        a.mul_vec([1])
    with pytest.raises(ValueError, match="inner dimension mismatch"):
        a.matmul(Matrix(F16, [[1, 2]]))
    with pytest.raises(ValueError, match="fields differ"):
        kron(a, Matrix(F8, [[1]]))
    with pytest.raises(ValueError, match="rhs length mismatch"):
        solve(a, [1])


def test_vstack():
    a = Matrix(F16, [[1, 2]])
    b = Matrix(F16, [[3, 4], [5, 6]])
    assert vstack([a, b]).data == [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ValueError):
        vstack([a, Matrix(F16, [[1, 2, 3]])])


def test_row_reduce_transform_identity():
    """row_reduce returns (r, t) with t @ m == r for random matrices."""
    rng = random.Random(23)
    for trial in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = rand_matrix(F16, rows, cols, rng)
        r, t = row_reduce(m)
        assert t.matmul(m).data == r.data
        # echelon shape: pivot columns strictly increase, pivots are 1
        last = -1
        for row in r.data:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                continue
            assert lead > last
            assert row[lead] == 1
            last = lead


def test_row_reduce_keeps_triangular_structure():
    # On a matrix with nonsingular leading minors no swaps happen, so the
    # result is unit upper triangular and the transform lower triangular.
    nodes = [F8.alpha_pow(j) for j in [1, 4, 2, 3, 0, 5]]
    vm = vandermonde(F8, nodes, 4)
    r, t = row_reduce(vm)
    for i in range(4):
        assert r.data[i][i] == 1
        for j in range(i):
            assert r.data[i][j] == 0
            assert t.data[j][i] == 0  # transform stays lower triangular


def test_rank():
    assert rank(Matrix.identity(F16, 5)) == 5
    assert rank(Matrix.zeros(F16, 3, 4)) == 0
    m = Matrix(F16, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])  # row1 = 2*row0
    assert rank(m) == 2
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(F16, 4, 3, rng)
        assert rank(a) == rank(Matrix(F16, list(zip(*a.data))))


def test_solve_unique():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        # random invertible matrix via random assembly + rank check
        while True:
            a = rand_matrix(F16, n, n, rng)
            if rank(a) == n:
                break
        x = [rng.randrange(16) for _ in range(n)]
        assert solve(a, a.mul_vec(x)) == x


def test_solve_overdetermined_consistent():
    a = Matrix(F16, [[1, 0], [0, 1], [1, 1]])
    assert solve(a, [3, 5, 6]) == [3, 5]
    with pytest.raises(NoSolutionError):
        solve(a, [3, 5, 7])


def test_solve_underdetermined():
    a = Matrix(F16, [[1, 2, 3]])
    with pytest.raises(UnderdeterminedError):
        solve(a, [4])


def test_null_space():
    rng = random.Random(29)
    for _ in range(25):
        m = rand_matrix(F16, rng.randint(1, 5), rng.randint(1, 6), rng)
        basis = null_space(m)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            assert not any(m.mul_vec(vec))
        # basis vectors are independent: stack and re-rank
        if basis:
            assert rank(Matrix(F16, basis)) == len(basis)


def test_vandermonde_values_and_validation():
    nodes = [F8.alpha_pow(j) for j in range(4)]
    vm = vandermonde(F8, nodes, 3)
    for r in range(3):
        for j in range(4):
            assert vm.data[r][j] == F8.pow(nodes[j], r)
    # square Vandermonde on distinct nonzero nodes is invertible
    assert rank(vandermonde(F8, nodes, 4)) == 4
    with pytest.raises(ValueError):
        vandermonde(F8, [1, 2, 1], 2)     # repeated node
    with pytest.raises(ValueError):
        vandermonde(F8, [0, 1], 2)        # zero node


def test_kron_shape_and_values():
    a = Matrix(F16, [[1, 2], [3, 4]])
    b = Matrix(F16, [[5, 6, 7]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 6)
    for i in range(2):
        for j in range(2):
            for x in range(1):
                for y in range(3):
                    assert k.data[i * 1 + x][j * 3 + y] == \
                        F16.mul(a.data[i][j], b.data[x][y])


def test_kron_mixed_product():
    # (A kron B)(C kron D) == AC kron BD
    rng = random.Random(41)
    a = rand_matrix(F16, 2, 3, rng)
    b = rand_matrix(F16, 2, 2, rng)
    c = rand_matrix(F16, 3, 2, rng)
    d = rand_matrix(F16, 2, 3, rng)
    left = kron(a, b).matmul(kron(c, d))
    right = kron(a.matmul(c), b.matmul(d))
    assert left.data == right.data


def test_kron_single_parity_product_code():
    """Row-major flattening convention pinned by a 2x3 product code.

    One overall row-sum check kron'd with per-row identity gives column
    sums; identity kron'd with the all-ones row gives row sums.
    """
    ones_m = Matrix(F16, [[1, 1]])
    ones_n = Matrix(F16, [[1, 1, 1]])
    col_checks = kron(ones_m, Matrix.identity(F16, 3))
    row_checks = kron(Matrix.identity(F16, 2), ones_n)
    word = [1, 2, 3, 1, 2, 3]  # two equal rows: all column sums vanish
    assert col_checks.mul_vec(word) == [0, 0, 0]
    assert row_checks.mul_vec(word) == [0, 0]
    word2 = [1, 2, 3, 4, 5, 6]
    assert col_checks.mul_vec(word2) == [5, 7, 5]
    assert row_checks.mul_vec(word2) == [0, 7]


# ------------------------------------------------------- LinearCode.fill

def _g16_level_1():
    return LinearCode(component_parity_check(G16, 1))


def _written(word, positions, symbols):
    """``word`` with ``symbols`` written at ``positions``."""
    out = list(word)
    for j, v in zip(positions, symbols):
        out[j] = v
    return out


@pytest.mark.parametrize("compiled", [False, True], ids=["solve", "plan"])
@pytest.mark.parametrize("build, erased",
                         [(_g16_level_1, (3, 17, 29)),
                          (lambda: build_h2(3, 3), (0, 4))],
                         ids=["G16_level_1", "h2(3,3)"])
def test_fill_ignores_the_erased_symbols(build, erased, compiled):
    """Whatever the erased positions hold, fill writes the one codeword
    that agrees with the survivors; a contradicting survivor raises."""
    rng = random.Random(151)
    code = build()
    h, top = code.check_matrix, 1 << code.field.w
    parity = code.parity_positions()
    word = [0 if j in parity else rng.randrange(top)
            for j in range(code.length)]
    code.fill(word, parity)
    assert not any(h.mul_vec(word))
    code._plans.clear()
    garbage = [rng.randrange(top) for _ in erased]
    flipped = list(word)
    flipped[next(j for j in range(code.length) if j not in erased)] ^= 1
    cases = [(word, word), (_written(word, erased, [0] * len(erased)), word),
             (_written(word, erased, garbage), word),
             (_written(flipped, erased, garbage), NoSolutionError)]
    for values, expected in cases:
        if compiled:
            slot = PlanSlot()
            slot.uses = 1                # this use compiles the plan
            code._plans[erased] = slot
        else:
            code._plans.clear()          # a first use: the scalar solve
        out = list(values)
        if expected is NoSolutionError:
            with pytest.raises(NoSolutionError):
                code.fill(out, erased)
        else:
            code.fill(out, erased)
            assert out == expected
        assert (code._plans[erased].map is not None) == compiled



# ------------------------------------------------------------ syndromes

def _grid_codes_w3_to_w8():
    """Ten criterion-6 grid codes, each over one of GF(2^3..2^8)."""
    grid = [p for p in _small_param_grid() if not p.violations()]
    out = []
    for i, p in enumerate(grid[::97]):
        q = GpcParams(p.m, p.n, p.k, p.s, p.u, default_field(3 + i % 6))
        if not q.violations():
            out.append(q)
    return out[:10]


def _levels(p):
    """New copies of the row codes of p's levels 0..t, level t's check
    the identity."""
    checks = [component_parity_check(p, i) for i in range(p.t)]
    checks.append(Matrix.identity(p.field, p.n))
    return [LinearCode(h) for h in checks]


def _syndrome_codes():
    """(name, code): G16's level codes, the benchmark's H2, an h3 code
    over GF(2^10) and the level codes of ten grid codes."""
    for i, code in enumerate(_levels(G16)):
        yield f"G16/{i}", code
    yield "H2(15,17)", build_h2(15, 17)
    yield "h3(3,3)/w10", build_h3(3, 3, GF(10, 0x7ff))
    for p in _grid_codes_w3_to_w8():
        for i, code in enumerate(_levels(p)):
            yield f"{p.notation()}/w{p.field.w}/{i}", code


def test_syndrome_equals_mul_vec():
    rng = random.Random(229)
    names = set()
    for name, code in _syndrome_codes():
        names.add(name)
        top = 1 << code.field.w
        h = code.check_matrix
        words = [[0] * code.length, [top - 1] * code.length]
        words += [[rng.randrange(top) for _ in range(code.length)]
                  for _ in range(8)]
        for word in words:
            assert code.syndrome(word) == h.mul_vec(word), name
        # one check map per code, shared with the fill of no erasures
        checks = code._checks
        assert (checks is None) == (code.field.w > 8), name
        if checks is not None:
            code.syndrome(words[-1])
            code.fill(list(words[0]), (), 2)
            assert code._checks is checks, name
            assert code._plans[()].map is checks, name
        with pytest.raises(ValueError, match="length"):
            code.syndrome([0] * (code.length + 1))
    ws = {int(n.split("/w")[1].split("/")[0]) for n in names
          if n.startswith("C(")}
    assert ws == set(range(3, 9)) and len(names) > 20


# ------------------------------------------------------------ blocks

def _level_codes():
    """The row codes of G16's levels and of ten grid codes over
    GF(2^4..2^8)."""
    for p in [G16, *grid_codes_over_wider_fields()]:
        for i in range(p.t):
            yield LinearCode(component_parity_check(p, i))


def _unpacked(word, count, block=1):
    """The ``count`` words packed into ``word`` by pack_blocks."""
    return [list(w) for w in zip(*(unpack_block(v, count, block)
                                   for v in word))]


def test_pack_blocks_roundtrip():
    words = [[1, 0, 255], [7, 9, 0]]
    assert pack_blocks(words) == [0x0701, 0x0900, 0x00ff]
    assert _unpacked(pack_blocks(words), 2) == words
    wide = [[0x0102, 0], [0x0304, 0xffff]]     # blocks of two bytes
    assert pack_blocks(wide, 2) == [0x03040102, 0xffff0000]
    assert _unpacked(pack_blocks(wide, 2), 2, 2) == wide


@pytest.mark.parametrize("field", [default_field(4), default_field(8),
                                   default_field(10)], ids=["w4", "w8", "w10"])
def test_combine_blocks_equal_per_word_sums(field):
    rng = random.Random(163)
    top, width, count = 1 << field.w, 5, 3
    terms = [(rng.randrange(1, top),
              [[rng.randrange(top) for _ in range(width)]
               for _ in range(count)]) for _ in range(4)]
    if field.w > 8:
        with pytest.raises(ValueError, match="w <= 8"):
            combine(field, [(1, [0] * width)], width, 2)
        return
    expected = [combine(field, [(g, rows[i]) for g, rows in terms], width)
                for i in range(count)]
    got = combine(field, [(g, pack_blocks(rows)) for g, rows in terms],
                  width, count)
    assert _unpacked(got, count) == expected


@pytest.mark.parametrize("w", range(2, 9))
def test_split_map_entries_are_the_column_products(w):
    """Every entry of a random map's split tables is its multiplier times
    the column, symbol by symbol with GF.mul, for every multiplier in
    the field; every symbol v maps to v times the column."""
    field = default_field(w)
    rng = random.Random(197 + w)
    top, height = 1 << w, rng.randrange(1, 40)
    columns = [bytes(rng.randrange(top) for _ in range(height))
               for _ in range(6)] + [bytes(height)]

    def times(v, col):
        return int.from_bytes(bytes(field.mul(v, x) for x in col), "little")

    split = SplitMap(field, columns)
    assert split.height == height
    for col, lo, hi in zip(columns, split.lo, split.hi):
        assert lo == tuple(times(t, col) for t in range(min(16, top)))
        assert hi == tuple(times(t << 4, col) for t in range(max(1, top >> 4)))
        assert all(lo[v & 15] ^ hi[v >> 4] == times(v, col)
                   for v in range(top))
    for _ in range(5):
        symbols = [rng.randrange(top) for _ in columns]
        expected = 0
        for v, col in zip(symbols, columns):
            expected ^= times(v, col)
        assert split.image(symbols) == expected


@pytest.mark.parametrize("compiled", [False, True], ids=["solve", "plan"])
def test_block_fill_equals_per_word_fills(compiled, monkeypatch):
    """A fill of L words side by side in blocks writes what L fills of
    the single words write, and a flipped survivor in any one of the
    words raises, leaving the block word as it was."""
    rng = random.Random(167)
    if not compiled:
        # no map fits: the block fill solves word by word
        monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", 0)
    for code in _level_codes():
        h, top = code.check_matrix, 1 << code.field.w
        # fewer erasures than check rows, so a flip always shows
        erased = tuple(sorted(rng.sample(range(code.length),
                                         rng.randrange(h.rows))))
        parity = code.parity_positions()
        words = []
        for _ in range(rng.randint(2, 5)):
            word = [0 if j in parity else rng.randrange(top)
                    for j in range(code.length)]
            code.fill(word, parity)
            words.append(_written(word, erased,
                                  [rng.randrange(top) for _ in erased]))
        expected = []
        for word in words:
            code._plans.clear()
            out = list(word)
            code.fill(out, erased)
            expected.append(out)
        block = len(words)
        code._plans.clear()
        if compiled:
            # this block compiles the plan, the empty pattern's too
            slot = code._plans[erased] = PlanSlot()
            slot.uses = 1
        packed = pack_blocks(words)
        code.fill(packed, erased, block)
        assert _unpacked(packed, block) == expected
        assert (code._plans[erased].map is not None) == compiled
        i = rng.randrange(block)
        j = rng.choice([j for j in range(code.length) if j not in erased])
        bad = pack_blocks(words)
        bad[j] ^= 1 << 8 * i
        before = list(bad)
        with pytest.raises(NoSolutionError):
            code.fill(bad, erased, block)
        assert bad == before


def test_block_uses_count_toward_the_compile():
    """A block of L words counts L uses: a slot compiles on the block
    that takes its count past one, and only then."""
    code = _g16_level_1()
    erased = (3, 17, 29)
    words = [[0] * code.length for _ in range(2)]
    code.fill(list(words[0]), erased)               # uses 0 -> 1
    assert code._plans[erased].map is None
    code._plans.clear()
    code.fill(pack_blocks(words), erased, 2)        # uses 0 -> 2 > 1
    slot = code._plans[erased]
    assert slot.map is not None and slot.uses == 2
    # one use, then a block of 2 compiles, at 3 uses
    slot = PlanSlot()
    assert slot.plan(G16.field, 1, lambda: "map") is None
    assert slot.plan(G16.field, 1, lambda: "map", uses=2) == "map"
    assert slot.uses == 3
    big = PlanSlot()
    assert big.plan(G16.field, 1, lambda: "map", uses=100) == "map"


def _rule_case(case):
    """The slot of one kind of compiled map, built fresh, and one use of
    it, ``use(block)``, on L = ``block`` words."""
    if case == "G16_encoder":
        data = [7] * G16.dimension()
        return (lambda: gpc._view(G16).encoder,
                lambda block: gpc.encode(data, G16))
    column = {i * 17 + 5 for i in range(15)}
    build, erased = {
        "G16_row_plan": (lambda: _levels(G16)[0], (3, 17)),
        "G16_block_of_two": (lambda: _levels(G16)[0], (3, 17)),
        "H2_plan": (lambda: build_h2(15, 17), tuple(sorted(column | {3, 40}))),
        "H2_no_erasures": (lambda: build_h2(15, 17), ()),
    }[case]
    code = build()
    word = [0] * code.length
    return (lambda: code._plans[erased],
            lambda block: code.fill(pack_blocks([word] * block), erased,
                                    block))


@pytest.mark.parametrize("case", ["G16_encoder", "G16_row_plan",
                                  "H2_plan", "H2_no_erasures",
                                  "G16_block_of_two"])
def test_every_map_compiles_on_its_second_use(case, monkeypatch):
    """PlanSlot's one rule: every kind of compiled map stays scalar on
    its first single use and compiles on its second, a block of two
    words as the second use included."""
    monkeypatch.setattr(gpc, "_VIEWS", {})
    slot, use = _rule_case(case)
    use(1)
    assert slot().map is None and slot().uses == 1
    use(2 if case == "G16_block_of_two" else 1)
    assert slot().map is not None


def test_long_code_compiles_a_small_pattern_on_its_second_use(monkeypatch):
    """G16's full parity code is charged N * (R + 64) held bytes per
    plan, whatever the pattern, so a pattern of 10 erasures compiles on
    its second fill; each fill restores the codeword."""
    monkeypatch.setattr(gpc, "_VIEWS", {})
    code = LinearCode(full_parity_matrix(G16))
    assert code._plan_bytes == code.length * (code.check_matrix.rows + 64)
    assert code._plan_bytes <= linalg.MAP_BYTES_LIMIT
    word = encode([(5 * i) % 256 for i in range(G16.dimension())],
                  G16).flatten()
    erased = tuple(r * G16.n + r for r in range(10))
    for _ in range(2):
        damaged = _written(word, erased, [0] * len(erased))
        code.fill(damaged, erased)
        assert damaged == word
    slot = code._plans[erased]
    assert slot.uses == 2 and slot.map is not None


@pytest.mark.parametrize("build, size",
                         [(_g16_level_1, 4), (lambda: build_h2(15, 17), 7)],
                         ids=["G16_level_1", "H2(15,17)"])
def test_held_plans_stay_within_the_budget(build, size):
    """More distinct patterns than a code's plan limit, each compiled:
    the plans held take at most the budget by tracemalloc, at most
    ``_plan_bytes`` each, and the least recently used went first."""
    code = build()
    code.syndrome([0] * code.length)        # the check map is no slot
    limit = linalg._PLAN_BUDGET // code._plan_bytes
    rng = random.Random(191)
    patterns = []
    while len(patterns) < limit + 10:
        erased = tuple(sorted(rng.sample(range(code.length), size)))
        if erased not in patterns:
            patterns.append(erased)
    word = [0] * code.length
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # a block of two words counts two uses: each compiles at once;
        # each key is a new tuple, as a decoder's are, so keys count too
        for erased in patterns[:limit] + patterns[:1] + patterns[limit:]:
            code.fill(list(word), tuple(list(erased)), 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(code._plans) == limit
    assert all(slot.map is not None for slot in code._plans.values())
    assert held <= limit * code._plan_bytes <= linalg._PLAN_BUDGET
    # pattern 0 was used again, so patterns 1 to 10 went first
    assert list(code._plans) == (patterns[11:limit] + patterns[:1]
                                 + patterns[limit:])


def test_linear_code_reads_field_and_length_from_its_check_matrix():
    h = component_parity_check(G16, 1)
    code = LinearCode(h)
    assert code.field is h.field
    assert code.length == h.cols == G16.n


def test_wide_field_block_fill_raises():
    f = default_field(10)
    code = LinearCode(vandermonde(f, [f.alpha_pow(j) for j in range(5)], 2))
    with pytest.raises(ValueError, match="w <= 8"):
        code.fill([0, 1, 2, 0, 0], (3, 4), 2)
