"""Tests for matrices, elimination, solving and Kronecker products."""

import random
import tracemalloc

import pytest

from gpcodes import gpc, linalg
from gpcodes.epc import build_h2, build_h3
from gpcodes.fields import GF, default_field
from gpcodes.gpc import (GpcParams, component_parity_check, encode,
                         full_parity_matrix)
from gpcodes.linalg import (Fold, LinearCode, Matrix, NoSolutionError,
                            PlanSlot, SplitMap, UnderdeterminedError, combine,
                            kron, null_space, pack_blocks, rank, row_form,
                            row_reduce, solve, unpack_block, vandermonde,
                            vstack)
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


def test_identity_and_mul_vec():
    rng = random.Random(11)
    eye3 = Matrix.identity(F16, 3)
    assert eye3.data == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    v = [rng.randrange(16) for _ in range(3)]
    assert eye3.mul_vec(v) == v
    empty = Matrix.identity(F16, 0)
    assert (empty.rows, empty.cols, empty.data) == (0, 0, [])


def test_shape_and_field_mismatches_raise():
    a = Matrix(F16, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="vector length mismatch"):
        a.mul_vec([1])
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
    """row_reduce keeps the row space of random matrices and returns
    them in row echelon form with unit pivots."""
    rng = random.Random(23)
    for trial in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = rand_matrix(F16, rows, cols, rng)
        r = row_reduce(m)
        assert (r.rows, r.cols) == (m.rows, m.cols)
        assert rank(vstack([m, r])) == rank(m) == rank(r)
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
    # result is unit upper triangular and its row p a combination of the
    # input's rows 0..p: what the gpc peel relies on.
    nodes = [F8.alpha_pow(j) for j in [1, 4, 2, 3, 0, 5]]
    vm = vandermonde(F8, nodes, 4)
    r = row_reduce(vm)
    for i in range(4):
        assert r.data[i][i] == 1
        for j in range(i):
            assert r.data[i][j] == 0
        assert rank(Matrix(F8, vm.data[:i + 1] + [r.data[i]])) == i + 1


def test_rank():
    assert rank(Matrix.identity(F16, 5)) == 5
    assert rank(Matrix(F16, [[0] * 4 for _ in range(3)])) == 0
    m = Matrix(F16, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])  # row1 = 2*row0
    assert rank(m) == 2
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(F16, 4, 3, rng)
        assert rank(a) == rank(Matrix(F16, list(zip(*a.data))))


def _mul_eliminate(rows, field, cols, full):
    # _eliminate's loop with one GF.mul per entry, as a reference: the
    # same pivot choice, scaling and row updates, in place on int lists.
    mul, nrows = field.mul, len(rows)
    pivots = []
    for col in cols:
        p = len(pivots)
        if p == nrows:
            break
        sel = next((i for i in range(p, nrows) if rows[i][col]), None)
        if sel is None:
            continue
        rows[sel], rows[p] = rows[p], rows[sel]
        inv = field.inv(rows[p][col])
        prow = rows[p] = [mul(inv, v) for v in rows[p]]
        for i in range(0 if full else p + 1, nrows):
            factor = rows[i][col]
            if factor and i != p:
                rows[i] = [v ^ mul(factor, q) for v, q in zip(rows[i], prow)]
        pivots.append(col)
    return pivots


@pytest.mark.parametrize("field", [
    default_field(3), default_field(8), default_field(9), default_field(10),
    default_field(12), default_field(16), GF.from_prime(13),
    GF(20, 0x100009)], ids=repr)
@pytest.mark.parametrize("full", [False, True])
def test_eliminate_on_int_lists_equals_the_mul_reference(field, full):
    # Int-list rows are cleared through the exp/log tables for w <= 16
    # and with GF.mul past them; both give the reference's pivots and
    # rows, on sparse random rows, rank deficits and any column order.
    # For w <= 8 the bytes rows give them too.
    rng = random.Random(field.w * 2 + full)
    top = 1 << field.w
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 9)
        rows = [[rng.randrange(top) if rng.random() < 0.7 else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:
            g = rng.randrange(1, top)
            rows[-1] = [field.mul(g, v) for v in rows[0]]
        order = rng.sample(range(ncols), rng.randint(0, ncols))
        want = [row[:] for row in rows]
        pivots = _mul_eliminate(want, field, order, full)
        work = [row[:] for row in rows]
        assert linalg._eliminate(work, field, order, full) == pivots
        assert work == want
        if field.w <= 8:
            work = linalg._work_rows(field, rows)
            assert type(work[0]) is bytes
            assert linalg._eliminate(work, field, order, full) == pivots
            assert [list(row) for row in work] == want


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
    # (A kron B)(x kron y) == Ax kron By, both vectors row-major
    rng = random.Random(41)
    for rows_a, cols_a, rows_b, cols_b in ((2, 3, 2, 2), (3, 2, 1, 4),
                                           (1, 1, 3, 2)):
        a = rand_matrix(F16, rows_a, cols_a, rng)
        b = rand_matrix(F16, rows_b, cols_b, rng)
        x = [rng.randrange(16) for _ in range(cols_a)]
        y = [rng.randrange(16) for _ in range(cols_b)]
        left = kron(a, b).mul_vec([F16.mul(p, q) for p in x for q in y])
        right = [F16.mul(p, q) for p in a.mul_vec(x) for q in b.mul_vec(y)]
        assert left == right


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
        # one check map per code for w <= 8, kept through fills; a fill
        # of no erasures is the syndrome test, with no plan slot
        checks = code._checks
        assert (checks is None) == (code.field.w > 8), name
        if code.field.w <= 8:
            assert checks.columns == [bytes(col) for col in zip(*h.data)]
            code.syndrome(words[-1])
            code.fill(list(words[0]), (), 2)
            assert code._checks is checks, name
        for word in words:
            try:
                code.fill(list(word), ())
            except NoSolutionError:
                assert any(h.mul_vec(word)), name
            else:
                assert not any(h.mul_vec(word)), name
        assert () not in code._plans, name
        with pytest.raises(ValueError, match="length"):
            code.syndrome([0] * (code.length + 1))
    ws = {int(n.split("/w")[1].split("/")[0]) for n in names
          if n.startswith("C(")}
    assert ws == set(range(3, 9)) and len(names) > 20


def _block_syndrome_codes():
    """(name, code): G16's level codes, and build_h2's and build_h3's
    codes over GF(2^4) and GF(2^8)."""
    for i, h in enumerate(gpc._level_checks(G16)):
        yield f"G16/{i}", LinearCode(h)
    for w in (4, 8):
        yield f"h2(3,4)/w{w}", build_h2(3, 4, default_field(w))
        yield f"h3(3,5)/w{w}", build_h3(3, 5, default_field(w))


def test_block_syndrome_equals_per_word_syndromes():
    """The syndrome of L words side by side in blocks is, block by
    block, the syndromes of the single words, the grid syndrome of
    build_h2's and build_h3's codes included; a wide field takes no
    blocks."""
    rng = random.Random(233)
    for name, code in _block_syndrome_codes():
        top = 1 << code.field.w
        for count in (2, 3, 7):
            words = [[rng.randrange(top) for _ in range(code.length)]
                     for _ in range(count)]
            words[0] = [0] * code.length
            words[1][rng.randrange(code.length)] = 0
            got = code.syndrome(pack_blocks(words), count)
            assert _unpacked(got, count) == [code.syndrome(w) for w in words]
            assert len(got) == code.check_matrix.rows, name
    wide = build_h3(3, 3, GF(10, 0x7ff))
    with pytest.raises(ValueError, match="w <= 8"):
        wide.syndrome([0] * wide.length, 2)


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
    form, blocks = row_form(field), row_form(field, count)
    expected = [combine(field, [(g, form(rows[i])) for g, rows in terms],
                        width) for i in range(count)]
    got = combine(field, [(g, blocks(pack_blocks(rows))) for g, rows in terms],
                  width, count)
    assert _unpacked(got, count) == expected


@pytest.mark.parametrize("field", [default_field(4), default_field(8),
                                   default_field(10)], ids=["w4", "w8", "w10"])
def test_fold_equals_the_weighted_row_sums(field):
    """Fold's halvings give sum_r b^r row_r, the sum combine takes, for
    every row count from 1 to 17, so with an odd count at every
    halving, for b = 1, alpha and a random base, on rows of one to three
    bytes, in one group or repeated groups each summed on its own; a
    field without product tables takes only sums."""
    rng = random.Random(211)
    top = 1 << field.w
    for rows in range(1, 18):
        for size, repeat in ((1, 1), (3, 1), (1, 4), (2, 3)):
            bases = [1, field.alpha_pow(1), rng.randrange(2, top)]
            fold = Fold(field, rows, size, bases, repeat)
            groups = [[[rng.randrange(top) for _ in range(size)]
                       for _ in range(rows)] for _ in range(repeat)]
            sums = [[combine(field, [(field.pow(b, r), row_form(field)(row))
                                     for r, row in enumerate(group)], size)
                     for group in groups] for b in bases]
            assert fold.sums(groups[0]) == [own[0] for own in sums]
            if field.mul_tables is None:
                with pytest.raises(ValueError, match="w <= 8"):
                    fold(0)
                continue
            gap = bytes((rows - 1) * size)
            word = b"".join(bytes(v for row in group for v in row)
                            for group in groups)
            assert fold(int.from_bytes(word, "little")) == [
                int.from_bytes(gap.join(map(bytes, own)), "little")
                for own in sums], (rows, size, repeat)


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
        assert split.image(symbols) == expected.to_bytes(height, "little")


@pytest.mark.parametrize("compiled", [False, True], ids=["solve", "plan"])
def test_block_fill_equals_per_word_fills(compiled, monkeypatch):
    """A fill of L words side by side in blocks writes what L fills of
    the single words write, and a flipped survivor in any one of the
    words raises, leaving the block word as it was."""
    rng = random.Random(167)
    if not compiled:
        # no map fits: the block fill solves word by word
        monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", 0)
    # each code with a bound on its erasures below d - 1, so a flip
    # always shows: a level code's check rows, and 6 on build_h2's code
    # (d = 8), whose plans read its grid syndrome and fill word by word
    codes = [(code, code.check_matrix.rows) for code in _level_codes()]
    for code, most in codes + [(build_h2(4, 5), 7)]:
        top = 1 << code.field.w
        erased = tuple(sorted(rng.sample(range(code.length),
                                         rng.randrange(most))))
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
        if compiled and erased:
            # this block compiles the plan
            slot = code._plans[erased] = PlanSlot()
            slot.uses = 1
        packed = pack_blocks(words)
        code.fill(packed, erased, block)
        assert _unpacked(packed, block) == expected
        # a draw of no erasures is a syndrome test and holds no slot
        assert (erased in code._plans) == bool(erased)
        if erased:
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
    return (lambda: code._plans.get(erased),
            lambda block: code.fill(pack_blocks([word] * block), erased,
                                    block))


@pytest.mark.parametrize("case", ["G16_encoder", "G16_row_plan",
                                  "H2_plan", "H2_no_erasures",
                                  "G16_block_of_two"])
def test_every_map_compiles_on_its_second_use(case, monkeypatch):
    """PlanSlot's one rule: every kind of compiled map stays scalar on
    its first single use and compiles on its second, a block of two
    words as the second use included.  A fill of no erasures compiles
    nothing and holds no slot, however often it runs."""
    monkeypatch.setattr(gpc, "_VIEWS", {})
    slot, use = _rule_case(case)
    if case == "H2_no_erasures":
        for block in (1, 1, 2, 3):
            use(block)
            assert slot() is None
        return
    use(1)
    assert slot().map is None and slot().uses == 1
    use(2 if case == "G16_block_of_two" else 1)
    assert slot().map is not None


@pytest.mark.parametrize("build", [lambda: _levels(G16)[0],
                                   lambda: build_h2(3, 4)],
                         ids=["G16_level_0", "h2(3,4)"])
def test_a_fill_of_no_erasures_is_its_syndrome_test(build):
    """A fill of no erasures tests that the syndrome vanishes and holds
    no plan slot: three codewords pass, one by one and as a block of
    three, and a changed symbol in one word raises NoSolutionError,
    leaving the word or the block as it was."""
    code = build()
    rng = random.Random(233)
    top = 1 << code.field.w
    parity = code.parity_positions()
    words = []
    for _ in range(3):
        word = [0 if j in parity else rng.randrange(top)
                for j in range(code.length)]
        code.fill(word, parity)
        words.append(word)
    code._plans.clear()
    for word in words:
        out = list(word)
        code.fill(out, ())
        assert out == word
    packed = pack_blocks(words)
    code.fill(packed, (), 3)
    assert packed == pack_blocks(words)
    assert code._plans == {}
    # word 1 alone, then word 2 of the block, changed at position j
    j = rng.randrange(code.length)
    for bad, block, flip in ((list(words[1]), 1, 1),
                             (pack_blocks(words), 3, 1 << 16)):
        bad[j] ^= flip
        before = list(bad)
        with pytest.raises(NoSolutionError):
            code.fill(bad, (), block)
        assert bad == before
    assert code._plans == {}


# ------------------------------------------------------------ batch fills

BATCH_FIELDS = [default_field(4), default_field(8), default_field(10),
                GF(20, 0x100009)]
BATCH_IDS = ["w4", "w8", "w10", "w20"]


def _batch(field, block, rng):
    """A row code of length 7 with 4 checks over ``field``, rows of
    ``block``-byte blocks of codewords with their erased cells zeroed,
    and the groups of a batch fill: 1 to 3 rows each, one group of no
    erasures, the rows of a group not side by side in ``rows``."""
    code = LinearCode(vandermonde(field, [field.alpha_pow(j)
                                          for j in range(7)], 4))
    top, parity = 1 << field.w, code.parity_positions()
    patterns = [(1,), (), (0, 4), (2, 5, 6)]
    sizes = [1, 2, 3, 2]
    slots = [i for i, g in enumerate(sizes) for _ in range(g)]
    rng.shuffle(slots)
    groups = {cols: [] for cols in patterns}
    rows = []
    for r, i in enumerate(slots):
        words = []
        for _ in range(block):
            word = [0 if j in parity else rng.randrange(top)
                    for j in range(code.length)]
            code.fill(word, parity)
            words.append(_written(word, patterns[i], [0] * len(patterns[i])))
        rows.append(pack_blocks(words))
        groups[patterns[i]].append(r)
    return code, rows, groups


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("field", BATCH_FIELDS, ids=BATCH_IDS)
def test_a_batch_fill_equals_per_row_fills(field, block):
    """LinearCode.fill_rows writes what a fill of each row alone writes,
    with one syndrome of the whole batch for w <= 8 and row by row past
    it.  A wide field takes no blocks: given rows of its symbols as
    blocks of three bytes, the batch raises ValueError before it writes,
    as each row's fill does."""
    wide = field.w > 8
    code, rows, groups = _batch(field, 1 if wide else block,
                                random.Random(251 + field.w))
    if wide and block > 1:
        before = [list(row) for row in rows]
        with pytest.raises(ValueError, match="w <= 8"):
            code.fill(list(rows[0]), (), block)
        with pytest.raises(ValueError, match="w <= 8"):
            code.fill_rows(rows, groups, block)
        assert rows == before
        return
    expected = [list(row) for row in rows]
    for cols, part in groups.items():
        for r in part:
            code.fill(expected[r], cols, block)
    assert any(row != out for row, out in zip(rows, expected))
    code._plans.clear()
    code.fill_rows(rows, groups, block)
    assert rows == expected
    assert set(code._plans) == set(groups) - {()}


@pytest.mark.parametrize("field", BATCH_FIELDS, ids=BATCH_IDS)
def test_a_contradicting_group_leaves_the_groups_after_it_unwritten(field):
    """A changed survivor in the last row of any one group, the group of
    no erasures included, raises NoSolutionError: the groups before it
    in ``groups`` stay filled, and its own rows and those of the groups
    after it are left as they were."""
    rng = random.Random(263 + field.w)
    code, rows, groups = _batch(field, 1, rng)
    filled = [list(row) for row in rows]
    code.fill_rows(filled, groups)
    for i, (cols, part) in enumerate(groups.items()):
        r = part[-1]
        bad = [list(row) for row in rows]
        j = rng.choice([j for j in range(code.length) if j not in cols])
        bad[r][j] ^= 1
        before = [list(row) for row in bad]
        with pytest.raises(NoSolutionError):
            code.fill_rows(bad, groups)
        done = {s for part in list(groups.values())[:i] for s in part}
        assert bad == [filled[s] if s in done else before[s]
                       for s in range(len(rows))], cols


def test_long_code_compiles_a_small_pattern_on_its_second_use(monkeypatch):
    """G16's full parity code is charged R * (R + 64) + 256 held bytes
    per plan, whatever the pattern, so a pattern of 10 erasures compiles
    on its second fill, an R x R map of the syndrome; each fill restores
    the codeword."""
    monkeypatch.setattr(gpc, "_VIEWS", {})
    code = LinearCode(full_parity_matrix(G16))
    rows = code.check_matrix.rows
    assert code._plan_bytes == rows * (rows + 64) + 256
    assert code._plan_bytes <= linalg.MAP_BYTES_LIMIT
    word = encode([(5 * i) % 256 for i in range(G16.dimension())],
                  G16).flatten()
    erased = tuple(r * G16.n + r for r in range(10))
    for _ in range(2):
        damaged = _written(word, erased, [0] * len(erased))
        code.fill(damaged, erased)
        assert damaged == word
    slot = code._plans[erased]
    assert slot.uses == 2 and slot.map.height == rows
    assert [len(col) for col in slot.map.columns] == [rows] * rows


@pytest.mark.parametrize("build, size, plans",
                         [(lambda: LinearCode(component_parity_check(G16, 0)),
                           2, 400),
                          (_g16_level_1, 4, None),
                          (lambda: build_h2(15, 17), 7, None)],
                         ids=["G16_level_0", "G16_level_1", "H2(15,17)"])
def test_held_plans_stay_within_the_budget(build, size, plans, monkeypatch):
    """More distinct patterns than a code's plan limit, each compiled:
    the plans held take at most the budget by tracemalloc, at most
    ``_plan_bytes`` each, and the least recently used went first.  G16's
    level 0 has 435 patterns of size 2, fewer than 1 MiB holds, so its
    budget is ``plans`` plans."""
    code = build()
    code.syndrome([0] * code.length)        # the check map is no slot
    if plans:
        monkeypatch.setattr(linalg, "_PLAN_BUDGET", plans * code._plan_bytes)
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
    """Every block entry point refuses blocks of L > 1 words over
    GF(2^10) and GF(2^20), which have no product tables, with the one
    block rule's error and before it writes anything; L = 1 runs."""
    for f in (default_field(10), GF(20, 0x100009)):
        code = LinearCode(vandermonde(f, [f.alpha_pow(j) for j in range(5)],
                                      2))
        word, rows = [0, 1, 2, 0, 0], [[0, 1, 2, 0, 0], [3, 0, 4, 0, 0]]
        syndrome = [5, 6]
        calls = [lambda: linalg.scaler(f, 2),
                 lambda: combine(f, [(3, [1, 2, 3, 4, 5])], 5, 2),
                 lambda: code.syndrome(word, 2),
                 lambda: code.fill(word, (3, 4), 2),
                 lambda: code.fill_rows(rows, {(3, 4): [0, 1]}, 2),
                 lambda: code.solve_syndrome(syndrome, (3, 4), 2),
                 lambda: code.solve_syndrome(syndrome, (), 2)]
        for call in calls:
            with pytest.raises(ValueError,
                               match=r"^blocks need a field with w <= 8$"):
                call()
        assert word == [0, 1, 2, 0, 0] and syndrome == [5, 6]
        assert rows == [[0, 1, 2, 0, 0], [3, 0, 4, 0, 0]]
        assert linalg.scaler(f)(3, 5) == f.mul(3, 5)
        code.fill(word, (3, 4))
        assert not any(code.syndrome(word))


def _solve_answer(solve_it):
    """What ``solve_it()`` returns, or the class and message it raises."""
    try:
        return solve_it()
    except linalg.LinearSolveError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", [F8, default_field(8), default_field(10),
                                   default_field(16), GF(20, 0x100009)],
                         ids=["w3", "w8", "w10", "w16", "w20"])
def test_vandermonde_solve_equals_the_generic_solve(field):
    """solve_vandermonde, on exp/log lookups up to w = 16 and with
    GF.mul on GF(2^20), which has no tables, returns what solve returns
    on the erased check columns for every e <= u, and its error and
    message when a spare syndrome symbol is changed or e > u."""
    rng = random.Random(field.w + 719)
    n = min(12, field.alpha_order)
    nodes = [field.alpha_pow(j) for j in range(n)]
    top = 1 << field.w
    for u in (1, 2, 3, 5, 7):
        for e in range(min(u + 1, n) + 1):
            erased = [nodes[c] for c in sorted(rng.sample(range(n), e))]
            check = vandermonde(field, erased, u)
            x = [rng.randrange(top) for _ in range(e)]
            rhs = check.mul_vec(x) if e else [0] * u
            got = _solve_answer(lambda: linalg.solve_vandermonde(
                field, erased, list(rhs)))
            assert got == _solve_answer(lambda: solve(check, rhs)), (u, e)
            if e > u:
                assert got == (UnderdeterminedError, f"rank {u} < {e} "
                               "unknowns")
                continue
            assert got == x
            for r in range(e, u):
                bad = list(rhs)
                bad[r] ^= rng.randrange(1, top)
                assert _solve_answer(lambda: linalg.solve_vandermonde(
                    field, erased, bad)) == (NoSolutionError,
                                             "inconsistent system")
                assert _solve_answer(lambda: solve(check, bad))[0] is \
                    NoSolutionError
