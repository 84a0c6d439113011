"""Property tests: the gpc decoders on every small code with seeded
patterns, the compiled erasure plans of linear codes against the scalar
solve and against plans built from scratch, the compiled maps' columns,
and the elimination kernel's column order and its two row forms.  Each
test walks every value of its discrete inputs with ``random.Random``
generators seeded by the case, and a failure names its case."""

import random
from contextlib import contextmanager
from functools import reduce
from itertools import combinations, groupby, islice, product
from operator import xor

import pytest

from gpcodes import epc, gpc
from gpcodes.epc import LinearCode, build_h2, build_h3
from gpcodes.fields import GF, default_field, field_with_order
from gpcodes.linalg import (ByteMap, Matrix, PlanSlot, UnderdeterminedError,
                            _eliminate, _work_rows, combine, null_space,
                            pack_blocks, rank, row_form, row_reduce,
                            unpack_block, vandermonde)
from gpcodes.gpc import (ContradictionError, ErasureProfile, GpcParams,
                         UncorrectableError, decodable_profile,
                         decode_iterative, decode_rows, encode,
                         erase_positions, full_parity_matrix)
from gpcodes.oracle import correctable, random_decodable_pattern
from test_acceptance import _small_param_grid
from test_gpc import FLAGSHIP, G16


@contextmanager
def named(*labels):
    """Name the case in any failure raised inside the block."""
    try:
        yield
    except Exception as exc:
        raise AssertionError("case " + ", ".join(map(str, labels))) from exc


def small_codes():
    """Every valid code with m <= 5, n <= 6 and at most 3 levels, 850 in
    all: each split s of m, each t strengths u below n, and each k with
    0 <= m - k < s[-1], in runs of equal (n, t)."""
    codes = []
    for n in range(2, 7):
        for t in range(1, min(3, n - 1) + 1):
            for m in range(t, 6):
                field = field_with_order(max(m, n))
                for cuts in combinations(range(1, m), t - 1):
                    s = tuple(b - a for a, b in zip([0, *cuts], [*cuts, m]))
                    for u in combinations(range(1, n), t):
                        for k in range(m - s[-1] + 1, m + 1):
                            params = GpcParams(m, n, k, s, u, field)
                            assert params.violations() == []
                            codes.append(params)
    return codes


def _codeword_and_pattern(params, seed):
    rng = random.Random(seed)
    word = encode([rng.randrange(1 << params.field.w)
                   for _ in range(params.dimension())], params)
    if rng.random() < 0.5:
        pattern = random_decodable_pattern(params, rng)
    else:
        cells = [(r, c) for r in range(params.m) for c in range(params.n)]
        pattern = set(rng.sample(cells, rng.randint(1, len(cells))))
    return rng, word, pattern


def test_decoders_on_clean_codewords():
    codes = small_codes()
    assert len(codes) == 850
    for seed, params in enumerate(codes):
        with named(params.notation(), f"seed {seed}"):
            _, word, pattern = _codeword_and_pattern(params, seed)
            damaged = erase_positions(word, pattern)
            out = decode_iterative(damaged, params)
            for r in range(params.m):
                for c in range(params.n):
                    assert out.erased[r][c] or \
                        out.values[r][c] == word.values[r][c]
            if not out.erasure_count:
                assert correctable([r * params.n + c for r, c in pattern],
                                   full_parity_matrix(params))
            if decodable_profile(ErasureProfile.from_array(damaged), params):
                assert decode_rows(damaged, params) == word


def test_contradictions_name_their_cells():
    for seed, params in enumerate(small_codes()):
        with named(params.notation(), f"seed {seed}"):
            rng, word, pattern = _codeword_and_pattern(params, seed)
            survivors = [(r, c) for r in range(params.m)
                         for c in range(params.n) if (r, c) not in pattern]
            if not survivors:
                continue
            damaged = erase_positions(word, pattern)
            r, c = rng.choice(survivors)
            damaged.fill(r, c, damaged.values[r][c]
                         ^ rng.randrange(1, 1 << params.field.w))
            for decoder in (decode_rows, decode_iterative):
                try:
                    decoder(damaged, params)
                except UncorrectableError as exc:
                    # a flip with no erasure raises with no cell to name
                    assert exc.remaining <= set(pattern)
                    assert exc.remaining or not pattern


def _locally_repaired_and_flipped(params, rng, count):
    """``count`` damaged codewords of ``params``, each with at most u_0
    erasures in every row (the first with none) and one survivor flipped:
    the local repairs fill every row, so only the vanishing combinations
    can see the flip."""
    word = encode([rng.randrange(1 << params.field.w)
                   for _ in range(params.dimension())], params)
    out = []
    for i in range(count):
        pattern = {(r, c) for r in range(params.m) for c in rng.sample(
            range(params.n), rng.randint(0, params.u[0]) if i else 0)}
        damaged = erase_positions(word, pattern)
        r, c = rng.choice([(r, c) for r in range(params.m)
                           for c in range(params.n) if (r, c) not in pattern])
        damaged.fill(r, c, damaged.values[r][c]
                     ^ rng.randrange(1, 1 << params.field.w))
        out.append((damaged, frozenset(pattern)))
    return out


def test_a_flip_behind_local_repairs_is_reported():
    """With k < m every decode applies the m - k vanishing combinations,
    arrays with no erasures included.  Power row 0 sums all rows, so a
    flip that the local repairs spread through its row always breaks it:
    10 patterns on each of the 425 small codes with k < m, and 100 each
    on G16 and the flagship."""
    codes = [(p, 10) for p in small_codes() if p.k < p.m]
    assert len(codes) == 425
    codes += [(G16, 100), (FLAGSHIP, 100)]
    for seed, (params, count) in enumerate(codes):
        rng = random.Random(seed)
        for damaged, pattern in _locally_repaired_and_flipped(params, rng,
                                                              count):
            for decoder in (decode_rows, decode_iterative):
                with named(params.notation(), f"seed {seed}",
                           decoder.__name__, sorted(pattern)):
                    try:
                        decoder(damaged, params)
                    except UncorrectableError as exc:
                        assert exc.remaining == pattern
                    else:
                        raise AssertionError("decoded a non-codeword")


def test_a_flip_in_a_row_with_no_erasure_is_reported():
    """Every row with at most u_0 erasures repairs in the weakest row
    code, rows with none included, so a flip in a row that the pattern
    leaves clean always breaks that row's level-0 checks, whatever the
    pattern does elsewhere, beyond the budgets too: 4 patterns on each of
    the 850 small codes, k = m included, and 40 each on G16, the
    flagship and the flagship over GF(2^10)."""
    wide = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                     field=default_field(10))
    codes = [(p, 4) for p in small_codes()]
    codes += [(G16, 40), (FLAGSHIP, 40), (wide, 40)]
    for seed, (params, count) in enumerate(codes):
        rng = random.Random(seed)
        top = 1 << params.field.w
        word = encode([rng.randrange(top) for _ in range(params.dimension())],
                      params)
        cells = [(r, c) for r in range(params.m) for c in range(params.n)]
        for _ in range(count):
            r, c = rng.choice(cells)
            others = [cell for cell in cells if cell[0] != r]
            pattern = frozenset(rng.sample(others,
                                           rng.randint(0, len(others))))
            damaged = erase_positions(word, pattern)
            damaged.fill(r, c, damaged.values[r][c] ^ rng.randrange(1, top))
            for decoder in (decode_rows, decode_iterative):
                with named(params.notation(), f"seed {seed}",
                           decoder.__name__, (r, c), sorted(pattern)):
                    with pytest.raises(ContradictionError) as caught:
                        decoder(damaged, params)
                    assert caught.value.remaining == pattern


@pytest.mark.parametrize("params", [
    G16, FLAGSHIP, GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                             field=default_field(10))],
    ids=["G16", "flagship", "flagship/w10"])
def test_is_member_equals_the_full_parity_checks(params):
    """is_member, which reads every row's level-0 syndrome from one
    block for w <= 8 and row by row past it, against
    ``full_parity_matrix(params).mul_vec``, on seeded codewords, on each
    with one symbol changed at every position, and on each with a word
    of the level-0 row code added into one row, which passes every row
    check.  The checks of a word with one changed symbol are the
    codeword's plus the change times that position's column."""
    f = params.field
    h = full_parity_matrix(params)
    columns = list(zip(*h.data))
    level0 = gpc.component_parity_check(params, 0)
    cols = range(params.u[0] + 1)
    (row_word,) = null_space(level0.submatrix(cols))
    rng = random.Random(433)
    for _ in range(2):
        word = encode([rng.randrange(1 << f.w)
                       for _ in range(params.dimension())], params)
        flat = word.flatten()
        assert gpc.is_member(word, params) and not any(h.mul_vec(flat))
        for j, column in enumerate(columns):
            delta = rng.randrange(1, 1 << f.w)
            changed = word.copy()
            r, c = divmod(j, params.n)
            changed.values[r][c] ^= delta
            with named(params.notation(), j, delta):
                assert gpc.is_member(changed, params) == \
                    (not any(f.mul(delta, x) for x in column))
        for r in range(params.m):
            added = word.copy()
            for c, x in zip(cols, row_word):
                added.values[r][c] ^= x
            with named(params.notation(), r):
                assert gpc.is_member(added, params) == \
                    (not any(h.mul_vec(added.flatten())))


def test_the_triangulation_is_the_newton_basis(monkeypatch):
    """``_triangulated_system(view, order, m)``, the echelon form of the
    power weights alpha^(r * order[j]), equals the Newton basis over the
    nodes x_j = alpha^order[j]: row p, entry j is the product over i < p
    of (x_j + x_i) / (x_p + x_i).  So no entry past a pivot is zero, and
    the peel never meets a zero weight.  On every criterion-6 code and
    G16, at two seeded row orders each; a smaller system of a seeded
    size nsys <= m is the prefix of its nsys rows (no row swaps), and
    equals ``row_reduce`` of its power weights built apart."""
    monkeypatch.setattr(gpc, "_VIEWS", {})
    for i, params in enumerate([*_small_param_grid(), G16]):
        f, m = params.field, params.m
        view = gpc._view(params)
        rng = random.Random(i)
        for _ in range(2):
            order = tuple(rng.sample(range(m), m))
            x = [f.alpha_pow(r) for r in order]
            newton, prods = [], [1] * m     # prods[j]: over i < p
            for p in range(m):
                scale = f.inv(prods[p])
                newton.append([f.mul(scale, v) for v in prods])
                prods = [f.mul(v, xj ^ x[p]) for v, xj in zip(prods, x)]
            got = gpc._triangulated_system(view, order, m).data
            nsys = rng.randint(1, m)
            fresh = row_reduce(Matrix(f, [[f.alpha_pow(r * j) for j in order]
                                          for r in range(nsys)]))
            with named(params.notation(), order, nsys):
                assert got == newton
                assert all(all(row[p + 1:]) for p, row in enumerate(got))
                assert gpc._triangulated_system(view, order, nsys) == fresh
                assert fresh.data == newton[:nsys]


def test_compiled_encoder_matches_scalar():
    # Each code compiles its encoder, so the walk takes every 15th code
    # of each (n, t) run, its first included: 58 codes of every shape.
    codes = [params for _, run in groupby(small_codes(),
                                          lambda p: (p.n, p.t))
             for params in islice(run, 0, None, 15)]
    for seed, params in enumerate(codes):
        with named(params.notation(), f"seed {seed}"):
            rng = random.Random(seed)
            compiled = gpc._compile_encoder(gpc._view(params))
            parity = compiled.parity
            for _ in range(3):
                data = [rng.randrange(1 << params.field.w)
                        for _ in range(params.dimension())]
                expected = gpc._encode_pass(data, gpc._view(params))
                symbols = [*data, *parity.image(data)]
                rows = [list(row(symbols)) for row in compiled.rows]
                assert rows == expected.values


# h2 and h3 codes over GF(2^4..2^8), and the benchmark's H2(15, 17).
# Their check matrices, as plain LinearCodes whose decode is the generic
# fill, are built on first use and shared by the cases: the local-first
# decode of build_h2's and build_h3's own codes seldom reaches a plan.
PLAN_CODES = {
    "h2(3,3)/w4": lambda: build_h2(3, 3, default_field(4)),
    "h3(3,4)/w4": lambda: build_h3(3, 4, default_field(4)),
    "h2(4,5)/w5": lambda: build_h2(4, 5, default_field(5)),
    "h3(3,5)/w5": lambda: build_h3(3, 5, default_field(5)),
    "h2(5,6)/w6": lambda: build_h2(5, 6, default_field(6)),
    "h3(4,6)/w6": lambda: build_h3(4, 6, default_field(6)),
    "h2(6,7)/w7": lambda: build_h2(6, 7, default_field(7)),
    "h3(5,7)/w7": lambda: build_h3(5, 7, default_field(7)),
    "h2(7,9)/w8": lambda: build_h2(7, 9, default_field(8)),
    "h3(6,8)/w8": lambda: build_h3(6, 8, default_field(8)),
    "H2(15,17)": lambda: build_h2(15, 17),
}
_BUILT: dict[str, LinearCode] = {}
_GENERIC: dict[str, LinearCode] = {}


def _decode_outcome(values, erased, code):
    """The decoded word, or the error's class, message and cells."""
    try:
        return epc.lc_erasure_decode(list(values), erased, code)
    except UncorrectableError as exc:
        return type(exc), str(exc), exc.remaining


def test_erasure_plan_matches_the_solve():
    cases = product(sorted(PLAN_CODES), ("clean", "flipped", "dependent"),
                    range(5))
    for seed, (name, kind, _) in enumerate(cases):
        with named(name, kind, f"seed {seed}"):
            if name not in _GENERIC:
                _GENERIC[name] = LinearCode(PLAN_CODES[name]().check_matrix)
            code = _GENERIC[name]
            rng = random.Random(seed)
            top = 1 << code.field.w
            word = epc.lc_encode([rng.randrange(top)
                                  for _ in range(code.dimension)], code)
            r = code.redundancy
            # more erasures than the rank are always dependent; fewer may be
            size = rng.randint(r + 1, min(r + 3, code.length)) \
                if kind == "dependent" else rng.randint(1, r)
            erased = frozenset(rng.sample(range(code.length), size))
            values = [0 if j in erased else v for j, v in enumerate(word)]
            survivors = [j for j in range(code.length) if j not in erased]
            if kind == "flipped" and survivors:
                values[rng.choice(survivors)] ^= rng.randrange(1, top)
            # a fresh copy of the code decodes the pattern once: the
            # scalar solve
            fresh = LinearCode(code.check_matrix)
            expected = _decode_outcome(values, erased, fresh)
            slot = PlanSlot()
            slot.uses = 1           # the next decode compiles the plan
            code._plans[tuple(sorted(erased))] = slot
            for _ in range(2):
                assert _decode_outcome(values, erased, code) == expected
            # dependent patterns are never compiled; with contradicting
            # survivors they report the contradiction, as the solve does
            cols = sorted(erased)
            dependent = rank(code.check_matrix.submatrix(cols=cols)) < size
            assert (slot.map is None) == dependent
            if kind != "flipped":
                assert expected == (word if not dependent else (
                    UncorrectableError,
                    f"{size} erased positions span a dependent column set",
                    erased))


def _local_first_equals_generic(code, patterns, rng):
    """Decode a random codeword of ``code`` under each pattern, clean and
    with one survivor flipped, both with ``code`` and with the plain
    LinearCode of its check matrix; the outcomes must be equal."""
    generic = LinearCode(code.check_matrix)
    top = 1 << code.field.w
    word = epc.lc_encode([rng.randrange(top)
                          for _ in range(code.dimension)], generic)
    outcomes = []
    for erased in patterns:
        values = [0 if j in erased else v for j, v in enumerate(word)]
        cases = [("clean", values)]
        survivors = [j for j in range(code.length) if j not in erased]
        if survivors:
            flipped = list(values)
            flipped[rng.choice(survivors)] ^= rng.randrange(1, top)
            cases.append(("flipped", flipped))
        for kind, values in cases:
            with named(kind, sorted(erased)):
                expected = _decode_outcome(values, erased, generic)
                assert _decode_outcome(values, erased, code) == expected
                outcomes.append(expected)
    return outcomes


def _kind(outcome):
    if type(outcome) is list:
        return "word"
    return "dependent" if "dependent" in outcome[1] else "inconsistent"


# Small h2 and h3 codes, w <= 8 and w > 8, and the stride of the walk
# over their erasure patterns as bit masks: every pattern of every
# weight, and every 5th on the slow scalar field of GF.from_prime(13):
# an odd stride, so that every cell is erased in some.
SMALL_GRID_CODES = {
    "h2(3,3)": (lambda: build_h2(3, 3), 1),
    "h2(3,4)": (lambda: build_h2(3, 4), 1),
    "h3(3,4)": (lambda: build_h3(3, 4), 1),
    "h3(2,5)": (lambda: build_h3(2, 5), 1),
    "h3(3,3)/w10": (lambda: build_h3(3, 3, GF(10, 0x7ff)), 1),
    "h3(3,3)/w20": (lambda: build_h3(3, 3, GF(20, 0x100009)), 1),
    "h3(3,4)/p13": (lambda: build_h3(3, 4, GF.from_prime(13)), 5),
}


def test_local_first_decode_equals_the_generic_fill_on_every_pattern():
    kinds = set()
    for seed, (name, (build, stride)) in enumerate(SMALL_GRID_CODES.items()):
        with named(name):
            code = build()
            patterns = [frozenset(c for c in range(code.length)
                                  if bits >> c & 1)
                        for bits in range(0, 1 << code.length, stride)]
            kinds.update(map(_kind, _local_first_equals_generic(
                code, patterns, random.Random(seed))))
    assert kinds == {"word", "dependent", "inconsistent"}


def test_local_first_decode_equals_the_generic_fill_on_stopping_sets():
    # build_h2(15, 17) with 2 x 2 rectangles and 3 x 3 squares, stopping
    # sets of the peel, plus up to three more cells; and no erasures.
    code = build_h2(15, 17)
    rng = random.Random(31)
    patterns = [frozenset()]
    for side in (2, 2, 2, 3) * 6:
        rows = rng.sample(range(code.m), side)
        cols = rng.sample(range(code.n), side)
        extra = rng.sample(range(code.length), rng.randint(0, 3))
        patterns.append(frozenset(r * code.n + c for r in rows
                                  for c in cols).union(extra))
    outcomes = _local_first_equals_generic(code, patterns, rng)
    assert set(map(_kind, outcomes)) == {"word", "dependent", "inconsistent"}
    # the residuals reached the plan cache, each within its pattern
    assert code._plans and all(any(set(key) <= erased for erased in patterns)
                               for key in code._plans)


def low_rank_rows(field, rng, nrows, ncols):
    """``nrows`` random rows of ``ncols`` symbols that span a random
    number of dimensions, at most ``nrows``."""
    top = 1 << field.w
    basis = [[rng.randrange(top) for _ in range(ncols)]
             for _ in range(rng.randint(1, nrows))]
    form = row_form(field)
    return [combine(field, [(rng.randrange(1, top), form(b)) for b in basis],
                    ncols) for _ in range(nrows)]


def test_eliminate_on_a_column_order_equals_the_permuted_copy():
    # Pivoting on ``order`` must act as eliminating the copy whose columns
    # are permuted into that order (the rest after it) on its leading
    # len(order) columns: the same pivots, and the same rows.  The rows
    # are built by _work_rows (bytes for w <= 8, lists for GF(2^12)), or
    # as int lists on every field.
    fields = [default_field(4), default_field(8), GF.from_prime(13)]
    cases = product(fields, (False, True), (False, True), range(13))
    for seed, (field, full, helper, _) in enumerate(cases):
        with named(field, f"full={full}", f"helper={helper}", f"seed {seed}"):
            rng = random.Random(seed)
            ncols = rng.randint(1, 9)
            rows = low_rank_rows(field, rng, rng.randint(1, 7), ncols)
            if rng.random() < 0.3:
                zero = rng.randrange(ncols)
                for row in rows:
                    row[zero] = 0
            order = rng.sample(range(ncols), rng.randint(0, ncols))
            perm = order + [c for c in range(ncols) if c not in order]
            copy = [[row[c] for c in perm] for row in rows]
            if helper:
                rows, copy = _work_rows(field, rows), _work_rows(field, copy)
            copy_pivots = _eliminate(copy, field, range(len(order)), full)
            assert _eliminate(rows, field, order, full) == [
                perm[c] for c in copy_pivots]
            assert [[row[c] for c in perm] for row in rows] == [
                list(row) for row in copy]


def test_eliminate_on_bytes_rows_equals_the_list_loop():
    # The product-table rows of w <= 8 and the int-list reference loop
    # give the same pivots and the same rows: on random rank deficits,
    # zero and repeated columns, and any column order.
    fields = [default_field(w) for w in range(2, 9)] + [GF(4, modulus=0b11111)]
    for seed, (field, full, _) in enumerate(product(fields, (False, True),
                                                    range(10))):
        with named(field, f"full={full}", f"seed {seed}"):
            rng = random.Random(seed)
            ncols = rng.randint(1, 10)
            rows = low_rank_rows(field, rng, rng.randint(1, 8), ncols)
            for _ in range(rng.randint(0, 2)):
                dst = rng.randrange(ncols)
                src = rng.choice([None, *range(ncols)])
                for row in rows:
                    row[dst] = 0 if src is None else row[src]
            order = rng.sample(range(ncols), rng.randint(0, ncols))
            work = _work_rows(field, rows)
            assert all(type(row) is bytes for row in work)
            assert _eliminate(work, field, order, full) == _eliminate(
                rows, field, order, full)
            assert [list(row) for row in work] == rows


def test_strided_bytemap_columns_equal_the_zip_reference():
    # ByteMap cuts column j from the joined rows as joined[j::size]; the
    # reference transposes the rows with zip.  Its image of a word is the
    # rows times the word by GF.mul, and its image of L words side by
    # side in blocks is, block by block, their images.  Case i has seed
    # i; the first two are fixed, the rest draw their row count, size and
    # block.
    draw = random.Random(0)
    cases = [(default_field(8), 1, 7, 1), (default_field(3), 1, 1, 2)]
    cases += [(field, draw.randint(1, 8), draw.randint(1, 12),
               draw.choice((1, 2, 5)))
              for field, _ in product([default_field(w) for w in range(2, 9)],
                                      range(24))]
    for seed, (field, nrows, size, block) in enumerate(cases):
        with named(field, f"{nrows} rows", f"size {size}", f"block {block}",
                   f"seed {seed}"):
            rng = random.Random(seed)
            top = 1 << field.w
            rows = [bytes(rng.randrange(top) for _ in range(size))
                    for _ in range(nrows)]
            plan = ByteMap(field, rows)
            assert plan.columns == [bytes(col) for col in zip(*rows)]
            assert plan.height == nrows
            words = [[rng.randrange(top) for _ in range(size)]
                     for _ in range(block)]
            words[0][rng.randrange(size)] = 0
            expected = [[reduce(xor, map(field.mul, row, word), 0)
                         for row in rows] for word in words]
            assert [plan.image(word) for word in words] == expected
            got = plan.image(pack_blocks(words), block)
            assert [list(w) for w in zip(*(unpack_block(v, block)
                                           for v in got))] == expected


# G16's level row codes and the benchmark's H2.
ROW_PLAN_CODES = {
    **{f"G16/{i}": (lambda h=h: LinearCode(h))
       for i, h in enumerate(gpc._level_checks(G16))},
    "H2(15,17)": lambda: build_h2(15, 17),
}


def _map(plan):
    return None if plan is None else (plan.height, plan.columns)


def _reference_plan(code, erased):
    """_map of the plan built from scratch: a fresh elimination of the
    R x (|E| + R) rows [H_E | I] on their first |E| columns, its columns
    transposed with zip; the map is the part that was I."""
    h, e = code.check_matrix, len(erased)
    rows = _work_rows(h.field, ([row[c] for c in erased]
                                + [int(i == k) for k in range(h.rows)]
                                for i, row in enumerate(h.data)))
    if len(_eliminate(rows, h.field, range(e), full=True)) < e:
        return None
    return len(rows), [bytes(col) for col in zip(*rows)][e:]


def test_plans_from_a_codes_rows_equal_erasure_plan():
    # A code compiles its plans from check rows it keeps as bytes; they
    # must equal the plan built from scratch, dependent patterns (None)
    # included, and leave the kept rows as they were.
    cases = product(sorted(ROW_PLAN_CODES), range(30))
    for seed, (name, _) in enumerate(cases):
        with named(name, f"seed {seed}"):
            if name not in _BUILT:
                _BUILT[name] = ROW_PLAN_CODES[name]()
            code = _BUILT[name]
            h = code.check_matrix
            rng = random.Random(seed)
            size = rng.randint(1, min(h.rows + 2, code.length))
            erased = tuple(sorted(rng.sample(range(code.length), size)))
            fresh = _reference_plan(code, erased)
            plan = code._compile(erased)
            assert _map(plan) == fresh
            # it sends the erased columns of H to the unit vectors on the
            # erased symbols, with every residual check zero
            for i, c in enumerate(erased if plan else ()):
                assert plan.image([row[c] for row in h.data]) == [
                    int(i == k) for k in range(h.rows)]
            # through fill: a block of two words compiles on its first use
            code._plans.clear()
            word = [0] * code.length
            if fresh is None:
                with pytest.raises(UnderdeterminedError):
                    code.fill(word, erased, 2)
            else:
                code.fill(word, erased, 2)
            assert _map(code._plans[erased].map) == fresh
            assert code._rows == _work_rows(code.field, h.data)
            assert (fresh is None) == (rank(h.submatrix(cols=erased)) < size)


@pytest.mark.parametrize("w", range(2, 9))
def test_fold_batch_syndromes_equal_each_rows_syndrome(w):
    """A row code's batch syndrome, one fold call over the rows' bytes,
    holds each row's LinearCode.syndrome at its byte offset, and equals
    the batch syndrome of a plain LinearCode with the same checks, which
    has no fold: for every batch size from 1 to m = 6, blocks of one,
    two and five bytes, and strengths 1, 2 and n - 1."""
    field = default_field(w)
    n, m = min(9, field.alpha_order), 6
    nodes = [field.alpha_pow(j) for j in range(n)]
    top = 1 << w
    rng = random.Random(601 + w)
    for u in sorted({1, 2, n - 1}):
        check = vandermonde(field, nodes, u)
        code, plain = gpc._RowCode(check, nodes, m), LinearCode(check)
        for count, block in product(range(1, m + 1), (1, 2, 5)):
            with named(w, u, count, block):
                rows = [[int.from_bytes(bytes(rng.randrange(top)
                                              for _ in range(block)),
                                        "little") for _ in range(n)]
                        for _ in range(count)]
                got = code.batch_syndrome(rows, block)
                assert got == plain.batch_syndrome(rows, block)
                assert [unpack_block(v, count, block) for v in got] == [
                    list(col) for col in zip(*(code.syndrome(row, block)
                                               for row in rows))]
