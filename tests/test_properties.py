"""Property tests: the gpc decoders on random small codes and patterns,
the compiled erasure plans of linear codes against the scalar solve and
against plans built from scratch, the compiled maps' columns, and the
elimination kernel's column order and its two row forms."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gpcodes import epc, gpc
from gpcodes.epc import LinearCode, build_h2, build_h3
from gpcodes.fields import GF, default_field, field_with_order
from gpcodes.linalg import (ByteMap, PlanSlot, UnderdeterminedError,
                            _eliminate, _work_rows, combine, rank)
from gpcodes.gpc import (ErasureProfile, GpcParams, UncorrectableError,
                         decodable_profile, decode_iterative, decode_rows,
                         encode, erase_positions, full_parity_matrix)
from gpcodes.oracle import correctable, random_decodable_pattern
from test_gpc import G16

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             derandomize=True, database=None)


@st.composite
def gpc_params(draw):
    """Any valid code with m <= 5, n <= 6 and at most 3 levels."""
    n = draw(st.integers(2, 6))
    t = draw(st.integers(1, min(3, n - 1)))
    m = draw(st.integers(t, 5))
    cuts = sorted(draw(st.permutations(range(1, m)))[:t - 1])
    s = tuple(b - a for a, b in zip([0, *cuts], [*cuts, m]))
    u = tuple(sorted(draw(st.permutations(range(1, n)))[:t]))
    # 0 <= m - k < s[-1]; simplest draw: the most all-parity rows
    k = m - s[-1] + 1 + draw(st.integers(0, s[-1] - 1))
    params = GpcParams(m, n, k, s, u, field_with_order(max(m, n)))
    assert params.violations() == []
    return params


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


@PROPERTY_SETTINGS
@given(gpc_params(), st.integers(0, 2**32 - 1))
def test_decoders_on_clean_codewords(params, seed):
    _, word, pattern = _codeword_and_pattern(params, seed)
    damaged = erase_positions(word, pattern)
    out = decode_iterative(damaged, params)
    for r in range(params.m):
        for c in range(params.n):
            assert out.erased[r][c] or out.values[r][c] == word.values[r][c]
    if not out.erasure_count:
        assert correctable([r * params.n + c for r, c in pattern],
                           full_parity_matrix(params))
    if decodable_profile(ErasureProfile.from_array(damaged), params):
        assert decode_rows(damaged, params) == word


@PROPERTY_SETTINGS
@given(gpc_params(), st.integers(0, 2**32 - 1))
def test_contradictions_name_their_cells(params, seed):
    rng, word, pattern = _codeword_and_pattern(params, seed)
    survivors = [(r, c) for r in range(params.m) for c in range(params.n)
                 if (r, c) not in pattern]
    if not survivors:
        return
    damaged = erase_positions(word, pattern)
    r, c = rng.choice(survivors)
    damaged.fill(r, c, damaged.values[r][c] ^ rng.randrange(1, 1 << params.field.w))
    for decoder in (decode_rows, decode_iterative):
        try:
            decoder(damaged, params)
        except UncorrectableError as exc:
            assert exc.remaining and exc.remaining <= set(pattern)


# Each example compiles its code, so fewer examples keep Tier-1 fast.
@settings(PROPERTY_SETTINGS, max_examples=50)
@given(gpc_params(), st.integers(0, 2**32 - 1))
def test_compiled_encoder_matches_scalar(params, seed):
    rng = random.Random(seed)
    compiled = gpc._compile_encoder(params)
    parity = compiled.parity
    for _ in range(3):
        data = [rng.randrange(1 << params.field.w)
                for _ in range(params.dimension())]
        expected = gpc._encode_pass(data, params, params.parity_positions())
        symbols = [*data, *parity.image(data).to_bytes(parity.height,
                                                        "little")]
        rows = [list(row(symbols)) for row in compiled.rows]
        assert rows == expected.values


# h2 and h3 codes over GF(2^4..2^8), and the benchmark's H2(15, 17),
# built on first use and shared by the examples.
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


def _decode_outcome(values, erased, code):
    """The decoded word, or the error's class, message and cells."""
    try:
        return epc.lc_erasure_decode(list(values), erased, code)
    except UncorrectableError as exc:
        return type(exc), str(exc), exc.remaining


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(PLAN_CODES)), st.integers(0, 2**32 - 1),
       st.sampled_from(["clean", "flipped", "dependent"]))
def test_erasure_plan_matches_the_solve(name, seed, kind):
    if name not in _BUILT:
        _BUILT[name] = PLAN_CODES[name]()
    code = _BUILT[name]
    rng = random.Random(seed)
    top = 1 << code.field.w
    word = epc.lc_encode([rng.randrange(top) for _ in range(code.dimension)],
                         code)
    r = code.redundancy
    # more erasures than the rank are always dependent; fewer may be
    size = rng.randint(r + 1, min(r + 3, code.length)) if kind == "dependent" \
        else rng.randint(1, r)
    erased = frozenset(rng.sample(range(code.length), size))
    values = [0 if j in erased else v for j, v in enumerate(word)]
    survivors = [j for j in range(code.length) if j not in erased]
    if kind == "flipped" and survivors:
        values[rng.choice(survivors)] ^= rng.randrange(1, top)
    # a fresh copy of the code decodes the pattern once: the scalar solve
    fresh = LinearCode(code.check_matrix)
    expected = _decode_outcome(values, erased, fresh)
    slot = PlanSlot()
    slot.uses = 1                   # the next decode compiles the plan
    code._plans[tuple(sorted(erased))] = slot
    for _ in range(2):
        assert _decode_outcome(values, erased, code) == expected
    # dependent patterns are never compiled; with contradicting survivors
    # they report the contradiction, as the solve does
    cols = sorted(erased)
    dependent = rank(code.check_matrix.submatrix(cols=cols)) < size
    assert (slot.map is None) == dependent
    if kind != "flipped":
        assert expected == (word if not dependent else (
            UncorrectableError,
            f"{size} erased positions span a dependent column set", erased))


def low_rank_rows(field, rng, nrows, ncols):
    """``nrows`` random rows of ``ncols`` symbols that span a random
    number of dimensions, at most ``nrows``."""
    top = 1 << field.w
    basis = [[rng.randrange(top) for _ in range(ncols)]
             for _ in range(rng.randint(1, nrows))]
    return [combine(field, [(rng.randrange(1, top), b) for b in basis], ncols)
            for _ in range(nrows)]


@PROPERTY_SETTINGS
@given(st.sampled_from([default_field(4), default_field(8),
                        GF.from_prime(13)]),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_eliminate_on_a_column_order_equals_the_permuted_copy(field, full,
                                                              helper, seed):
    # Pivoting on ``order`` must act as eliminating the copy whose columns
    # are permuted into that order (the rest after it) on its leading
    # len(order) columns: the same pivots, and the same rows.  The rows
    # are built by _work_rows (bytes for w <= 8, lists for GF(2^12)), or
    # as int lists on every field.
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
    assert _eliminate(rows, field, order, full) == [perm[c]
                                                   for c in copy_pivots]
    assert [[row[c] for c in perm] for row in rows] == [list(row)
                                                        for row in copy]


@PROPERTY_SETTINGS
@given(st.sampled_from([default_field(w) for w in range(2, 9)]
                       + [GF(4, modulus=0b11111)]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_eliminate_on_bytes_rows_equals_the_list_loop(field, full, seed):
    # The product-table rows of w <= 8 and the int-list reference loop
    # give the same pivots and the same rows: on random rank deficits,
    # zero and repeated columns, and any column order.
    rng = random.Random(seed)
    ncols = rng.randint(1, 10)
    rows = low_rank_rows(field, rng, rng.randint(1, 8), ncols)
    for _ in range(rng.randint(0, 2)):
        dst, src = rng.randrange(ncols), rng.choice([None, *range(ncols)])
        for row in rows:
            row[dst] = 0 if src is None else row[src]
    order = rng.sample(range(ncols), rng.randint(0, ncols))
    work = _work_rows(field, rows)
    assert all(type(row) is bytes for row in work)
    assert _eliminate(work, field, order, full) == _eliminate(
        rows, field, order, full)
    assert [list(row) for row in work] == rows


@PROPERTY_SETTINGS
@given(st.sampled_from([default_field(w) for w in range(2, 9)]),
       st.integers(1, 8), st.integers(1, 12),
       st.sampled_from(["random", "ends", "none"]), st.integers(0, 2**32 - 1))
@example(default_field(8), 1, 7, "ends", 0)
@example(default_field(3), 1, 1, "ends", 1)
def test_strided_bytemap_columns_equal_the_zip_reference(field, nrows, size,
                                                         targets, seed):
    # ByteMap cuts column j from the joined rows as joined[j::size]; the
    # reference transposes the rows with zip.
    rng = random.Random(seed)
    rows = [bytes(rng.randrange(1 << field.w) for _ in range(size))
            for _ in range(nrows)]
    if targets == "ends":
        chosen = sorted({0, size - 1})
    elif targets == "random":
        chosen = sorted(rng.sample(range(size), rng.randint(1, size)))
    else:
        chosen = []
    plan = ByteMap(field, rows, chosen)
    skip = set(chosen)
    assert plan.columns == [b"" if j in skip else bytes(col)
                            for j, col in enumerate(zip(*rows))]
    assert plan.height == nrows and plan.targets == chosen


# G16's level row codes (the last the identity) and the benchmark's H2.
ROW_PLAN_CODES = {
    **{f"G16/{i}": (lambda h=h: LinearCode(h))
       for i, h in enumerate(gpc._level_checks(G16))},
    "H2(15,17)": lambda: build_h2(15, 17),
}


def _map(plan):
    return None if plan is None else (plan.targets, plan.height, plan.columns)


def _reference_plan(h, erased):
    """_map of the plan built from scratch: a fresh elimination of h's
    rows, its columns transposed with zip."""
    rows = _work_rows(h.field, h.data)
    if len(_eliminate(rows, h.field, erased, full=True)) < len(erased):
        return None
    skip = set(erased)
    return erased, len(rows), [b"" if j in skip else bytes(col)
                               for j, col in enumerate(zip(*rows))]


@PROPERTY_SETTINGS
@given(st.sampled_from(sorted(ROW_PLAN_CODES)), st.integers(0, 2**32 - 1))
def test_plans_from_a_codes_rows_equal_erasure_plan(name, seed):
    # A code compiles its plans from check rows it keeps as bytes; they
    # must equal the plan built from scratch, dependent patterns (None)
    # included, and leave the kept rows as they were.
    if name not in _BUILT:
        _BUILT[name] = ROW_PLAN_CODES[name]()
    code = _BUILT[name]
    h = code.check_matrix
    rng = random.Random(seed)
    size = rng.randint(1, min(h.rows + 2, code.length))
    erased = tuple(sorted(rng.sample(range(code.length), size)))
    fresh = _reference_plan(h, erased)
    assert _map(code._compile(erased)) == fresh
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
