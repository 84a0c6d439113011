"""The gpc decoders' input/output contract, and their outputs and errors
against a reference row pass that works on SymbolArrays."""

import random
from itertools import chain, compress

import pytest

from gpcodes import gpc, linalg
from gpcodes.fields import GF, default_field
from gpcodes.gpc import (ContradictionError, ErasureProfile, GpcParams,
                         SymbolArray, UncorrectableError, decodable_profile,
                         decode_iterative, decode_plan, decode_rows, encode,
                         erase_positions, full_parity_matrix,
                         min_weight_codeword)
from gpcodes.linalg import NoSolutionError, combine, pack_blocks, unpack_block
from gpcodes.oracle import correctable, random_decodable_pattern
from test_acceptance import _small_param_grid

F8 = default_field(3)

# the 6x7 flagship code: K = 19, d = 10
FLAGSHIP = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F8)

# the 16x30 GF(2^8) storage code of the benchmark, d = 25
G16 = GpcParams(m=16, n=30, k=14, s=(8, 4, 4), u=(2, 4, 8),
                field=default_field(8))

# k = m: no vanishing row combinations and no column view
K_EQ_M = GpcParams(m=4, n=6, k=4, s=(2, 2), u=(1, 2), field=F8)

# the flagship's shape over GF(2^10): rows repair one by one, no plans
WIDE = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                 field=default_field(10))

# the same over GF(2^20): no exp/log tables, so every product is GF.mul
W20 = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4),
                field=GF(20, 0x100009))


# ------------------------------------------------------------- reference

def _ref_repair_rows(work, rows, cols, view, level, block, offset=None):
    g = len(rows)
    if g > 1:
        word = pack_blocks([work.values[r] for r in rows], block)
    else:
        word = work.values[rows[0]]
        if offset is not None:
            word = [a ^ b for a, b in zip(word, offset)]
    if any(word):
        view.levels[level].fill(word, cols, g * block)
    for c in cols:
        v = word[c] if offset is None else word[c] ^ offset[c]
        for r, x in zip(rows, unpack_block(v, g, block) if g > 1 else (v,)):
            work.fill(r, c, x)


def _ref_row_pass(work, view, record=None, block=1):
    """The row pass on a SymbolArray, rescanning its mask and building
    an ErasureProfile on every pass, as a reference for the pass on
    plain rows: the same fills, checks and errors in the same order.
    A ``record`` list, when given, gets the row order, counts and
    system of a peel, then each (profile position, row, level) step as
    it completes."""
    params = view.params
    span = range(work.n)
    erased = [tuple(compress(span, flags)) for flags in work.erased]
    groups = {}
    for r, cols in enumerate(erased):
        if len(cols) <= params.u[0]:
            groups.setdefault(cols, []).append(r)
            erased[r] = ()
    split = params.field.w > 8
    for cols, rows in groups.items():
        for part in ([r] for r in rows) if split else (rows,):
            _ref_repair_rows(work, part, cols, view, 0, block)
    left = sum(map(len, erased))
    profile = ErasureProfile.from_counts([len(cols) for cols in erased])
    if not decodable_profile(profile, params):
        return left
    f = params.field
    form = linalg.row_form(f, block)
    m, k, t = params.m, params.k, params.t
    order = tuple(r for _, r in profile.entries)
    counts = profile.counts
    nsys = max(m - k, sum(1 for c in counts if c))
    reduced = gpc._triangulated_system(view, order, nsys)
    if record is not None:
        record += [order, counts, tuple(map(tuple, reduced.data))]
    for p in range(nsys - 1, -1, -1):
        row_idx = order[p]
        cols = erased[row_idx]
        gamma = reduced.data[p]
        known = combine(f, [(gamma[j], form(work.values[order[j]]))
                            for j in range(p + 1, m) if gamma[j]],
                        params.n, block)
        if p < m - k:
            level = None
            for c in cols:
                work.fill(row_idx, c, known[c])
            if work.values[row_idx] != known:
                raise NoSolutionError("inconsistent system")
        else:
            level = next(s for s in range(1, t) if params.u[s] >= counts[p]
                         and params.s_hat(s) >= p + 1)
            _ref_repair_rows(work, [row_idx], cols, view, level, block, known)
        if record is not None:
            record.append((p, row_idx, level))
    return 0


def _ref_checked_copy(arr, params):
    gpc._check_shape(arr, params.m, params.n)
    work = arr.copy()
    params.field.check_symbols(chain.from_iterable(work.values), "survivor")
    return work


def ref_decode_rows(arr, params, record=None):
    view = gpc._view(params)
    work = _ref_checked_copy(arr, params)
    try:
        left = _ref_row_pass(work, view, record)
    except NoSolutionError as exc:
        raise ContradictionError(f"row solve failed: {exc}",
                                 frozenset(arr.erased_positions())) from exc
    if left:
        bad = [(c, r) for c, r in ErasureProfile.from_array(work).entries if c]
        raise UncorrectableError(
            f"erasure profile {bad} exceeds the decodable budgets "
            f"{params.erasure_budgets()}",
            remaining=frozenset(work.erased_positions()))
    return work


def _transposed(work):
    # The column view of a SymbolArray: its values and mask, zipped.
    return SymbolArray(zip(*work.values), zip(*work.erased))


def ref_decode_iterative(arr, params):
    view = gpc._view(params)
    work = _ref_checked_copy(arr, params)
    try:
        while (left := _ref_row_pass(work, view)) and \
                view.col_params is not None:
            flipped = _transposed(work)
            after = _ref_row_pass(flipped, gpc._view(view.col_params))
            work = _transposed(flipped)
            if not 0 < after < left:
                break
    except NoSolutionError as exc:
        raise ContradictionError(f"row solve failed: {exc}",
                                 frozenset(arr.erased_positions())) from exc
    return work


def outcome(decoder, arr, params):
    """A decode's output as values and mask, or its error as type,
    message and remaining cells."""
    try:
        out = decoder(arr, params)
    except (UncorrectableError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "remaining", None)
    return out.values, out.erased


def recorded_outcome(arr, params):
    """decode_rows' outcome and its record, read from its public plan:
    the first pass's row order, counts and system, then its peel steps,
    as many as a contradiction counts; empty when no peel step ran."""
    (step,) = decode_plan(arr, params).passes
    try:
        out = decode_rows(arr, params)
    except (UncorrectableError, ValueError) as exc:
        result = type(exc), str(exc), getattr(exc, "remaining", None)
        ran = getattr(exc, "steps", None)
    else:
        result, ran = (out.values, out.erased), len(step.peel)
    if ran is None or step.system is None:
        return result, []
    return result, [step.order, step.counts, step.system] + [
        (p, row, level) for p, row, _, level, _, _ in step.peel[:ran]]


def ref_recorded_outcome(arr, params):
    """ref_decode_rows' outcome and the record its row pass keeps."""
    record = []
    return outcome(lambda a, p: ref_decode_rows(a, p, record), arr,
                   params), record


# ---------------------------------------------------------------- cases

def rand_codeword(params, rng):
    return encode([rng.randrange(1 << params.field.w)
                   for _ in range(params.dimension())], params)


def cells(params):
    return [(r, c) for r in range(params.m) for c in range(params.n)]


def with_flipped_survivor(arr, rng):
    """A copy of ``arr`` with one survivor XORed with 1..7, which keeps
    it in any field of w >= 3."""
    out = arr.copy()
    r, c = rng.choice([(r, c) for r, c in cells(arr) if not arr.erased[r][c]])
    out.fill(r, c, out.values[r][c] ^ rng.randrange(1, 8))
    return out


def column_pass_pattern(params, word, rng):
    """Erasures that the row pass refuses and the alternation recovers,
    so a column pass runs."""
    d = params.min_distance()
    for _ in range(500):
        pattern = rng.sample(cells(params), rng.randint(d, 2 * d))
        damaged = erase_positions(word, pattern)
        try:
            decode_rows(damaged, params)
        except UncorrectableError:
            if decode_iterative(damaged, params) == word:
                return pattern
    raise AssertionError("no pattern needing a column pass found")


def stall_pattern(params):
    """The support of a minimum-weight codeword of level 0: ambiguous,
    so the alternation must stall."""
    rows = range(params.s_hat(1) + 1)
    cols = range(params.u[0] + 1)
    witness = min_weight_codeword(params, 0, rows=rows, cols=cols)
    return [(r, c) for r in rows for c in cols if witness.values[r][c]]


# ------------------------------------------------------------- contract

def contract_cases(params, seed):
    """(name, codeword, damaged array) for a pattern the row pass
    recovers, one that needs a column pass (when a column view exists),
    a stall, and each of those with one flipped survivor."""
    rng = random.Random(seed)
    word = rand_codeword(params, rng)
    rows = set()
    while not rows:
        rows = random_decodable_pattern(params, rng)
    patterns = {"rows": rows, "stall": stall_pattern(params)}
    if params.k < params.m:
        patterns["column pass"] = column_pass_pattern(params, word, rng)
    out = []
    for name, pattern in patterns.items():
        damaged = erase_positions(word, pattern)
        out += [(name, word, damaged),
                (f"{name}, flipped", word, with_flipped_survivor(damaged, rng))]
    return out


@pytest.mark.parametrize("decoder", [decode_rows, decode_iterative])
@pytest.mark.parametrize("params", [G16, FLAGSHIP, K_EQ_M],
                         ids=["G16", "flagship", "k_eq_m"])
def test_decoders_leave_input_untouched_and_return_fresh_rows(decoder,
                                                              params):
    for name, word, damaged in contract_cases(params, 401):
        arr = damaged.copy()
        # a caller's write into an erased cell: the mask still rules
        r, c = arr.erased_positions()[0]
        arr.values[r][c] = 5
        values = [row[:] for row in arr.values]
        erased = [row[:] for row in arr.erased]
        try:
            out = decoder(arr, params)
        except UncorrectableError:
            out = None
        assert arr.values == values and arr.erased == erased, name
        if out is None:
            continue
        assert out == decoder(damaged, params), name
        inputs = {id(row) for row in chain(arr.values, arr.erased)}
        assert not inputs & {id(row) for row in chain(out.values, out.erased)}
        assert all(type(flag) is bool for row in out.erased for flag in row)
        assert out.erasure_count == sum(map(sum, out.erased))
        assert set(out.erased_positions()) <= set(arr.erased_positions())
        for r in range(params.m):
            for c in range(params.n):
                if out.erased[r][c]:
                    assert out.values[r][c] == 0, (name, r, c)
                elif "flipped" not in name:
                    assert out.values[r][c] == word.values[r][c], (name, r, c)
        if name == "rows" or (name == "column pass"
                              and decoder is decode_iterative):
            assert out == word, name
        if name == "stall":
            assert out.erasure_count and decoder is decode_iterative


# Level-0 rows sharing their erased columns (one block), a lone level-0
# row, a row peeled through level 1, and a whole row that the vanishing
# combination restores.
@pytest.mark.parametrize("limit", [linalg.MAP_BYTES_LIMIT, 0],
                         ids=["compiled", "scalar"])
@pytest.mark.parametrize("params, pattern", [
    (FLAGSHIP, {(1, 3), (2, 3), (3, 5), (0, 0), (0, 1), (0, 2), (5, 0),
                (5, 1), *((4, c) for c in range(7))}),
    (G16, {*((r, c) for r in range(10) for c in (0, 1)), (10, 5), (11, 2),
           (11, 3), (11, 4), (13, 6), (13, 7), (13, 8),
           *((12, c) for c in range(30))}),
], ids=["flagship", "G16"])
def test_the_all_zero_codeword_decodes_to_zeros(params, pattern, limit,
                                                monkeypatch):
    monkeypatch.setattr(gpc, "_VIEWS", {})
    monkeypatch.setattr(linalg, "MAP_BYTES_LIMIT", limit)
    zero = encode([0] * params.dimension(), params)
    assert zero.values == [[0] * params.n for _ in range(params.m)]
    damaged = erase_positions(zero, pattern)
    assert decode_rows(damaged, params) == zero
    (step,) = decode_plan(damaged, params).passes
    assert [level for _, _, _, level, _, _ in step.peel] == [1, None, None]
    # row solves keep no plan; the encoder compiles on its second use
    # when the limit lets it, and the compiled map gives zeros too
    for _ in range(2):
        assert decode_rows(damaged, params) == zero
        assert decode_iterative(damaged, params) == zero
    assert encode([0] * params.dimension(), params) == zero
    view = gpc._view(params)
    assert all(code._plans == {} for code in view.levels)
    assert (view.encoder.map is not None) == (limit > 0)


def planned_cells(plan):
    """The cells that ``plan``, read from the mask alone, leaves erased."""
    return {(r, c) for r, flags in enumerate(plan.mask)
            for c, flag in enumerate(flags) if flag}


def test_every_erasure_pattern_of_the_smallest_codes():
    """All 27 936 erasure patterns of the 51 grid codes with mn <= 10, on
    one seeded codeword each: decode_rows recovers every pattern that
    decodable_profile guarantees and returns only the codeword, on
    oracle-correctable patterns; decode_iterative never writes a wrong
    symbol and fills every cell only of oracle-correctable patterns.
    Each decoder's verdict is the one its plan predicts from the mask
    alone: recovered, or refused (decode_rows) or stalled
    (decode_iterative) with exactly the cells the plan leaves."""
    codes = [p for p in _small_param_grid() if p.m * p.n <= 10]
    assert len(codes) == 51
    rng = random.Random(30)
    patterns = 0
    for p in codes:
        word = rand_codeword(p, rng)
        checks = full_parity_matrix(p)
        view = gpc._view(p)
        size = p.m * p.n
        for mask in range(1 << size):
            flat = [i for i in range(size) if mask >> i & 1]
            damaged = erase_positions(word, [divmod(i, p.n) for i in flat])
            case = (p.notation(), flat)
            ok = correctable(flat, checks)
            plan = gpc._plan(view, damaged.erased, False)
            try:
                out = decode_rows(damaged, p)
            except UncorrectableError as exc:
                assert not decodable_profile(
                    ErasureProfile.from_array(damaged), p), case
                assert type(exc) is UncorrectableError and plan.left, case
                assert exc.remaining == planned_cells(plan), case
            else:
                assert out == word and ok and not plan.left, case
            plan = gpc._plan(view, damaged.erased, True)
            out = decode_iterative(damaged, p)
            assert all(e or v == x for vr, er, wr in zip(
                out.values, out.erased, word.values)
                for v, e, x in zip(vr, er, wr)), case
            assert out.erasure_count or ok, case
            assert set(out.erased_positions()) == planned_cells(plan), case
            patterns += 1
    assert patterns == 27936


def test_a_flipped_survivor_on_the_archive_loss_is_reported():
    # The benchmark's archive loss: two whole columns and one whole row.
    for seed in range(5):
        rng = random.Random(seed)
        word = rand_codeword(G16, rng)
        cols = rng.sample(range(G16.n), 2)
        row = rng.randrange(G16.m)
        loss = {(r, c) for r in range(G16.m) for c in cols}
        loss |= {(row, c) for c in range(G16.n)}
        damaged = with_flipped_survivor(erase_positions(word, loss), rng)
        with pytest.raises(UncorrectableError):
            decode_iterative(damaged, G16)


# ------------------------------------------------------------ reference

def reference_cases(params, seed, count):
    """Damaged codewords of ``params``: a stall, then ``count`` patterns
    from the decodable sampler and uniform ones, each clean and with one
    flipped survivor.  Uniform patterns weigh d..2d on G16, 1..mn/2
    elsewhere."""
    rng = random.Random(seed)
    word = rand_codeword(params, rng)
    d = params.min_distance()
    low, high = (d, 2 * d) if params is G16 else (1, params.m * params.n // 2)
    patterns = [stall_pattern(params)] + [
        random_decodable_pattern(params, rng) if i % 2 == 0 else
        rng.sample(cells(params), rng.randint(low, high))
        for i in range(count)]
    out = []
    for pattern in patterns:
        damaged = erase_positions(word, pattern)
        if damaged.erasure_count:
            out += [damaged, with_flipped_survivor(damaged, rng)]
    return out


@pytest.mark.parametrize("params, count", [(G16, 40), (FLAGSHIP, 150),
                                           (K_EQ_M, 60), (WIDE, 40),
                                           (W20, 40)],
                         ids=["G16", "flagship", "k_eq_m", "wide", "w20"])
def test_decoders_match_the_symbol_array_reference(params, count):
    for arr in reference_cases(params, 409, count):
        assert outcome(decode_iterative, arr, params) == \
            outcome(ref_decode_iterative, arr, params), arr
        assert recorded_outcome(arr, params) == \
            ref_recorded_outcome(arr, params), arr


# ------------------------------------------------------- level-0 syndrome

@pytest.mark.parametrize("decoder, reference",
                         [(decode_rows, ref_decode_rows),
                          (decode_iterative, ref_decode_iterative)],
                         ids=["decode_rows", "decode_iterative"])
@pytest.mark.parametrize("params", [G16, WIDE], ids=["G16", "wide"])
def test_each_row_pass_takes_the_level_0_syndrome_once(decoder, reference,
                                                       params, monkeypatch):
    """For w <= 8 a row pass, the column pass of decode_iterative
    included, takes its level-0 syndrome once, as one call of its level-0
    code's fold over its rows within reach of level 0, and takes no
    level-0 syndrome of a single row: every local repair solves from its
    rows' part of the fold's sums.  Over GF(2^10) each such row still
    fills on its own, from its own syndrome, and no fold runs.  The
    outputs and errors are the reference's either way."""
    cases = reference_cases(params, 419, 12)
    expected = [outcome(reference, arr, params) for arr in cases]
    passes = []
    run_pass, syndrome = gpc._execute_pass, linalg.LinearCode.syndrome
    fold = linalg.Fold.__call__

    def recording_pass(step, levels, values, block):
        local = sum(map(len, step.groups.values()))
        passes.append((step.params, levels, local, [], []))
        return run_pass(step, levels, values, block)

    def recording_syndrome(self, word, block=1):
        passes[-1][3].append((self, block))
        return syndrome(self, word, block)

    def recording_fold(self, word):
        passes[-1][4].append(self)
        return fold(self, word)

    monkeypatch.setattr(gpc, "_execute_pass", recording_pass)
    monkeypatch.setattr(linalg.LinearCode, "syndrome", recording_syndrome)
    monkeypatch.setattr(linalg.Fold, "__call__", recording_fold)
    column_passes = 0
    for arr, want in zip(cases, expected):
        passes.clear()
        assert outcome(decoder, arr, params) == want, arr
        failed = want[0] is ContradictionError
        for code_params, levels, local, calls, folds in passes:
            column_passes += code_params != params
            level0 = [block for code, block in calls if code is levels[0]]
            if params.field.w <= 8:
                assert folds == ([levels[0].fold] if local else [])
                assert level0 == []
                continue
            assert folds == []
            if failed:      # the fills stop at the first contradiction
                assert level0 == [1] * len(level0) and len(level0) <= local
            else:
                assert level0 == [1] * local
    assert column_passes or decoder is decode_rows
