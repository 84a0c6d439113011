"""Tests for the rank oracle, distance search and equivalence harness."""

import math
import random
from itertools import combinations, product

import pytest

from gpcodes import gpc, linalg, oracle
from gpcodes.epc import build_h2, build_h3
from gpcodes.fields import GF, default_field, field_with_order
from gpcodes.gpc import ErasureProfile, GpcParams, UncorrectableError, \
    decodable_profile, full_parity_matrix
from gpcodes.linalg import Matrix, null_space, rank
from gpcodes.oracle import (DistanceCapError, SearchBudgetError,
                            brute_min_distance, correctable,
                            decoder_oracle_equivalence,
                            random_decodable_pattern, search_cost)
from test_acceptance import _small_param_grid

F8 = default_field(3)
F16 = default_field(4)

FLAGSHIP = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=F8)
PLUS_ONE = GpcParams(m=4, n=5, k=3, s=(2, 2), u=(1, 2), field=F8)


def test_correctable_basics():
    h = Matrix(F16, [[1, 0, 2], [0, 1, 3]])
    assert correctable([], h)
    assert correctable([0], h)
    assert correctable([0, 1], h)
    assert not correctable([0, 1, 2], h)   # 3 columns, rank 2
    assert correctable([2, 2], h)          # duplicates collapse
    with pytest.raises(ValueError):
        correctable([3], h)
    with pytest.raises(ValueError):
        correctable([-1], h)


@pytest.mark.parametrize("h", [
    build_h3(3, 4, GF.from_prime(13)).check_matrix,
    build_h2(3, 3).check_matrix,
    full_parity_matrix(GpcParams(m=2, n=5, k=2, s=(1, 1), u=(2, 4),
                                 field=F8))], ids=["h3", "h2", "gpc"])
def test_correctable_equals_the_rank_of_the_erased_columns(h):
    # On every pattern: dependent ones, and ones with more erased columns
    # than check rows (the gpc code's 8 rows have rank 6).
    kinds = set()
    for size in range(1, h.cols + 1):
        for cols in combinations(range(h.cols), size):
            want = rank(h.submatrix(cols=cols)) == size
            assert correctable(cols, h) == want, cols
            kinds.add((want, size > h.rows))
    assert kinds == {(True, False), (False, False), (False, True)}


def test_correctable_matches_decoding_limit():
    # for the two-global code: every 7-subset works, some 8-subsets don't
    code = build_h2(3, 3)
    h = code.check_matrix
    assert all(correctable(c, h) for c in combinations(range(9), 7))
    assert not correctable(range(8), h)


def test_search_cost():
    assert search_cost(9, 2) == 9 + 36
    assert search_cost(9, 9) == 2 ** 9 - 1      # every nonempty subset
    assert search_cost(9, 12) == search_cost(9, 9)
    assert search_cost(24, 23) > 10_000_000     # why the guard sums sizes


def test_brute_min_distance_vs_nullspace_enumeration():
    """Independent check: enumerate the whole codeword space of a small
    code and take the true minimum weight."""
    code = build_h2(3, 3)
    h = code.check_matrix
    basis = null_space(h)
    assert len(basis) == 2
    f = code.field
    best = None
    for a in range(16):
        for b in range(16):
            if a == 0 and b == 0:
                continue
            word = [f.mul(a, x) ^ f.mul(b, y) for x, y in zip(*basis)]
            weight = sum(1 for v in word if v)
            best = weight if best is None else min(best, weight)
    assert best == 8
    report = brute_min_distance(h, cap=8)
    assert report.distance == 8
    assert report.subsets_examined > 0
    # the witness is a dependent column set of exactly minimum size
    assert len(report.witness) == 8
    assert not correctable(report.witness, h)
    assert all(correctable(c, h)
               for c in combinations(report.witness, 7))


def test_brute_min_distance_on_gpc():
    h = full_parity_matrix(PLUS_ONE)
    report = brute_min_distance(h, cap=6)
    assert report.distance == 6 == PLUS_ONE.min_distance()
    assert not correctable(report.witness, h)


@pytest.mark.parametrize("m, v, n, h", [(3, 1, 3, 1), (4, 1, 5, 2),
                                        (4, 2, 4, 1), (5, 2, 4, 1)])
def test_product_codes_are_the_single_level_case(m, v, n, h):
    # an [n, n-h] row code times an [m, m-v] column code
    p = GpcParams(m, n, k=m - v, s=(m,), u=(h,), field=F8)
    assert p.dimension() == (m - v) * (n - h)
    checks = full_parity_matrix(p)
    assert rank(checks) == m * n - p.dimension()
    d = (v + 1) * (h + 1)
    assert p.min_distance() == d
    assert brute_min_distance(checks, d).distance == d


def test_integrated_interleaved_codes_are_the_k_eq_m_two_level_case():
    # Hassner et al., "Integrated interleaving -- a novel ECC
    # architecture", IEEE Trans. Magn. 2001: m interleaves of an [n, n-r0]
    # code, gamma of them in the stronger [n, n-r1] code, is the k = m
    # ladder s = (m - gamma, gamma), u = (r0, r1).
    checked = 0
    for m in range(2, 5):
        for n in range(3, 7):
            field = field_with_order(max(m, n))
            for gamma in range(1, m):
                for r0, r1 in combinations(range(1, n), 2):
                    p = GpcParams(m, n, k=m, s=(m - gamma, gamma),
                                  u=(r0, r1), field=field).check()
                    checks = full_parity_matrix(p)
                    dim = m * n - (m - gamma) * r0 - gamma * r1
                    assert m * n - rank(checks) == dim, p.notation()
                    d = min((gamma + 1) * (r0 + 1), r1 + 1)
                    report = brute_min_distance(checks, d, budget=200_000)
                    assert report.distance == d, p.notation()
                    checked += 1
    assert checked == 120


def test_brute_min_distance_witness_is_colex_least():
    # two parity symbols, second one involving only the first 3 positions
    h = Matrix(F8, [[1, 1, 1, 0, 0], [0, 1, 1, 1, 1]])
    report = brute_min_distance(h, cap=5)
    # minimum distance 2: columns {1, 2} are the earliest dependent pair
    assert report.distance == 2
    assert report.witness == (1, 2)


def test_brute_min_distance_cap_and_budget():
    h = full_parity_matrix(PLUS_ONE)
    with pytest.raises(DistanceCapError):
        brute_min_distance(h, cap=5)
    with pytest.raises(SearchBudgetError):
        brute_min_distance(h, cap=6, budget=100)
    with pytest.raises(ValueError):
        brute_min_distance(h, cap=0)
    # identity check matrix: the code is {0}, nothing dependent ever
    with pytest.raises(DistanceCapError):
        brute_min_distance(Matrix.identity(F8, 4), cap=4)
    # all-zero checks: every single column is already dependent
    report = brute_min_distance(Matrix(F8, [[0] * 5, [0] * 5]), cap=3)
    assert report.distance == 1 and report.witness == (0,)
    with pytest.raises(DistanceCapError, match="no columns"):
        brute_min_distance(Matrix(F8, [[], []]), cap=3)


def _ascending_search(h):
    """The first dependent column set by increasing size and, within a
    size, in colex order; None when every column set is independent."""
    for size in range(1, h.cols + 1):
        for cols in sorted(combinations(range(h.cols), size),
                           key=lambda c: c[::-1]):
            if rank(h.submatrix(cols=cols)) < size:
                return cols
    return None


def _random_check_matrix(rng, f=None):
    if f is None:
        f = default_field(rng.choice((2, 3, 4)))
    rows, n = rng.randint(1, 6), rng.randint(2, 8)
    data = [[rng.randrange(1 << f.w) if rng.random() < 0.85 else 0
             for _ in range(n)] for _ in range(rows)]
    # zero and repeated columns placed last
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        if rng.random() < 0.5:
            extra = [0] * rows
        else:
            j = rng.randrange(len(data[0]))
            extra = [f.mul(row[j], rng.randrange(1, 1 << f.w))
                     for row in data]
        for row, v in zip(data, extra):
            row.append(v)
    return Matrix(f, data)


def test_brute_min_distance_descends_past_dependent_prefix():
    # The pass at size 4 meets the zero last column as a prefix and
    # restarts the certification below it.
    h = Matrix(F8, [[1, 0, 0, 0, 1, 1, 0],
                    [0, 1, 0, 0, 1, 2, 0],
                    [0, 0, 1, 0, 1, 3, 0],
                    [0, 0, 0, 1, 1, 4, 0]])
    report = brute_min_distance(h, cap=5)
    assert (report.distance, report.witness) == (1, (6,))
    assert report.subsets_examined <= search_cost(7, 5)


def _mul_expansions(basis, f, n):
    """Column j's expansions by 1, x, ..., x^(w-1) with one GF.mul per
    symbol, as a reference: row r of ``basis`` in the w bits at r * w."""
    w = f.w
    return [[sum(f.mul(row[j], 1 << k) << (r * w)
                 for r, row in enumerate(basis) if row[j])
             for k in range(w)] for j in range(n)]


@pytest.mark.parametrize("field", [
    F8, default_field(8), GF.from_prime(13), default_field(16),
    GF(20, 0x100009)], ids=repr)
def test_lane_expansions_equal_the_mul_reference(field):
    # Every lane's top bit is set in some column, so a doubling that
    # lets it into the next lane, or past the last one, shows.
    rng = random.Random(field.w)
    top = 1 << field.w
    for _ in range(20):
        rows, n = rng.randint(1, 6), rng.randint(1, 8)
        basis = [[rng.randrange(top) if rng.random() < 0.7 else 0
                  for _ in range(n)] for _ in range(rows)]
        basis[-1][0] = top - 1
        assert oracle._column_expansions(basis, field, n) == \
            _mul_expansions(basis, field, n)
    assert oracle._column_expansions([], field, 3) == [[0] * field.w] * 3


def _unpruned_min_distance(h, cap):
    """The distance search as it was before the frontier prune, as a
    reference: every subset is tested one by one.  The same
    (distance, witness, subsets examined), or None where
    :func:`brute_min_distance` raises :class:`DistanceCapError`."""
    n, w = h.cols, h.field.w
    basis = oracle._row_basis(h)
    colbits = _mul_expansions(basis, h.field, n)
    first = [bits[0] for bits in colbits]
    pivots = [0] * (len(basis) * w)
    examined = 0

    def insert(j):
        added = []
        for v in colbits[j]:
            while v:
                b = v.bit_length() - 1
                if pivots[b]:
                    v ^= pivots[b]
                else:
                    pivots[b] = v
                    added.append(b)
                    break
            else:
                return None
        return added

    def scan(need, hi):
        nonlocal examined
        if need == 1:
            for j in range(hi + 1):
                v = first[j]
                while v and pivots[v.bit_length() - 1]:
                    v ^= pivots[v.bit_length() - 1]
                if not v:
                    examined += j + 1
                    return (j,)
            examined += hi + 1
            return None
        for j in range(need - 1, hi + 1):
            added = insert(j)
            if added is None:
                examined += 1
                return (j,)
            found = scan(need - 1, j - 1)
            for b in added:
                pivots[b] = 0
            if found is not None:
                return found + (j,)
        return None

    top = min(cap, n)
    size, witness = top - 1, None
    while size:
        found = scan(size, n - 1)
        if found is None:
            break
        witness = found if len(found) == size else None
        size = len(found) - 1
    if witness is None:
        witness = scan(size + 1, n - 1)
        if witness is None:
            return None
    return len(witness), witness, examined


def _pruned_min_distance(h, cap):
    try:
        report = brute_min_distance(h, cap)
    except DistanceCapError:
        return None
    return report.distance, report.witness, report.subsets_examined


def test_brute_min_distance_matches_ascending_reference():
    # and the unpruned search, in all three report fields
    rng = random.Random(61)
    for _ in range(150):
        h = _random_check_matrix(rng)
        n = h.cols
        expected = _ascending_search(h)
        for cap in range(1, n + 2):
            report = _pruned_min_distance(h, cap)
            assert report == _unpruned_min_distance(h, cap), (h, cap)
            if report is None:
                assert expected is None or len(expected) > cap, (h, cap)
                continue
            assert report[:2] == (len(expected), expected), (h, cap)
            assert report[2] <= search_cost(n, cap)


def test_frontier_prune_matches_unpruned_search_on_grid_codes():
    # criterion 6's codes, kept to those whose search one above the
    # distance stays within 100 000 subsets
    grid = [p for p in _small_param_grid()
            if search_cost(p.m * p.n, p.min_distance() + 1) <= 100_000]
    for p in random.Random(439).sample(grid, 30):
        h = full_parity_matrix(p)
        d = p.min_distance()
        for cap in (d - 1, d, d + 1):
            assert _pruned_min_distance(h, cap) == \
                _unpruned_min_distance(h, cap), (p.notation(), cap)


def test_frontier_prune_certifies_independent_prefix_at_the_root(
        monkeypatch):
    # Columns 0..3 are the unit vectors and 4 = e0 + e1, so every pass
    # certifies the sets within 0..3 in bulk at its root.
    h = Matrix(F8, [[1, 0, 0, 0, 1, 0],
                    [0, 1, 0, 0, 1, 0],
                    [0, 0, 1, 0, 0, 1],
                    [0, 0, 0, 1, 0, 1]])
    counted = []

    def comb(n, k):
        counted.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(oracle, "comb", comb)
    # the walk, not the information-set certificate, settles every pass
    monkeypatch.setattr(oracle, "_certificate_pays", lambda *args: False)
    assert _pruned_min_distance(h, 3) == (3, (0, 1, 4), 15 + 4 + 1) == \
        _unpruned_min_distance(h, 3)
    assert (4, 2) in counted and (4, 3) in counted


def _matches_unpruned_search_at_every_cap(h):
    for cap in range(1, h.cols + 2):
        assert _pruned_min_distance(h, cap) == \
            _unpruned_min_distance(h, cap), (h, cap)


def test_two_column_nodes_read_their_frontiers_from_the_parent(
        monkeypatch):
    # Columns 0..3 and 5 are unit vectors and 4 = e0 + e1 + e2.  The
    # root of the pass of three has frontier 3.  Its child 4 lies in the
    # span of columns 0..2, so that child's frontier is 1; its child 5
    # lies outside the span of 0..3, so that child's frontier is 3.
    h = Matrix(F8, [[1, 0, 0, 0, 1, 0],
                    [0, 1, 0, 0, 1, 0],
                    [0, 0, 1, 0, 1, 0],
                    [0, 0, 0, 1, 0, 0],
                    [0, 0, 0, 0, 0, 1]])
    counted = []

    def comb(n, k):
        counted.append((n, k))
        return math.comb(n, k)

    monkeypatch.setattr(oracle, "comb", comb)
    # the walk, not the information-set certificate, settles every pass
    monkeypatch.setattr(oracle, "_certificate_pays", lambda *args: False)
    assert _pruned_min_distance(h, 4) == (4, (0, 1, 2, 4), 20 + 2)
    # search_cost's terms, then the root's C(4, 3), child 4's C(2, 2),
    # child 5's C(4, 2) and the C(4, 4) of the root of the pass of four
    assert counted == [(6, 1), (6, 2), (6, 3), (6, 4),
                       (4, 3), (2, 2), (4, 2), (4, 4)]
    _matches_unpruned_search_at_every_cap(h)


def test_frontier_walk_that_stops_below_two_columns():
    # Column 2 = e0 + e1, so a node with three columns left walks no
    # further than column 1, short of the two columns a bulk count of
    # its own needs: the root of the pass of three, and in the pass of
    # four the root's child 3, whose bound is 1.  Their children still
    # read their frontiers from the walked pivots.
    h = Matrix(F8, [[1, 0, 1, 0, 1, 0, 2],
                    [0, 1, 1, 0, 0, 1, 3],
                    [0, 0, 0, 1, 2, 3, 1],
                    [0, 0, 0, 0, 1, 1, 1]])
    assert _pruned_min_distance(h, 4) == (3, (0, 1, 2), 1 + 21)
    _matches_unpruned_search_at_every_cap(h)


@pytest.mark.parametrize("field", [default_field(8), GF.from_prime(13)],
                         ids=["w8", "w12"])
def test_frontier_handover_matches_unpruned_search_in_wide_fields(field):
    rng = random.Random(2207)
    for _ in range(20):
        _matches_unpruned_search_at_every_cap(
            _random_check_matrix(rng, field))


@pytest.mark.parametrize("field", [None, default_field(10),
                                   GF.from_prime(13)],
                         ids=["w2-4", "w10", "w12"])
def test_information_set_certificate_matches_the_unpruned_search(
        monkeypatch, field):
    # At caps from the distance up, a pass at or above the distance
    # makes the certificate meet a codeword and leave the pass to the
    # walk.  The certificate answers exactly whether the distance
    # exceeds the pass size; the cost rule sends some passes to it and
    # leaves every pass of other codes to the walk alone.
    calls = []
    real = oracle._certify

    def certify(sets, f, n, size):
        calls.append((size, real(sets, f, n, size)))
        return calls[-1][1]

    monkeypatch.setattr(oracle, "_certify", certify)
    rng = random.Random(5501)
    codes = [_random_check_matrix(rng, field) for _ in range(60)]
    f = field or F16
    codes += [Matrix.identity(f, 4),                     # k = 0
              Matrix(f, [[1, 0, 0, 1, 1, 1],             # k = 2, d = 4
                         [0, 1, 0, 1, 2, 3],
                         [0, 0, 1, 1, 3, 2],
                         [0, 0, 0, 1, 4, 5]])]
    seen = set()
    for h in codes:
        found = _ascending_search(h)
        d = h.cols + 1 if found is None else len(found)
        ran = False
        for cap in range(min(d, h.cols), h.cols + 2):
            calls.clear()
            assert _pruned_min_distance(h, cap) == \
                _unpruned_min_distance(h, cap), (h, cap)
            assert all(ok == (size < d) for size, ok in calls), (h, cap)
            seen.update(ok for _, ok in calls)
            ran |= bool(calls)
        seen.add("walk alone" if not ran else "certificate")
    assert seen == {True, False, "walk alone", "certificate"}


@pytest.mark.parametrize("field", [default_field(2), F8, F16],
                         ids=["w2", "w3", "w4"])
def test_information_set_certificate_is_exact_at_every_size(field):
    # Codes of dimension 1 to 3 spanned by a generator, whose distance
    # comes from all their codewords, one of each scalar multiple.  At
    # every size, whatever the cost rule would choose, the certificate
    # proves the distance exceeds the size exactly when it does, with t
    # up to k.  The first generator's one information set is columns 0
    # and 1, and its one light codeword, of weight 2, is the message
    # (1, 1) there: the sum of the rows, the rows' weight being 4.
    rng = random.Random(3301)
    q = 1 << field.w
    gens = [[[1, 0, 1, 1, 1], [0, 1, 1, 1, 1]]]
    for _ in range(100):
        n = rng.randint(3, 12)
        k = rng.randint(1, min(3, n - 1))     # so that h has a row
        gens.append([[rng.randrange(q) for _ in range(n)] for _ in range(k)])
    depths = set()
    for gen in gens:
        k, n = len(gen), len(gen[0])
        weights = []
        for i in range(k):
            for tail in product(range(q), repeat=k - 1 - i):
                word = gen[i]
                for a, row in zip(tail, gen[i + 1:]):
                    word = [x ^ field.mul(a, y) for x, y in zip(word, row)]
                weights.append(sum(map(bool, word)))
        if 0 in weights:
            continue                   # the generator lost rank
        d = min(weights)
        sets = oracle._information_sets(
            Matrix(field, null_space(Matrix(field, gen))), k)
        for size in range(1, n):
            depths.add(size // len(sets))
            assert oracle._certify(sets, field, n, size) == (size < d), \
                (gen, size)
    assert {0, 1, 2, 3} <= depths


def test_random_decodable_pattern_is_decodable():
    rng = random.Random(83)
    for p in (FLAGSHIP, PLUS_ONE):
        for _ in range(200):
            pattern = random_decodable_pattern(p, rng)
            counts = [0] * p.m
            for r, _ in pattern:
                counts[r] += 1
            assert decodable_profile(ErasureProfile.from_counts(counts), p)


def test_equivalence_flagship():
    report = decoder_oracle_equivalence(FLAGSHIP, trials=40, seed=2024)
    assert not report.mismatches, report.mismatches[:3]
    assert report.trials == 40
    assert 0 < report.profile_accepted_count <= report.correctable_count


def test_equivalence_with_heavy_patterns():
    """Widening the pattern weight past the distance exercises the
    uncorrectable branches as well."""
    report = decoder_oracle_equivalence(PLUS_ONE, trials=80, seed=7,
                                        max_weight=PLUS_ONE.min_distance() + 5)
    assert not report.mismatches, report.mismatches[:3]
    # with weight up to 11 on a distance-6 code, some patterns must fail
    assert report.correctable_count < report.trials


def flip_first_recovered(decoder):
    """``decoder`` with one recovered symbol of its output flipped."""
    def flipped(arr, params, *args, **kwargs):
        out = decoder(arr, params, *args, **kwargs)
        for r, c in arr.erased_positions():
            if not out.erased[r][c]:
                out.values[r][c] ^= 1
                break
        return out
    return flipped


def corrupt_survivors(decoder, rows=3):
    """``decoder`` with one survivor flipped in each of the first
    ``rows`` rows of its input that hold a survivor."""
    def corrupted(arr, params, *args, **kwargs):
        out = decoder(arr, params, *args, **kwargs)
        for r in [r for r in range(arr.m) if not all(arr.erased[r])][:rows]:
            out.values[r][arr.erased[r].index(False)] ^= 1
        return out
    return corrupted


def _refuse(arr, params):
    raise UncorrectableError("refused", frozenset())


@pytest.mark.parametrize("fault, expected", [
    ("flipped decoders", ["row decoder mismatch",
                          "iterative decoder wrote a wrong symbol"]),
    ("flipped solve, refusing row decoder", ["generic solve mismatch",
                                             "row decoder refused"]),
    ("nothing correctable", [
        "profile accepted but oracle says uncorrectable",
        "iterative decoder 'succeeded' on an ambiguous pattern"])])
def test_equivalence_reports_every_kind_of_mismatch(monkeypatch, fault,
                                                    expected):
    if fault == "flipped decoders":
        monkeypatch.setattr(gpc, "decode_rows",
                            flip_first_recovered(gpc.decode_rows))
        monkeypatch.setattr(gpc, "decode_iterative",
                            flip_first_recovered(gpc.decode_iterative))
    elif fault == "flipped solve, refusing row decoder":
        monkeypatch.setattr(oracle, "solve", lambda mat, rhs: [
            x ^ 1 for x in linalg.solve(mat, rhs)])
        monkeypatch.setattr(gpc, "decode_rows", _refuse)
    else:
        monkeypatch.setattr(oracle, "correctable", lambda cols, h: False)
    report = decoder_oracle_equivalence(PLUS_ONE, trials=20, seed=7)
    assert report.mismatches
    kinds = {msg.rsplit(": ", 1)[1] for msg in report.mismatches}
    assert kinds == set(expected)


def test_equivalence_reports_one_wrong_symbol_per_trial(monkeypatch):
    """A decode that writes wrong symbols into three rows is one
    mismatch of its trial, not one per row."""
    monkeypatch.setattr(gpc, "decode_iterative",
                        corrupt_survivors(gpc.decode_iterative))
    report = decoder_oracle_equivalence(PLUS_ONE, trials=4, seed=7)
    tags = [msg.split(" (")[0] for msg in report.mismatches]
    assert tags == ["trial 0", "trial 1", "trial 2", "trial 3"]
    assert all(msg.endswith(": iterative decoder wrote a wrong symbol")
               for msg in report.mismatches)


def test_equivalence_on_single_level_code():
    p = GpcParams(m=4, n=5, k=3, s=(4,), u=(2,), field=F8)
    report = decoder_oracle_equivalence(p, trials=40, seed=99,
                                        max_weight=9)
    assert not report.mismatches, report.mismatches[:3]
