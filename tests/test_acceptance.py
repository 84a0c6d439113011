"""Acceptance checks: one test per shipped guarantee, exact values only.

Each test prints a one-line summary of what it established; run with
``pytest -v`` to get a pass/fail line per criterion.
"""

import itertools
import random

import pytest

from gpcodes import epc, gpc, oracle
from gpcodes.epc import (EpcShape, build_h2, build_h3, build_optimal_g1,
                         check_condition_35, distance_bound)
from gpcodes.fields import GF, default_field, field_with_order
from gpcodes.gpc import (GpcParams, UncorrectableError, decode_iterative,
                         decode_plan, decode_rows, encode, erase_positions,
                         full_parity_matrix, is_member, min_weight_codeword)
from gpcodes.linalg import rank

FLAGSHIP = GpcParams(m=6, n=7, k=4, s=(2, 1, 3), u=(1, 3, 4), field=GF(3))

# Criterion 6 distance-checks the codes whose exhaustive search at the
# formula distance covers at most this many subsets.
DISTANCE_CHECK_BOUND = 250_000


def rand_codeword(params, rng):
    data = [rng.randrange(1 << params.field.w)
            for _ in range(params.dimension())]
    return encode(data, params)


def test_criterion_01_dimension_and_rank():
    assert FLAGSHIP.dimension() == 19
    got = rank(full_parity_matrix(FLAGSHIP))
    assert got == 23
    print("criterion 1: K=19, parity rank=23 (N-K) for C(7;4,(1,1,3,4,4,4))")


def test_criterion_02_distance_formula():
    assert FLAGSHIP.min_distance() == 10
    # corroborate the formula with an explicit weight-10 codeword
    witness = min_weight_codeword(FLAGSHIP, 0, rows=(0, 1, 3, 4, 5),
                                  cols=(1, 3))
    weight = sum(v != 0 for row in witness.values for v in row)
    assert is_member(witness, FLAGSHIP) and weight == 10
    print("criterion 2: d=10 by formula, weight-10 codeword exhibited")


def test_criterion_03_decoder_trace():
    rng = random.Random(25)
    word = rand_codeword(FLAGSHIP, rng)
    pattern = ([(0, 2)] + [(1, c) for c in range(7)]
               + [(2, c) for c in (1, 2, 4, 6)]
               + [(3, c) for c in (0, 3, 5)]
               + [(4, c) for c in range(7)] + [(5, 4)])
    damaged = erase_positions(word, pattern)
    result = decode_rows(damaged, FLAGSHIP)
    assert result == word and result.erasure_count == 0
    # the plan decode_rows ran, read from the mask alone
    (step,) = decode_plan(damaged, FLAGSHIP).passes
    assert step.order == (1, 4, 2, 3, 0, 5)
    assert step.counts == (7, 7, 4, 3, 0, 0)
    assert step.system == ((1, 1, 1, 1, 1, 1),
                           (0, 1, 4, 7, 2, 6),
                           (0, 0, 1, 2, 3, 2),
                           (0, 0, 0, 1, 3, 7))
    assert [(p, row, level) for p, row, _, level, _, _ in step.peel] == \
        [(3, 3, 1), (2, 2, 2), (1, 4, None), (0, 1, None)]
    print("criterion 3: 22-erasure pattern decoded; triangulated system and "
          "peel order match the worked fixture entry-for-entry")


def test_criterion_04_bound_table():
    bound, table = distance_bound(EpcShape(7, 2, 8, 3, 3))
    assert bound == 20
    assert table == {1: 24, 2: 20, 3: 22, 4: 21}
    # operational content of the a=2 entry: a (v+b)x(h+a) = 4x5 erased
    # rectangle defeats a 7x8 code with this parity structure
    realization = GpcParams(m=7, n=8, k=5, s=(4, 3), u=(3, 6), field=GF(4))
    assert realization.dimension() == 22          # (m-v)(n-h) - g
    h = full_parity_matrix(realization)
    rect = [r * 8 + c for r in range(4) for c in range(5)]
    assert not oracle.correctable(rect, h)
    print("criterion 4: EP(7,2;8,3;3) bound 20, per-a table {1:24,2:20,3:22,"
          "4:21}; 4x5 rectangle uncorrectable on a 56-symbol realization")


def test_criterion_05_transpose_and_staircase():
    p = GpcParams(m=6, n=7, k=5, s=(2, 2, 2), u=(1, 3, 5), field=GF(3))
    assert p.notation() == "C(7;5,(1,1,3,3,5,5))"
    q = p.transposed()
    assert q.notation() == "C(6;6,(1,1,2,2,4,4,4))"
    assert q.transposed() == p
    stairs = [(0, 0), (0, 4), (1, 0), (1, 1), (2, 1), (2, 2),
              (3, 2), (3, 3), (4, 3), (4, 4)]
    assert len(stairs) == p.min_distance()
    word = rand_codeword(p, random.Random(7))
    damaged = erase_positions(word, stairs)
    with pytest.raises(UncorrectableError):
        decode_rows(damaged, p)
    assert decode_iterative(damaged, p) == word
    print("criterion 5: transpose is C(6;6,(1,1,2,2,4,4,4)) and involutive; "
          "10-erasure staircase needs (and gets) the iterative decoder")


def _small_param_grid():
    """Every valid parameter set with mn <= 24 and at most three levels."""
    for m in range(2, 13):
        for n in range(2, 13):
            if m * n > 24:
                continue
            field = field_with_order(max(m, n))
            for t in (1, 2, 3):
                for u in itertools.combinations(range(1, n), t):
                    for cuts in itertools.combinations(range(1, m), t - 1):
                        s = tuple(b - a for a, b in
                                  zip((0,) + cuts, cuts + (m,)))
                        for k in range(max(1, m - s[-1] + 1), m + 1):
                            try:
                                yield GpcParams(m=m, n=n, k=k, s=s, u=u,
                                                field=field)
                            except ValueError:
                                continue


def test_criterion_06_formula_vs_exhaustive_search():
    total = 0
    checked = {1: 0, 2: 0, 3: 0}
    for p in _small_param_grid():
        total += 1
        h = full_parity_matrix(p)
        assert rank(h) == p.m * p.n - p.dimension(), p.notation()
        d = p.min_distance()
        if oracle.search_cost(p.m * p.n, d) > DISTANCE_CHECK_BOUND:
            continue            # exhaustive confirmation too wide; rank-only
        report = oracle.brute_min_distance(h, d)
        assert report.distance == d, p.notation()
        checked[len(p.s)] += 1
    assert total == 1246
    assert checked == {1: 273, 2: 440, 3: 116}
    print(f"criterion 6: {total} parameter sets rank-checked; "
          f"{sum(checked.values())} distance-checked exhaustively "
          f"(per level count {checked}); formula exact on all")


def test_criterion_07_one_global_parity_meets_bound():
    built = 0
    unreachable = []
    for m, n, v, h in itertools.product(range(3, 8), range(3, 8),
                                        (1, 2), (1, 2)):
        if m < v + 2:
            continue
        bound, _ = distance_bound(EpcShape(m, v, n, h, 1))
        if h > n - 2:
            # no code over n columns has nested checks of strength h+1 = n;
            # the bound here is not met by any array construction
            with pytest.raises(ValueError):
                build_optimal_g1(m, v, n, h)
            unreachable.append((m, v, n, h))
            continue
        p = build_optimal_g1(m, v, n, h)
        assert p.min_distance() == bound, (m, v, n, h)
        assert p.dimension() == (m - v) * (n - h) - 1
        built += 1
    assert built == 81 and len(unreachable) == 9
    assert all(h == n - 1 for _, _, n, h in unreachable)
    example = build_optimal_g1(4, 1, 5, 1)
    assert (example.m, example.n, example.k) == (4, 5, 3)
    assert example.s == (2, 2) and example.u == (1, 2)
    assert example.min_distance() == 6
    print("criterion 7: 81/81 realizable shapes meet the bound (incl. the "
          "4x5 v=h=1 instance, d=6); the 9 h=n-1 shapes exceed what row "
          "checks of strength n allow and are rejected")


def test_criterion_08_two_global_parities_fall_short():
    bound, _ = distance_bound(EpcShape(5, 1, 5, 1, 2))
    assert bound == 8
    for s, u in (((3, 2), (1, 3)), ((2, 3), (1, 2))):
        p = GpcParams(m=5, n=5, k=4, s=s, u=u, field=GF(3))
        assert p.dimension() == 14          # (m-v)(n-h) - 2
        assert p.min_distance() == 6 < bound, p.notation()
    print("criterion 8: C(5;4,(1,1,1,3,3)) and C(5;4,(1,1,2,2,2)) both "
          "reach only d=6 against the g=2 bound of 8")


def test_criterion_09_double_extension_distance():
    lc = build_h2(3, 3)
    assert lc.field.w == 4 and lc.redundancy == 7
    report = oracle.brute_min_distance(lc.check_matrix, 8)
    assert report.distance == 8
    for pat in itertools.combinations(range(9), 7):
        assert oracle.correctable(pat, lc.check_matrix), pat
    print("criterion 9: 3x3 sum+power checks give d=8 exactly; "
          "all 36 seven-erasure patterns correctable")


def test_criterion_10_triple_extension_distance():
    cases = [(3, 3, GF.from_prime(11)), (3, 4, GF.from_prime(13))]
    for m, n, field in cases:
        assert check_condition_35(m, n, field) is None
        lc = build_h3(m, n, field)
        report = oracle.brute_min_distance(lc.check_matrix, 9)
        assert report.distance == 9, (m, n)
    lc34 = build_h3(3, 4, GF.from_prime(13))
    count = 0
    for pat in itertools.combinations(range(12), 8):
        assert oracle.correctable(pat, lc34.check_matrix), pat
        count += 1
    assert count == 495
    print("criterion 10: squared-power extension reaches d=9 over the "
          "order-11 and order-13 root fields; all 495 eight-erasure "
          "patterns of the 3x4 instance correctable")


def test_criterion_11_row_budgets_beyond_uniform_checks():
    pattern = [(0, 0), (0, 1), (0, 3), (1, 0), (1, 1),
               (2, 0), (2, 1), (2, 3)]
    p = GpcParams(m=5, n=5, k=4, s=(2, 1, 2), u=(1, 2, 3), field=GF(3))
    assert p.notation() == "C(5;4,(1,1,2,3,3))"
    word = rand_codeword(p, random.Random(3))
    assert decode_rows(erase_positions(word, pattern), p) == word
    lc = build_h2(5, 5, default_field(5))
    flat = sorted(r * 5 + c for r, c in pattern)
    assert not oracle.correctable(flat, lc.check_matrix)
    print("criterion 11: 3+2+3 row pattern decoded by the layered 5x5 code "
          "but uncorrectable under uniform sum+power checks")


def test_criterion_12_random_roundtrip():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        word = rand_codeword(FLAGSHIP, rng)
        pattern = oracle.random_decodable_pattern(FLAGSHIP, rng)
        decoded = decode_rows(erase_positions(word, pattern), FLAGSHIP)
        assert is_member(decoded, FLAGSHIP)
        if decoded != word:
            mismatches += 1
    assert mismatches == 0
    print("criterion 12: 1000 seeded decodable patterns, 0 mismatches, "
          "every output a codeword")
