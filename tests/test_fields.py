"""Tests for GF(2^w) arithmetic, modulus handling and prime search."""

import os
import random
import subprocess
import sys

import pytest

import gpcodes
from gpcodes.fields import (DEFAULT_MODULI, GF, PrimeSearchError,
                            _prime_factors, default_field, field_with_order,
                            find_construction_prime, is_irreducible,
                            is_two_primitive, isprime, mp_polynomial,
                            poly_degree)


def test_default_moduli_are_irreducible_of_right_degree():
    for w, mod in DEFAULT_MODULI.items():
        assert poly_degree(mod) == w
        assert is_irreducible(mod)


def test_gf8_known_table():
    # x^3 + x + 1 with alpha = x: successive powers 1,2,4,3,6,7,5.
    f = GF(3)
    powers = [f.alpha_pow(i) for i in range(7)]
    assert powers == [1, 2, 4, 3, 6, 7, 5]
    assert f.alpha_pow(7) == 1
    assert f.mul(5, 7) == 6          # alpha^6 * alpha^5 = alpha^11 = alpha^4
    assert f.mul(3, 3) == 5          # alpha^3 squared
    assert f.inv(2) == 5
    assert f.inv(3) == 6


@pytest.mark.parametrize("w", [2, 3, 4, 5, 6, 7, 8])
def test_inverses_exhaustive_small_widths(w):
    f = default_field(w)
    for a in range(1, 1 << w):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("w", [4, 8, 13, 20, 45])
def test_field_axioms_random(w):
    """Associativity / commutativity / distributivity on random samples.

    Widths above 16 exercise the tableless multiply path.
    """
    mod = DEFAULT_MODULI.get(w)
    if mod is None:
        # no table entry: take the first odd irreducible of degree w
        mod = next(cand for cand in range((1 << w) + 3, (1 << (w + 1)), 2)
                   if is_irreducible(cand))
    f = GF(w, mod)
    rng = random.Random(w * 1000 + 7)
    top = 1 << w
    for _ in range(200):
        a, b, c = rng.randrange(top), rng.randrange(top), rng.randrange(top)
        assert a ^ b == b ^ a
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.mul(a, 1) == a
        assert a ^ a == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_pow_negative_and_zero():
    f = default_field(5)
    a = 19
    assert f.pow(a, 0) == 1
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    assert f.pow(a, -1) == f.inv(a)
    assert f.mul(f.pow(a, 7), f.pow(a, -7)) == 1
    # exponents reduce mod the group order
    assert f.pow(a, 31) == 1
    assert f.pow(a, 33) == f.mul(a, a)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -2)


def test_negative_pow_without_tables():
    # w = 18 is past the exp/log tables: a negative power inverts the
    # positive one, as build_h2's and build_h3's alpha^(-j) rows need
    f = GF.from_prime(19)
    assert f.w == 18
    rng = random.Random(19)
    for _ in range(100):
        a, e = rng.randrange(1, 1 << 18), rng.randrange(1, 1 << 20)
        assert f.mul(f.pow(a, -e), f.pow(a, e)) == 1


def test_element_order_exhaustive_gf16():
    f = default_field(4)
    for a in range(1, 16):
        d = f.element_order(a)
        assert 15 % d == 0
        assert f.pow(a, d) == 1
        for q in (3, 5):
            if d % q == 0:
                assert f.pow(a, d // q) != 1
    assert f.alpha_order == 15


def test_alpha_validation():
    with pytest.raises(ValueError):
        GF(4, alpha=0)
    with pytest.raises(ValueError):
        GF(4, alpha=1)
    with pytest.raises(ValueError):
        GF(4, alpha=16)
    # width 1 leaves no admissible alpha at all
    with pytest.raises(ValueError):
        GF(1)


def test_width_one_is_outside_the_range():
    # x^1 + 1 leaves no alpha in [2, 2^1), so widths start at 2
    with pytest.raises(ValueError,
                       match=r"^width must be in \[2, 63\], got 1$"):
        GF(1)
    assert 1 not in DEFAULT_MODULI


def _product(a, b, modulus):
    # Shift-and-xor product, independent of the field under test.
    acc, top = 0, 1 << (modulus.bit_length() - 1)
    while b:
        if b & 1:
            acc ^= a
        a, b = a << 1, b >> 1
        if a & top:
            a ^= modulus
    return acc


def _least_primitive(f):
    # The first g >= 2 whose orbit returns to 1 only after 2^w - 1 steps.
    for g in range(2, 1 << f.w):
        val, steps = g, 1
        while val != 1:
            val, steps = _product(val, g, f.modulus), steps + 1
        if steps == f.order:
            return g
    raise AssertionError("no primitive element")


TABLE_FIELDS = ([default_field(w) for w in range(2, 17)]
                + [GF.from_prime(p) for p in (3, 5, 11, 13)]
                + [GF(w, mod) for w in range(3, 7)
                   for mod in range((1 << w) + 1, 1 << (w + 1), 2)
                   if is_irreducible(mod)])


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=repr)
def test_tables_run_over_the_least_primitive_element(f):
    g, n = _least_primitive(f), f.order
    assert len(f._exp) == 2 * n and len(f._log) == n + 1
    assert f._log[0] == 0
    val = 1
    for i in range(n):
        assert f._exp[i] == f._exp[i + n] == val
        assert f._log[val] == i
        val = _product(val, g, f.modulus)


def test_invalid_arguments_raise():
    for w in (0, 64):
        with pytest.raises(ValueError, match="width must be in"):
            GF(w)
    with pytest.raises(ValueError, match="nonzero polynomials"):
        poly_degree(0)
    with pytest.raises(ValueError, match="need n >= 1"):
        _prime_factors(0)
    assert not is_irreducible(0b110)         # x^2 + x = x (x + 1)
    assert GF(10).mul_tables is None
    with pytest.raises(ZeroDivisionError):
        default_field(4).element_order(0)


def test_mul_tables_equal_the_field_product():
    # Built by translates along the powers of the exp table's generator;
    # GF(4, 0b11111)'s x is not primitive, so its generator is not x.
    for f in ([default_field(w) for w in range(2, 9)]
              + [GF(4, modulus=0b11111), GF.from_prime(3), GF.from_prime(5)]):
        tables = f.mul_tables
        assert len(tables) == 1 << f.w
        for v, table in enumerate(tables):
            assert table == bytes(f.mul(v, x) if x >> f.w == 0 else 0
                                  for x in range(256))


def test_a_field_is_built_whole():
    # Product tables and alpha's order exist straight after construction:
    # a tuple of 2^w tables for w <= 8, and None for wider fields, those
    # past the exp/log tables included.
    for f in [default_field(w) for w in range(2, 9)] + [GF(4, 0b11111)]:
        assert type(f.mul_tables) is tuple and len(f.mul_tables) == 1 << f.w
    for f in (GF(10), GF.from_prime(13), GF(20, 0x100009)):
        assert f.mul_tables is None
    # In GF(4, 0b11111) x has order 5, but alpha = x + 1 is primitive.
    f = GF(4, modulus=0b11111, alpha=3)
    assert f.alpha_order == 15 and f.element_order(2) == 5


def test_modulus_validation():
    # 0b11111 is the all-ones degree-4 polynomial, irreducible since 2 is
    # primitive mod 5 -- it must be accepted even though x is not primitive.
    f = GF(4, modulus=0b11111)
    assert f.alpha_order == 5
    with pytest.raises(ValueError):
        GF(4, modulus=0b10101)       # (x^2+x+1)^2
    with pytest.raises(ValueError):
        GF(4, modulus=0b1011)        # degree 3 != 4
    with pytest.raises(ValueError):
        GF(17)                       # no default modulus for width 17


@pytest.mark.parametrize("w", [4, 8, 10, 20])
def test_check_symbols_accepts_exactly_the_field(w):
    """Ints and bools in [0, 2^w) pass; anything else, a value that is no
    int included, raises the documented ValueError, at either width."""
    f = GF(w, 0x100009) if w == 20 else GF(w)
    top = (1 << w) - 1
    f.check_symbols([], "symbol")
    f.check_symbols([0, top, 1], "symbol")
    f.check_symbols(iter([top] * 3), "symbol")
    f.check_symbols([True, False, top], "symbol")
    for bad in (-1, top + 1, 2 * top, 1 << 30, 1.5, 2.0, "3", None):
        for values in ([0, bad, 1], [bad], [top, bad]):
            with pytest.raises(ValueError,
                               match="^symbol out of field range$"):
                f.check_symbols(values, "symbol")


def test_two_primitive_known_values():
    yes = [3, 5, 11, 13, 19, 29, 37, 53, 59, 61]
    no = [7, 17, 23, 31, 41, 43, 47]
    for p in yes:
        assert is_two_primitive(p), p
    for p in no:
        assert not is_two_primitive(p), p
    with pytest.raises(ValueError):
        is_two_primitive(2)
    with pytest.raises(ValueError):
        is_two_primitive(15)


def test_all_ones_modulus_irreducible_iff_two_primitive():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29]:
        assert is_irreducible(mp_polynomial(p)) == is_two_primitive(p)


def test_find_construction_prime_anchors():
    assert find_construction_prime(2) == 3
    assert find_construction_prime(9) == 11
    assert find_construction_prime(12) == 13
    # 2 has order 3 mod 7, so 7 is skipped
    assert find_construction_prime(5) == 11
    with pytest.raises(PrimeSearchError):
        find_construction_prime(61)   # next candidates 67, ... exceed cap 64


def test_find_construction_prime_returns_only_usable_primes():
    # the search stops at MAX_WIDTH + 1, so GF takes every answer
    for size in range(2, 61):
        p = find_construction_prime(size)
        assert GF.from_prime(p).alpha_order == p
    with pytest.raises(PrimeSearchError, match=r"in \(61, 64\]"):
        find_construction_prime(61)


def test_from_prime_field_properties():
    f = GF.from_prime(11)
    assert f.w == 10
    assert f.modulus == (1 << 11) - 1
    assert f.alpha == 2
    assert f.alpha_order == 11
    assert f.pow(2, 11) == 1
    assert f.pow(2, 10) != 1
    g = GF.from_prime(13)
    assert g.w == 12 and g.alpha_order == 13
    with pytest.raises(ValueError):
        GF.from_prime(7)


def test_mp_polynomial_values():
    assert mp_polynomial(3) == 0b111
    assert mp_polynomial(5) == 0b11111
    with pytest.raises(ValueError):
        mp_polynomial(1)


def test_field_with_order():
    assert field_with_order(7).w == 3
    assert field_with_order(8).w == 4
    assert field_with_order(15).w == 4
    assert field_with_order(16).w == 5
    assert field_with_order(1 << 15).w == 16
    with pytest.raises(ValueError):
        field_with_order(1 << 17)


def test_default_field_is_shared():
    assert default_field(8) is default_field(8)
    assert default_field(8) == GF(8)
    assert hash(GF(8)) == hash(default_field(8))
    assert GF(8) != GF(8, alpha=3)


# ------------------------------------------------------ integer arithmetic

# Strong pseudoprimes to the bases 2..7, 2..23 and 2..37.
PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


def test_prime_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    squares_and_large = [43 * 43, 43 * 43 * 47, 3825123056546413051,
                         (2**31 - 1) * (2**61 - 1)]
    for n in [(1 << w) - 1 for w in range(1, 64)] + squares_and_large:
        assert _prime_factors(n) == sorted(sympy.factorint(n)), n


def test_isprime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(20000) if isprime(n)] == \
        list(sympy.primerange(20000))
    for n in PSEUDOPRIMES + [2**61 - 1, 2**89 - 1]:
        assert isprime(n) == sympy.isprime(n), n


def test_find_construction_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(61):
        p = sympy.nextprime(max(k, 2))
        while sympy.n_order(2, p) != p - 1:
            p = sympy.nextprime(p)
        assert find_construction_prime(k) == p, k


def test_from_prime_alpha_order_is_p():
    # factoring 2^(p-1) - 1 in element_order, up to width 60
    for p in range(3, 62):
        if isprime(p) and is_two_primitive(p):
            assert GF.from_prime(p).alpha_order == p, p


def test_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(gpcodes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gpcodes; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    assert proc.stdout.strip() == "False"
