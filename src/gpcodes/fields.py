"""Arithmetic in GF(2^w) with a selectable modulus polynomial.

Field elements are plain ints in ``[0, 2^w)``: bit ``i`` holds the
coefficient of ``x^i``, so an element is simultaneously a bit vector and
a GF(2) polynomial of degree below ``w``.  Modulus polynomials use the
same packing with one extra bit for the leading term (degree exactly
``w``).  Addition is XOR; multiplication reduces modulo the field
polynomial.

Every field carries a distinguished element ``alpha`` used as the
evaluation point generator for code constructions.  ``alpha`` defaults
to ``x`` (the int 2), which is a primitive element for every entry of
the built-in modulus table.  The all-ones moduli ``M_p(x) = 1 + x + ...
+ x^(p-1)`` give fields where ``x`` has small multiplicative order ``p``
even though the field itself is large; those are exposed through
:func:`mp_polynomial` and :meth:`GF.from_prime`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import index
from typing import Iterable

# One primitive polynomial per width.  Bit i = coefficient of x^i, so
# e.g. 0b1011 is x^3 + x + 1.  x (= the int 2) is primitive modulo each.
DEFAULT_MODULI = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

MAX_WIDTH = 63

# Widths up to this bound get exp/log tables at construction time.
_TABLE_WIDTH = 16


# Trial divisors and Miller-Rabin bases.  With these bases the test is
# exact below 3.3e24 (Sorenson and Webster, 2015), so for every 64-bit
# integer.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def isprime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    # A proper divisor of a composite n without small prime factors.
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
    raise ValueError(f"no factor found for {n}")


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    found = {p for p in _SMALL_PRIMES if n % p == 0}
    for p in found:
        while n % p == 0:
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        x = pending.pop()
        if isprime(x):
            found.add(x)
        else:
            d = _rho(x)
            pending += [d, x // d]
    return sorted(found)


class PrimeSearchError(RuntimeError):
    """No prime with the requested property exists below the cap."""


def poly_degree(poly: int) -> int:
    """Degree of a nonzero GF(2) polynomial packed into an int."""
    if poly <= 0:
        raise ValueError("degree is only defined for nonzero polynomials")
    return poly.bit_length() - 1


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    # Shift-and-xor product of a and b modulo mod; a must be reduced.
    acc = 0
    top = 1 << (mod.bit_length() - 1)
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return acc


def _poly_gcd(a: int, b: int) -> int:
    while b:
        deg_b = b.bit_length()
        r = a
        while r.bit_length() >= deg_b:
            r ^= b << (r.bit_length() - deg_b)
        a, b = b, r
    return a


def is_irreducible(poly: int) -> bool:
    """Irreducibility of a GF(2) polynomial of degree >= 1.

    Uses the derivative-free finite field criterion: ``f`` of degree
    ``d`` is irreducible iff ``x^(2^d) == x (mod f)`` and for every
    prime ``r | d`` the polynomial ``x^(2^(d/r)) - x`` is coprime to
    ``f``.  Runs in polynomial time, so the all-ones moduli of degree
    up to 62 are no problem.
    """
    d = poly_degree(poly)
    if d == 1:
        return True
    if not poly & 1:
        return False  # divisible by x

    def x_to_power_of_two(e: int) -> int:
        # x^(2^e) mod poly by repeated squaring
        cur = 2
        for _ in range(e):
            cur = _poly_mulmod(cur, cur, poly)
        return cur

    if x_to_power_of_two(d) != 2:
        return False
    for r in _prime_factors(d):
        if _poly_gcd(x_to_power_of_two(d // r) ^ 2, poly) != 1:
            return False
    return True


def mp_polynomial(p: int) -> int:
    """The all-ones polynomial 1 + x + ... + x^(p-1), packed as an int."""
    if p < 2:
        raise ValueError("need p >= 2")
    return (1 << p) - 1


def is_two_primitive(p: int) -> bool:
    """True iff 2 generates the multiplicative group modulo the odd prime p."""
    if not isprime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    return all(pow(2, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


def find_construction_prime(min_size: int) -> int:
    """Smallest prime p > min_size such that 2 is primitive modulo p.

    For such p the all-ones modulus of degree p-1 is irreducible and x
    has multiplicative order exactly p in the quotient field, which is
    what the low-redundancy array constructions need.  The search stops
    at MAX_WIDTH + 1 = 64: a larger p gives a field width p-1 that
    :class:`GF` rejects.
    """
    for p in range(max(min_size, 2) + 1, MAX_WIDTH + 2):
        if isprime(p) and is_two_primitive(p):
            return p
    if min_size > MAX_WIDTH:
        raise PrimeSearchError(f"no usable prime lies above {MAX_WIDTH}: "
                               f"GF widths p - 1 stop at {MAX_WIDTH}")
    raise PrimeSearchError(
        f"no prime p with 2 primitive mod p in ({min_size}, {MAX_WIDTH + 1}]"
    )


class GF:
    """A finite field GF(2^w) together with an evaluation element alpha.

    Elements are ints.  Widths run from 2 to 63.  The constructor builds
    everything the field holds, in this order: the prime factors of
    2^w - 1, which :meth:`element_order` reads; for w <= 16, exp/log
    tables of the least primitive element g >= 2 (larger widths fall
    back to shift-and-xor multiplication); ``alpha_order``, the
    multiplicative order of alpha, which every code construction checks
    first; and ``mul_tables``, for w <= 8 the 256-byte product table of
    every element (None for w > 8).  Entry x of table v is v * x (0 past
    the field), so ``block.translate(mul_tables[v])`` multiplies every
    byte symbol of a block by v.  Table g * v is table v translated
    through table g, so one table of products and one translate per
    power of g give them all.  Past the tables, factoring is the one
    construction cost of note: it is largest where 2^w - 1 has two large
    prime factors for Pollard rho to split, as at w = 62.
    """

    __slots__ = ("w", "modulus", "alpha", "order", "_exp", "_log",
                 "_order_factors", "alpha_order", "mul_tables", "_hash")

    def __init__(self, w: int, modulus: int | None = None, alpha: int = 2):
        if type(w) is not int or not 2 <= w <= MAX_WIDTH:
            raise ValueError(f"width must be in [2, {MAX_WIDTH}], got {w!r}")
        if modulus is None:
            if w not in DEFAULT_MODULI:
                raise ValueError(f"no default modulus for width {w}; pass one")
            modulus = DEFAULT_MODULI[w]
        if type(modulus) is not int:
            raise ValueError(f"modulus must be an int, got {modulus!r}")
        if poly_degree(modulus) != w:
            raise ValueError(
                f"modulus degree {poly_degree(modulus)} does not match width {w}"
            )
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        if type(alpha) is not int or not 2 <= alpha < 1 << w:
            raise ValueError(f"alpha must lie in [2, 2^{w}), got {alpha!r}")
        self.w = w
        self.modulus = modulus
        self.alpha = alpha
        self._hash = hash((w, modulus, alpha))  # every cache key hashes it
        self.order = n = (1 << w) - 1  # size of the multiplicative group
        self._order_factors = _prime_factors(n)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if w <= _TABLE_WIDTH:
            g = next(g for g in range(2, n + 1) if self.element_order(g) == n)
            exp = [1] * n
            for i in range(1, n):
                exp[i] = _poly_mulmod(exp[i - 1], g, modulus)
            log = [0] * (n + 1)
            for i, v in enumerate(exp):
                log[v] = i
            self._exp, self._log = exp + exp, log
        self.alpha_order = self.element_order(alpha)
        self.mul_tables: tuple[bytes, ...] | None = None
        if w <= 8:
            pad = bytes(255 - n)
            step = bytes(self.mul(exp[1], x) for x in range(n + 1)) + pad
            tables = [bytes(256)] * (n + 1)
            table = bytes(range(n + 1)) + pad
            for v in exp[:n]:
                tables[v] = table
                table = table.translate(step)
            self.mul_tables = tuple(tables)

    # -- arithmetic -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return _poly_mulmod(a, b, self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^w)")
        if self._exp is not None:
            return self._exp[self.order - self._log[a]]
        return self.pow(a, self.order - 1)

    def pow(self, a: int, e: int) -> int:
        """a raised to an arbitrary (possibly negative) integer power."""
        if e == 0:
            return 1
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self._log is not None:
            idx = (self._log[a] * e) % self.order
            return self._exp[idx]
        if e < 0:
            return self.inv(self.pow(a, -e))
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = _poly_mulmod(acc, base, self.modulus)
            base = _poly_mulmod(base, base, self.modulus)
            e >>= 1
        return acc

    def check_symbols(self, values: Iterable[int],
                      what: str) -> bytearray | list[int]:
        """Raise ``ValueError("<what> out of field range")`` unless every
        value is an int (a bool counts) in [0, 2^w), and return the
        values as it read them, which a caller may read in their place.

        For w <= 8, ``bytearray`` rejects every value that is no int in
        [0, 256) in one C pass, faster than ``bytes`` on a list, and only
        w < 8 needs a ``max`` of the bytes after it: the bytearray is
        returned.  Wider fields take each value's ``__index__`` first, as
        ``bytearray`` does, and return the list of them.
        """
        try:
            if self.w <= 8:
                block = bytearray(values)
                ok = self.w == 8 or max(block, default=0) >> self.w == 0
            else:
                values = list(map(index, values))
                ok = not values or (
                    min(values) >= 0 and max(values) >> self.w == 0)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"{what} out of field range")
        return block if self.w <= 8 else values

    def alpha_pow(self, e: int) -> int:
        return self.pow(self.alpha, e)

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.order
        for q in self._order_factors:
            while n % q == 0 and self.pow(a, n // q) == 1:
                n //= q
        return n

    # -- construction helpers ---------------------------------------

    @classmethod
    def from_prime(cls, p: int) -> "GF":
        """Field defined by the all-ones modulus of an odd prime p.

        2 must be primitive mod p (see :func:`is_two_primitive`); the
        resulting field has width p-1 and alpha = x of order exactly p.
        """
        if not is_two_primitive(p):
            raise ValueError(f"2 is not primitive modulo {p}")
        return cls(p - 1, mp_polynomial(p), alpha=2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return (self.w, self.modulus, self.alpha) == (
            other.w, other.modulus, other.alpha)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GF(2^{self.w}, modulus={self.modulus:#x}, alpha={self.alpha})"


@lru_cache(maxsize=None)
def default_field(w: int) -> GF:
    """Shared GF(2^w) instance over the built-in modulus table."""
    return GF(w)


def field_with_order(min_order: int) -> GF:
    """Smallest table field whose alpha has order >= min_order."""
    for w in sorted(DEFAULT_MODULI):
        if (1 << w) - 1 >= min_order:
            return default_field(w)
    raise ValueError(f"no table field with multiplicative order >= {min_order}")
