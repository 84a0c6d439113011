"""Product codes extended by global parities.

An extended product code EP(m, v; n, h; g) protects an m x n array with
h horizontal parities per row, v vertical parities per column and g
extra global parities.  :func:`distance_bound` gives the sharp upper
bound on its minimum distance as a minimum over critical-rectangle
shapes.  Three concrete constructions are provided:

* :func:`build_optimal_g1` realizes the g = 1 bound inside the
  generalized-product family (a two-level ladder),
* :func:`build_h2` adds two global parities built on powers of alpha,
  reaching distance 8 for v = h = 1,
* :func:`build_h3` adds a third power row, reaching its bound of 10 with
  two rows or two columns, and otherwise 9 whenever the field satisfies
  a quadruple non-vanishing condition (:func:`check_condition_35`); the
  all-ones-modulus fields of :meth:`gpcodes.fields.GF.from_prime`
  satisfy it by construction.

The latter two are plain linear codes on flattened arrays: a
:class:`~gpcodes.linalg.LinearCode`, re-exported here, whose generic
erasure decoding is :meth:`~gpcodes.linalg.LinearCode.fill`.  Their
check rows are the product code's, the t = 1 generalized product code
of :func:`gpcodes.gpc.full_parity_matrix`, plus the global power rows.
"""

from __future__ import annotations

from math import ceil
from typing import NamedTuple

from .fields import GF, field_with_order
from .gpc import GpcParams, UncorrectableError, _Rules, full_parity_matrix
# ``solve`` is unused but stays bound for perfbench's tracer test.
from .linalg import (LinearCode, Matrix, NoSolutionError,  # noqa: F401
                     UnderdeterminedError, solve)


class EpcShape(_Rules, NamedTuple("EpcShape", [
        ("m", int), ("v", int), ("n", int), ("h", int), ("g", int)])):
    """The five defining counts of an extended product code."""

    __slots__ = ()

    def violations(self) -> list[str]:
        out = []
        if not 1 <= self.v < self.m:
            out.append(f"need 1 <= v < m, got v={self.v}, m={self.m}")
        if not 1 <= self.h < self.n:
            out.append(f"need 1 <= h < n, got h={self.h}, n={self.n}")
        if self.g < 0:
            out.append(f"need g >= 0, got {self.g}")
        return out

    def __str__(self) -> str:
        return f"EP({self.m},{self.v};{self.n},{self.h};{self.g})"


def distance_bound(shape: EpcShape) -> tuple[int, dict[int, int]]:
    """Sharp distance upper bound and its per-rectangle table.

    For each admissible count ``a`` of extra columns the table holds the
    weight of an uncorrectable erasure pattern built from a
    ``(v+b) x (h+a)`` rectangle (plus a partial row when the global
    parities do not divide evenly); the bound is the table minimum.
    """
    shape.check()
    lo = ceil((shape.g + 1) / (shape.m - shape.v))
    hi = min(shape.g + 1, shape.n - shape.h)
    if lo > hi:
        raise ValueError(f"degenerate shape {shape}: no admissible rectangle")
    table: dict[int, int] = {}
    for a in range(lo, hi + 1):
        b, r = divmod(shape.g + 1, a)
        val = (shape.v + b) * (shape.h + a)
        if r:
            val += shape.h + r
        table[a] = val
    return min(table.values()), table


def build_optimal_g1(m: int, v: int, n: int, h: int,
                     field: GF | None = None) -> GpcParams:
    """EP(m, v; n, h; 1) meeting the distance bound.

    Implemented as a two-level ladder: all rows correct h erasures, the
    combinations of the last v+1 sorted rows correct h+1, and v row
    combinations vanish.  Requires m >= v + 2 and h <= n - 2 so the
    ladder is well formed.
    """
    EpcShape(m, v, n, h, 1).check()
    if m < v + 2:
        raise ValueError(f"need m >= v + 2, got m={m}, v={v}")
    if h > n - 2:
        raise ValueError(f"need h <= n - 2, got h={h}, n={n}")
    if field is None:
        field = field_with_order(max(m, n))
    return GpcParams(m=m, n=n, k=m - v, s=(m - v - 1, v + 1),
                     u=(h, h + 1), field=field).check()


def _power_rows_code(m: int, n: int, field: GF | None,
                     steps: tuple[int, ...]) -> LinearCode:
    # The product code's checks, then the row alpha^(step*j) per step.
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    if field is None:
        field = field_with_order(m * n)
    if field.alpha_order < m * n:
        raise ValueError(
            f"order(alpha)={field.alpha_order} < m*n={m * n}")
    product = full_parity_matrix(
        GpcParams(m, n, k=m - 1, s=(m,), u=(1,), field=field))
    powers = [[field.alpha_pow(step * j) for j in range(m * n)]
              for step in steps]
    return LinearCode(Matrix(field, product.data + powers))


def build_h2(m: int, n: int, field: GF | None = None) -> LinearCode:
    """EP(m, 1; n, 1; 2) on flattened m x n arrays.

    Check rows: the product code's checks, one sum per array row and
    one per array column (the t = 1 generalized product code with
    k = m - 1 and u = (1,)), then the alpha-power row and its
    inverse-power twin.  Needs order(alpha) >= m*n, which also makes
    that product code valid.
    """
    return _power_rows_code(m, n, field, (1, -1))


def build_h3(m: int, n: int, field: GF | None = None) -> LinearCode:
    """EP(m, 1; n, 1; 3): the two-global construction plus a squared-power row.

    Bound 10 when m = 2 or n = 2, reached over GF(2^4), GF(2^5), GF(2^8)
    and ``GF.from_prime(19)`` by brute force; else 9, reached exactly
    when the field meets :func:`check_condition_35`.
    """
    return _power_rows_code(m, n, field, (1, -1, 2))


def check_condition_35(m: int, n: int, field: GF) -> tuple[int, int, int, int] | None:
    """Quadruple test deciding whether the three-global code reaches distance 9.

    Returns None when, for all 1 <= i1 <= m-1, 1 <= |i2| <= m-1,
    1 <= j1 <= n-1, 1 <= |j2| <= n-1,

        1 + alpha^(-j1) + alpha^(-i2*n + j2) + alpha^(-(i2 - i1)*n + j2) != 0,

    otherwise the first violating (i1, i2, j1, j2) in loop order.  It
    decides 9 only where 9 is the bound, that is m, n >= 3.
    """
    f = field
    signed_i = list(range(1, m)) + list(range(-1, -m, -1))
    signed_j = list(range(1, n)) + list(range(-1, -n, -1))
    for i1 in range(1, m):
        for i2 in signed_i:
            for j1 in range(1, n):
                for j2 in signed_j:
                    acc = 1 ^ f.alpha_pow(-j1)
                    acc ^= f.alpha_pow(-i2 * n + j2)
                    acc ^= f.alpha_pow(-(i2 - i1) * n + j2)
                    if acc == 0:
                        return (i1, i2, j1, j2)
    return None


def lc_erasure_decode(values: list[int], erased: set[int] | frozenset[int],
                      code: LinearCode) -> list[int]:
    """Generic erasure decoding by solving the syndrome system.

    Needs the erased check-matrix columns to be independent; otherwise
    the pattern is uncorrectable and :class:`UncorrectableError` is
    raised, as it is when the survivors contradict the code, a word
    with no erasures included.  Survivors must lie in the field; the
    symbols at erased positions are ignored.  Each pattern of ``code``
    solves from the code's :meth:`~gpcodes.linalg.LinearCode.syndrome`,
    compiled once per code for w <= 8 (the README's "Syndromes" item
    gives the time of such a decode), until
    :class:`~gpcodes.linalg.PlanSlot`'s rule compiles its plan (see
    :meth:`~gpcodes.linalg.LinearCode.fill`): equal output, and the
    same errors, checks included.
    """
    if len(values) != code.length:
        raise ValueError("word length mismatch")
    cols = sorted(erased)
    if cols and not 0 <= cols[0] <= cols[-1] < code.length:
        raise ValueError("erased position out of range")
    known = [0 if j in erased else v for j, v in enumerate(values)]
    code.field.check_symbols(known, "survivor")
    try:
        code.fill(known, tuple(cols))
    except UnderdeterminedError as exc:
        raise UncorrectableError(
            f"{len(cols)} erased positions span a dependent column set",
            remaining=frozenset(cols)) from exc
    except NoSolutionError as exc:
        raise UncorrectableError(
            "known symbols are inconsistent with the code",
            remaining=frozenset(cols)) from exc
    return known


def lc_encode(data: list[int], code: LinearCode) -> list[int]:
    """Systematic encoding: data fills the non-parity positions in order.

    The parity positions are an erasure pattern that
    :func:`lc_erasure_decode` recovers, so its plan, equal bit for bit,
    is compiled by :class:`~gpcodes.linalg.PlanSlot`'s rule, per
    ``code`` object.  They are a column basis of the check matrix, so
    that fill has exactly one solution and zero residual rows whatever
    the data, and cannot raise.
    """
    if len(data) != code.dimension:
        raise ValueError(f"expected {code.dimension} symbols, got {len(data)}")
    code.field.check_symbols(data, "data symbol")
    word = [0] * code.length
    for pos, sym in zip(code.data_positions(), data):
        word[pos] = sym
    code.fill(word, code.parity_positions())
    return word


def lc_is_member(word: list[int], code: LinearCode) -> bool:
    """Whether ``word`` has a zero :meth:`~LinearCode.syndrome`; raises
    ``ValueError`` when a symbol lies outside [0, 2^w)."""
    code.field.check_symbols(word, "symbol")
    return not any(code.syndrome(word))
