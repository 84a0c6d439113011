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

The latter two are linear codes on flattened arrays: a
:class:`~gpcodes.linalg.LinearCode`, re-exported here, that builds its
own check rows from m, n, the field and its power steps, and keeps its
:class:`EpcShape` as ``shape``.  Those rows are the product code's,
the t = 1 generalized product code of
:func:`gpcodes.gpc.full_parity_matrix`, one sum per array row and one
per array column, plus the global power rows.

Each has one syndrome, for w <= 8 computed in grid form from the
word's bytes as one int, by power sums in halvings
(:class:`~gpcodes.linalg.Fold`): the n column sums fold the m array
rows, the m row sums fold each row's n bytes at once, and each power
row folds the array rows with one base, then takes an n-step Horner
sum.  That is the syndrome form in which partial-MDS codes are decoded
(Blaum, Hafner and Hetzler, IEEE Trans. IT 2013).  Every erasure plan
of a ``LinearCode`` reads the syndrome, here these r = m + n + g check
symbols.  So an encode or a stopping-set repair costs
(g + 1) * ceil(log2 m) + ceil(log2 n) halvings for the syndrome,
g * ceil(log2 m) of them with one translate each, and at most r
translates for the plan.  Blocks of words take the generic syndrome.

:func:`lc_erasure_decode` decodes them local first, as storage codes
with local and global parities are meant to be repaired: it takes the
word's syndrome once, peels every erasure that is the last one in its
row or column from that line's entry, adding each peeled symbol into
the syndrome, leaves only what the peel cannot reach, a stopping set,
to the generic :meth:`~gpcodes.linalg.LinearCode.solve_syndrome` of
the syndrome it tracked, and accepts a fully peeled word exactly when
that syndrome vanishes.  A ``LinearCode`` built from a check matrix
alone decodes by :meth:`~gpcodes.linalg.LinearCode.fill`, with plans
that read the syndrome of its check matrix.
"""

from __future__ import annotations

from math import ceil
from typing import Collection, NamedTuple, Sequence

from .fields import GF, field_with_order
from .gpc import (ContradictionError, GpcParams, UncorrectableError, _Rules,
                  _not_ints, full_parity_matrix)
# ``solve`` is unused but stays bound for perfbench's tracer test.
from .linalg import (Fold, LinearCode, Matrix,  # noqa: F401
                     NoSolutionError, UnderdeterminedError, solve)


class EpcShape(_Rules, NamedTuple("EpcShape", [
        ("m", int), ("v", int), ("n", int), ("h", int), ("g", int)])):
    """The five defining counts of an extended product code."""

    __slots__ = ()

    def violations(self) -> list[str]:
        out = _not_ints(zip(self._fields, self))
        if out:
            return out
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


def _grid_field(m: int, n: int, field: GF | None) -> GF:
    # The field of an m x n array on alpha's powers, after the checks
    # that come before any work: m and n ints >= 2 (a bool is no count),
    # and a GF whose alpha has order at least m*n, None picking the
    # smallest field that fits.
    bad = _not_ints(zip("mn", (m, n)))
    if bad or m < 2 or n < 2:
        raise ValueError("; ".join(bad) or "need m, n >= 2")
    f = field_with_order(m * n) if field is None else field
    if not isinstance(f, GF):
        raise ValueError(f"field must be a GF, got {field!r}")
    if f.alpha_order < m * n:
        raise ValueError(f"order(alpha)={f.alpha_order} < m*n={m * n}")
    return f


class _PowerRowsCode(LinearCode):
    # build_h2's and build_h3's code, EP(m, 1; n, 1; len(steps)), which
    # builds its own check rows: the t = 1 product code's m row sums and
    # n column sums of an m x n array flattened row by row, then the row
    # alpha^(step*j) for each of ``steps``.  It keeps that EpcShape as
    # ``shape``.  lc_erasure_decode peels its words on the sums before
    # any fill.  For w <= 8 the syndrome of a single word, which the peel
    # tracks and every plan reads, is computed in grid form, with fold
    # plans built with the code.

    def __init__(self, m: int, n: int, field: GF | None,
                 steps: tuple[int, ...]):
        f = _grid_field(m, n, field)
        product = full_parity_matrix(
            GpcParams(m, n, k=m - 1, s=(m,), u=(1,), field=f))
        super().__init__(Matrix(f, product.data + [
            [f.alpha_pow(step * j) for j in range(m * n)] for step in steps]))
        self.m, self.n = m, n
        self.shape = EpcShape(m, 1, n, 1, len(steps))
        # The syndrome's folds (see syndrome), for w <= 8: the column sums
        # and V_s per step, the row sums, and Horner's alpha^s per step.
        if f.mul_tables is not None:
            self._col = Fold(f, m, n, [f.alpha_pow(s * n) for s in (0,) + steps])
            self._row = Fold(f, n, 1, [1], repeat=m)
            self._horner = [f.mul_tables[f.alpha_pow(s)] for s in steps]

    def syndrome(self, word: Sequence[int], block: int = 1) -> list[int]:
        """``check_matrix.mul_vec(word)`` for a word of symbols in range.

        For a single word with w <= 8 in grid form, from the word's bytes
        as one int, by :class:`~gpcodes.linalg.Fold` plans built with the
        code.  The n column sums fold the m array rows, and the m row sums
        fold each row's n bytes at once.  With j = r*n + c, power row
        alpha^(s*j) is the sum over c of alpha^(s*c) times V_c, V_c the
        sum over r of alpha^(s*r*n) times the cell (r, c).  So V folds the
        array rows with base alpha^(s*n), in ceil(log2 m) translates, and
        the sum is an n-step Horner in alpha^s.  Blocks and wider fields
        run :meth:`LinearCode.syndrome`.
        """
        if self.field.w > 8 or block > 1:
            return super().syndrome(word, block)
        if len(word) != self.length:
            raise ValueError("vector length mismatch")
        m, n = self.m, self.n
        cells = int.from_bytes(bytearray(word), "little")
        col_sums, *powers = self._col(cells)
        out = [*self._row(cells)[0].to_bytes(m * n, "little")[::n],
               *col_sums.to_bytes(n, "little")]
        for v, step in zip(powers, self._horner):
            total = 0
            for c in v.to_bytes(n, "big"):
                total = step[total] ^ c
            out.append(total)
        return out


def build_h2(m: int, n: int, field: GF | None = None) -> LinearCode:
    """EP(m, 1; n, 1; 2) on flattened m x n arrays.

    Check rows: the product code's checks, one sum per array row and
    one per array column (the t = 1 generalized product code with
    k = m - 1 and u = (1,)), then the alpha-power row and its
    inverse-power twin.  Needs order(alpha) >= m*n, which also makes
    that product code valid.
    """
    return _PowerRowsCode(m, n, field, (1, -1))


def build_h3(m: int, n: int, field: GF | None = None) -> LinearCode:
    """EP(m, 1; n, 1; 3): the two-global construction plus a squared-power row.

    Bound 10 when m = 2 or n = 2, reached over GF(2^4), GF(2^5), GF(2^8)
    and ``GF.from_prime(19)`` by brute force; else 9, reached exactly
    when the field meets :func:`check_condition_35`.
    """
    return _PowerRowsCode(m, n, field, (1, -1, 2))


def check_condition_35(m: int, n: int, field: GF) -> tuple[int, int, int, int] | None:
    """Quadruple test deciding whether the three-global code reaches distance 9.

    Returns None when, for all 1 <= i1 <= m-1, 1 <= |i2| <= m-1,
    1 <= j1 <= n-1, 1 <= |j2| <= n-1,

        1 + alpha^(-j1) + alpha^(-i2*n + j2) + alpha^(-(i2 - i1)*n + j2) != 0,

    otherwise the first violating (i1, i2, j1, j2) in loop order.  It
    decides 9 only where 9 is the bound, that is m, n >= 3.  Raises
    ``ValueError`` where no h3 code exists: m or n not an int >= 2,
    ``field`` not a GF, or m*n above the order of its alpha.
    """
    if field is None:
        raise ValueError("field must be a GF, got None")
    f = _grid_field(m, n, field)
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


def _peel_then_fill(word: list[int], erased: list[int],
                    code: _PowerRowsCode, syndrome: list[int]) -> None:
    # Fill ``erased`` (ascending, zero in ``word``) in place, given the
    # word's ``syndrome``: first every cell that is the one erasure left
    # in its array row or column, from that line's sum, then what is left
    # from the syndrome the peel tracked.  A symbol v peeled at
    # j = r*n + c is read from entry r or m + c, is added to both, and
    # H[i][j] * v is added to each power entry i, so the syndrome stays
    # that of the word, whose stuck cells still hold 0: code.solve_syndrome
    # of it and the stuck cells is code.fill of them, without a second
    # syndrome.  Each peeled symbol is forced by a check row, so that
    # solve sees exactly the system the erasures had.  Raises what it
    # raises, or NoSolutionError when a fully peeled word's syndrome does
    # not vanish.
    m, n = code.m, code.n
    mul, checks = code.field.mul, code.check_matrix.data
    powers = range(m + n, len(syndrome))
    in_row, in_col = [0] * m, [0] * n
    for j in erased:
        in_row[j // n] += 1
        in_col[j % n] += 1
    left = erased
    while left:
        stuck = []
        for j in left:
            r, c = divmod(j, n)
            if in_row[r] == 1:
                v = syndrome[r]
            elif in_col[c] == 1:
                v = syndrome[m + c]
            else:
                stuck.append(j)
                continue
            word[j] = v
            syndrome[r] ^= v
            syndrome[m + c] ^= v
            for i in powers:
                syndrome[i] ^= mul(checks[i][j], v)
            in_row[r] -= 1
            in_col[c] -= 1
        if len(stuck) == len(left):
            stuck = tuple(stuck)
            for j, v in zip(stuck, code.solve_syndrome(syndrome, stuck)):
                word[j] = v
            return
        left = stuck
    if any(syndrome):
        raise NoSolutionError("inconsistent system")


def lc_erasure_decode(values: list[int], erased: Collection[int],
                      code: LinearCode) -> list[int]:
    """The codeword of ``code`` that agrees with ``values`` outside
    ``erased``.

    Needs the erased check-matrix columns to be independent; otherwise
    the pattern is uncorrectable and :class:`UncorrectableError` is
    raised.  When the survivors contradict the code, a word with no
    erasures included, its subclass :class:`ContradictionError` is
    raised.  Survivors must lie in the field; the symbols at erased
    positions are ignored.  A position named twice is erased once, and
    one that is not an int in ``range(code.length)`` raises
    ``ValueError``.

    The codes of :func:`build_h2` and :func:`build_h3` decode local
    first, from the code's syndrome of the word with its erased symbols
    zeroed.  While an array row or column holds exactly one erasure,
    that cell is filled from the line's entry of the syndrome; every
    such fill is forced by a check row.  Each peeled symbol is added
    into the syndrome, into its row's and its column's entries and,
    times its coefficient, into each power row's, so the syndrome stays
    that of the word.  A word peeled to the end is a
    codeword exactly when that syndrome vanishes, and never reaches a
    plan.  The cells the peel cannot reach, a stopping set such as the
    corners of a rectangle, solve from that tracked syndrome, the
    syndrome of the word with the peeled symbols as survivors, which is
    the same system as before the peel, and no syndrome is computed
    again.  So output and errors, ``remaining`` included, equal those
    of the fill of the whole pattern.

    Any other code runs :meth:`~gpcodes.linalg.LinearCode.fill`, and
    that residual its step
    :meth:`~gpcodes.linalg.LinearCode.solve_syndrome`: each pattern
    solves from the code's :meth:`~gpcodes.linalg.LinearCode.syndrome`
    until :class:`~gpcodes.linalg.PlanSlot`'s rule compiles its plan, which
    maps that syndrome to the erased symbols, with equal output and the
    same errors, checks included.  On the codes of :func:`build_h2` and
    :func:`build_h3` (w <= 8) the plan reads their grid syndrome.
    """
    if len(values) != code.length:
        raise ValueError("word length mismatch")
    if not all(isinstance(j, int) and 0 <= j < code.length for j in erased):
        raise ValueError("erased position out of range")
    cols = sorted(set(erased))
    known = list(values)
    for j in cols:
        known[j] = 0
    # The syndrome reads the survivors as their check built them.
    cells = code.field.check_symbols(known, "survivor")
    try:
        if isinstance(code, _PowerRowsCode):
            _peel_then_fill(known, cols, code, code.syndrome(cells))
        else:
            code.fill(known, tuple(cols))
    except UnderdeterminedError as exc:
        raise UncorrectableError(
            f"{len(cols)} erased positions span a dependent column set",
            remaining=frozenset(cols)) from exc
    except NoSolutionError as exc:
        raise ContradictionError(
            "known symbols are inconsistent with the code",
            remaining=frozenset(cols)) from exc
    return known


def lc_encode(data: list[int], code: LinearCode) -> list[int]:
    """Systematic encoding: data fills the non-parity positions in order.

    The parity positions are an erasure pattern that
    :meth:`~gpcodes.linalg.LinearCode.fill` recovers, so its plan, equal
    bit for bit, is compiled by :class:`~gpcodes.linalg.PlanSlot`'s rule, per
    ``code`` object.  They are a column basis of the check matrix, so
    that fill has exactly one solution and zero residual rows whatever
    the data, and cannot raise.  The plan maps the syndrome of the data,
    R check symbols, to the parity: on the codes of :func:`build_h2` and
    :func:`build_h3` (w <= 8) the grid syndrome, one ``bytes.translate``
    per array row and power row, then one per check symbol.
    """
    if len(data) != code.dimension:
        raise ValueError(f"expected {code.dimension} symbols, got {len(data)}")
    code.field.check_symbols(data, "data symbol")
    # The data in order with a zero inserted at each parity position,
    # ascending, so that every later position is already shifted.
    word = list(data)
    for pos in code.parity_positions():
        word.insert(pos, 0)
    code.fill(word, code.parity_positions())
    return word


def lc_is_member(word: list[int], code: LinearCode) -> bool:
    """Whether ``word`` has a zero :meth:`~LinearCode.syndrome`; raises
    ``ValueError`` when a symbol lies outside [0, 2^w)."""
    return not any(code.syndrome(code.field.check_symbols(word, "symbol")))
