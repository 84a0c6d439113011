"""Dense matrices and Gaussian elimination over GF(2^w).

Everything here works at desk scale (hundreds of rows) with exact field
arithmetic; rows are plain lists of ints.  Every elimination runs
through one in-place kernel, ``_eliminate``, which picks unit pivots
top to bottom and has two modes:

* below-only, for :func:`row_reduce`, :func:`pivot_columns` and
  :func:`rank`.  It only ever adds multiples of earlier pivot rows to
  later rows (plus the occasional swap), so on a matrix whose leading
  minors are nonsingular :func:`row_reduce` produces exactly the unit
  upper triangular form the array decoders reason about, together with
  the transform that produced it;
* fully reduced (above and below), for :func:`solve` and
  :func:`null_space`.

:class:`ByteMap` is the one compiled-map kernel, for fields with
w <= 8: a fill of a word's target positions from its other symbols,
applied with ``bytes.translate``, whose check symbols must vanish.  It
serves both encode and decode: a systematic encoder fills the parity
positions, and :func:`erasure_plan` compiles :func:`solve`'s erasure
system for a fixed pattern, checks included.  :func:`combine` sums
weighted rows with the same product tables, and holds the symbol-wise
loop for w > 8.  :class:`PlanSlot` decides when a map is worth
compiling, and :func:`recall` is the get-or-build rule of every bounded
cache, evicting the least recently used entry.

:class:`LinearCode` is a code given by its check matrix.  Both families
repair erasures with its one :meth:`LinearCode.fill`: ``epc``'s h2 and
h3 codes a whole word at a time, ``gpc`` one array row at a time
against one level's row code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .fields import GF


class LinearSolveError(ValueError):
    """Base class for solve failures."""


class NoSolutionError(LinearSolveError):
    """The system is inconsistent."""


class UnderdeterminedError(LinearSolveError):
    """The system has more than one solution."""


class Matrix:
    """A rows x cols matrix over a GF(2^w) instance."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: GF, data: Sequence[Sequence[int]]):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: GF, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.data == other.data

    def __repr__(self) -> str:
        body = "\n".join(" ".join(f"{v:>3x}" for v in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})\n{body}"

    def submatrix(self, rows: Sequence[int] | None = None,
                  cols: Sequence[int] | None = None) -> "Matrix":
        rr = range(self.rows) if rows is None else rows
        cc = range(self.cols) if cols is None else cols
        return Matrix(self.field, [[self.data[r][c] for c in cc] for r in rr])

    def mul_vec(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, x):
                if a and b:
                    acc ^= f.mul(a, b)
            out.append(acc)
        return out

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        f = self.field
        ot = list(zip(*other.data))
        out = []
        for row in self.data:
            out_row = []
            for col in ot:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc ^= f.mul(a, b)
                out_row.append(acc)
            out.append(out_row)
        return Matrix(f, out)


def vstack(blocks: Sequence[Matrix]) -> Matrix:
    field = blocks[0].field
    cols = blocks[0].cols
    if any(b.cols != cols or b.field != field for b in blocks):
        raise ValueError("blocks must share field and width")
    data: list[list[int]] = []
    for b in blocks:
        data.extend(b.data)
    return Matrix(field, data)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row-major flattening on both axes."""
    if a.field != b.field:
        raise ValueError("fields differ")
    f = a.field
    data = []
    for ar in a.data:
        for br in b.data:
            data.append([f.mul(x, y) if x and y else 0 for x in ar for y in br])
    return Matrix(f, data)


def vandermonde(field: GF, nodes: Sequence[int], num_rows: int) -> Matrix:
    """Matrix with entry (r, j) = nodes[j]^r.

    The nodes must be distinct and nonzero so that every square
    submatrix taken from consecutive powers is invertible.
    """
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes must be distinct")
    if any(n == 0 for n in nodes):
        raise ValueError("nodes must be nonzero")
    data = [[1] * len(nodes)]
    for _ in range(1, num_rows):
        prev = data[-1]
        data.append([field.mul(p, n) for p, n in zip(prev, nodes)])
    return Matrix(field, data[:num_rows])


def _eliminate(rows: list[list[int]], field: GF, ncols: int,
               full: bool) -> list[int]:
    # The one elimination loop: in place over the first ncols columns.
    # Each pivot is the first row, top to bottom, with a nonzero entry in
    # its column; it is swapped up, scaled to 1 and used to clear the
    # rows below it, or every other row when ``full``.  Returns the pivot
    # columns.
    mul = field.mul
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        p = len(pivots)
        if p == nrows:
            break
        sel = next((i for i in range(p, nrows) if rows[i][col]), None)
        if sel is None:
            continue
        rows[sel], rows[p] = rows[p], rows[sel]
        inv = field.inv(rows[p][col])
        if inv != 1:
            rows[p] = [mul(inv, v) for v in rows[p]]
        prow = rows[p]
        for i in range(0 if full else p + 1, nrows):
            factor = rows[i][col]
            if factor and i != p:
                rows[i] = [v ^ mul(factor, q) for v, q in zip(rows[i], prow)]
        pivots.append(col)
    return pivots


def row_reduce(m: Matrix) -> tuple[Matrix, Matrix]:
    """Forward elimination to row echelon form with unit pivots.

    Returns ``(r, t)`` with ``t.matmul(m) == r``.  Pivots are chosen as
    the first row (top to bottom) with a nonzero entry in the current
    column; each pivot row is scaled to make the pivot 1 and then
    cleared *below* only, so rows keep their triangular structure.
    """
    c = m.cols
    aug = [row + [int(i == j) for j in range(m.rows)]
           for i, row in enumerate(m.data)]
    _eliminate(aug, m.field, c, full=False)
    return (Matrix(m.field, [row[:c] for row in aug]),
            Matrix(m.field, [row[c:] for row in aug]))


def pivot_columns(m: Matrix) -> list[int]:
    """Columns that are not combinations of the columns before them."""
    return _eliminate([row[:] for row in m.data], m.field, m.cols, full=False)


def rank(m: Matrix) -> int:
    return len(pivot_columns(m))


def solve(m: Matrix, rhs: Sequence[int]) -> list[int]:
    """Unique solution of m @ x = rhs.

    Raises :class:`NoSolutionError` if the system is inconsistent and
    :class:`UnderdeterminedError` if the solution is not unique.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = [row + [b] for row, b in zip(m.data, rhs)]
    pivots = _eliminate(aug, m.field, m.cols + 1, full=True)
    if m.cols in pivots:
        raise NoSolutionError("inconsistent system")
    if len(pivots) < m.cols:
        raise UnderdeterminedError(
            f"rank {len(pivots)} < {m.cols} unknowns")
    return [row[m.cols] for row in aug[:m.cols]]


def null_space(m: Matrix) -> list[list[int]]:
    """Basis of the right null space, one vector per free column."""
    work = [row[:] for row in m.data]
    pivots = _eliminate(work, m.field, m.cols, full=True)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * m.cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = work[i][fc]
        basis.append(vec)
    return basis


# Largest compiled map, in bytes; larger codes and patterns stay on the
# scalar path.  G16's encoder needs 372 x 108 = 40 176 bytes.
MAP_BYTES_LIMIT = 1 << 16


def recall(cache: dict, key, limit: int, build: Callable[[], object]):
    """The entry of ``cache`` under ``key``, built by ``build`` on a miss,
    made the newest.  While ``limit`` entries are held, a miss first
    evicts the least recently used ones.  Entries are never None."""
    value = cache.pop(key, None)
    if value is None:
        value = build()
        while len(cache) >= limit:
            del cache[next(iter(cache))]
    cache[key] = value
    return value


class ByteMap:
    """A GF(2^w)-linear fill of a word's target positions, for w <= 8.

    ``columns[j]`` holds, one byte per symbol, the image of the unit word
    at position j: the symbols of the ``targets`` (ascending) followed
    by check symbols that every consistent word sends to zero.  A target
    has the empty column, so its symbol is ignored.  :meth:`apply`
    multiplies a column with one ``bytes.translate`` through the field's
    product table (see :meth:`GF.mul_tables`) and XORs the columns as
    one big integer: Jerasure's idiom, with no per-symbol field
    arithmetic.
    """

    __slots__ = ("tables", "columns", "targets")

    def __init__(self, field: GF, columns: Sequence[bytes],
                 targets: Sequence[int]):
        self.tables = field.mul_tables()
        self.columns = columns
        self.targets = targets

    def apply(self, word: list[int]) -> None:
        """Fill the targets of ``word`` (symbols in range) in place.

        Raises :class:`NoSolutionError`, leaving ``word`` as it was, when
        a check symbol is nonzero.
        """
        tables, from_bytes = self.tables, int.from_bytes
        acc = 0
        for col, v in zip(self.columns, word):
            if v:
                acc ^= from_bytes(col.translate(tables[v]), "little")
        width = len(self.targets)
        if acc >> 8 * width:
            raise NoSolutionError("inconsistent system")
        for j, v in zip(self.targets, acc.to_bytes(width, "little")):
            word[j] = v


def combine(field: GF, terms: Iterable[tuple[int, Sequence[int]]],
            width: int) -> list[int]:
    """The sum of ``weight * row`` over ``terms``, (weight, row) pairs
    of nonzero weights and rows of ``width`` symbols in range.

    For w <= 8 a row is multiplied with one ``bytes.translate`` through
    the weight's product table and the rows are XORed as one big
    integer, as in :meth:`ByteMap.apply`; wider fields multiply symbol
    by symbol.
    """
    if field.w <= 8:
        tables, from_bytes = field.mul_tables(), int.from_bytes
        acc = 0
        for g, row in terms:
            acc ^= from_bytes(bytes(row).translate(tables[g]), "little")
        return list(acc.to_bytes(width, "little"))
    mul = field.mul
    out = [0] * width
    for g, row in terms:
        out = [a ^ mul(g, v) if v else a for a, v in zip(out, row)]
    return out


def erasure_plan(h: Matrix, erased: Sequence[int]) -> ByteMap | None:
    """The solve of ``h @ word = 0`` for the positions ``erased``
    (ascending, w <= 8) compiled into a :class:`ByteMap` of the word.

    One full elimination of the columns of h, erased ones first, gives
    ``T @ h = [[I, A], [0, B]]``.  So the erased symbols are ``A`` times
    the survivors, and the survivors are consistent with the code
    exactly when ``B`` sends them to zero: the residual rows, kept as
    the map's check symbols, that :func:`solve` tests.  Column j holds
    position j's share, the empty string at an erased position.  None
    when the erased columns are dependent.
    """
    e = len(erased)
    skip = set(erased)
    rest = [c for c in range(h.cols) if c not in skip]
    rows = [[row[c] for c in erased] + [row[c] for c in rest]
            for row in h.data]
    if len(_eliminate(rows, h.field, e, full=True)) < e:
        return None
    columns = [b""] * h.cols
    for i, c in enumerate(rest, e):
        columns[c] = bytes(row[i] for row in rows)
    return ByteMap(h.field, columns, erased)


class PlanSlot:
    """One code's or pattern's uses so far, and its :class:`ByteMap`
    once built.

    A map is worth building only when it will be used often enough to
    repay its compile.  Callers state that compile's cost in uses: k
    for a gpc encoder built from k unit-vector encodes (measured at
    0.5 k scalar encodes for G16), and |E| for an erasure plan, whose
    |E| pivot steps each cost at most the ``mul_vec`` a scalar decode
    pays (measured at 4 scalar decodes for |E| = 17 on
    ``build_h2(15, 17)``).  A gpc row plan is an erasure plan of one
    row's level code, so it costs |cols| uses too (measured at 1.3 to
    2.3 scalar row solves for |cols| = 2, 4 and 8 on G16).  A slot stays
    scalar for ``cost`` uses and compiles on use cost + 1, the
    rent-or-buy rule: a process that uses it at most ``cost`` times
    never pays for a map, and one that compiles has already spent about
    the compile's cost on scalar uses, so it never takes much more than
    twice the scalar time.  The compile is tried that once: fields with
    w > 8, maps above ``MAP_BYTES_LIMIT`` and builds that return None
    stay scalar.  Slots live in caches bounded by :func:`recall`, so a
    slot in use is kept and an evicted one starts again from zero uses.
    """

    __slots__ = ("uses", "map")

    def __init__(self):
        self.uses = 0
        self.map: ByteMap | None = None

    def plan(self, field: GF, cost: int, nbytes: int,
             build: Callable[[], ByteMap | None]) -> ByteMap | None:
        """Count one use of a map of ``nbytes`` bytes that costs ``cost``
        uses to build: the map to apply, built by ``build`` when it
        falls due, or None for the scalar path."""
        if self.map is None:
            self.uses += 1
            if (self.uses == cost + 1 and field.w <= 8
                    and nbytes <= MAP_BYTES_LIMIT):
                self.map = build()
        return self.map


# Plan slots per code, least recently used evicted first: at most 16
# plans of at most 64 KiB each (1 MiB) per LinearCode.
_PLAN_LIMIT = 16


@dataclass
class LinearCode:
    """A linear code given by its parity-check matrix over GF(2^w)."""

    field: GF
    length: int
    check_matrix: Matrix

    def __post_init__(self):
        if self.check_matrix.cols != self.length:
            raise ValueError("check matrix width does not match length")
        self._parity_positions: tuple[int, ...] | None = None
        self._data_positions: tuple[int, ...] | None = None
        self._plans: dict[tuple[int, ...], PlanSlot] = {}

    @property
    def redundancy(self) -> int:
        return len(self.parity_positions())

    @property
    def dimension(self) -> int:
        return self.length - self.redundancy

    def parity_positions(self) -> tuple[int, ...]:
        """Greedy systematic choice: the last positions, scanned right to
        left, whose check columns stay linearly independent."""
        if self._parity_positions is None:
            # The pivot columns of the column-reversed check matrix are
            # exactly that greedy choice, and there are rank-many.
            flipped = Matrix(self.field,
                             [row[::-1] for row in self.check_matrix.data])
            last = self.length - 1
            self._parity_positions = tuple(
                sorted(last - c for c in pivot_columns(flipped)))
        return self._parity_positions

    def data_positions(self) -> tuple[int, ...]:
        if self._data_positions is None:
            parity = set(self.parity_positions())
            self._data_positions = tuple(
                j for j in range(self.length) if j not in parity)
        return self._data_positions

    def fill(self, word: list[int], erased: tuple[int, ...]) -> None:
        """Fill the positions ``erased`` (ascending) of ``word``, whose
        other symbols lie in the field, in place with the codeword that
        agrees with those symbols; the erased symbols are ignored.

        The pattern's :class:`PlanSlot` compiles its :func:`erasure_plan`
        on use |E| + 1.  Until then, and when no plan is built, the
        :func:`solve` runs, with the erased symbols zeroed.  Raises
        :class:`UnderdeterminedError` on dependent erased columns and
        :class:`NoSolutionError` when the survivors contradict the code.
        """
        h = self.check_matrix
        slot = recall(self._plans, erased, _PLAN_LIMIT, PlanSlot)
        plan = slot.plan(self.field, len(erased),
                         (self.length - len(erased)) * h.rows,
                         lambda: erasure_plan(h, erased))
        if plan is not None:
            plan.apply(word)
            return
        for c in erased:
            word[c] = 0
        missing = solve(h.submatrix(cols=erased), h.mul_vec(word))
        for c, v in zip(erased, missing):
            word[c] = v
