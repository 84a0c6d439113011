"""Dense matrices and Gaussian elimination over GF(2^w).

Everything here works at desk scale (hundreds of rows) with exact field
arithmetic.  A :class:`Matrix` holds its rows as plain lists of ints.
Every elimination runs through one in-place kernel, ``_eliminate``,
on working rows built by ``_work_rows``: ``bytes`` for w <= 8, so that
a row is scaled with one ``bytes.translate`` through a product table
(see :meth:`GF.mul_tables`) and cleared by XORing the translated pivot
row as one big integer, and int lists, multiplied entry by entry, for
w > 8.  The kernel pivots on the columns it is given, in that order,
picks unit pivots top to bottom and has two modes:

* below-only, for :func:`row_reduce` and :func:`rank`.  It only ever
  adds multiples of earlier pivot rows to later rows (plus the
  occasional swap), so on a matrix whose leading minors are
  nonsingular :func:`row_reduce` produces exactly the unit upper
  triangular form the array decoders reason about, together with the
  transform that produced it;
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
against one level's row code.  Its :meth:`LinearCode.syndrome` is
compiled once per code, not once per pattern: for w <= 8 the check
matrix's columns as bytes, the check-only plan of no erasures, so
``H @ word`` costs one ``bytes.translate`` per nonzero symbol.  The
scalar fill of a pattern with no plan yet solves from that syndrome,
and both families' membership tests read it.  Wider fields fall back
to :meth:`Matrix.mul_vec`.
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

    def submatrix(self, cols: Sequence[int]) -> "Matrix":
        return Matrix(self.field, [[row[c] for c in cols] for row in self.data])

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


def _work_rows(field: GF, data: Iterable[Sequence[int]]) -> list:
    # Working copies of ``data`` for _eliminate: bytes for w <= 8, so
    # that row updates run through the product tables; int lists
    # otherwise.
    form = bytes if field.w <= 8 else list
    return [form(row) for row in data]


def _eliminate(rows: list, field: GF, cols: Iterable[int],
               full: bool) -> list[int]:
    # The one elimination loop: in place, pivoting on the columns ``cols``
    # in the order given.  Each pivot is the first row, top to bottom,
    # among those not yet pivots, with a nonzero entry in its column; it
    # is swapped up, scaled to 1 and used to clear the rows below it, or
    # every other row when ``full``.  Returns the pivot columns, in order.
    # Rows held as bytes (w <= 8, see _work_rows) are scaled with one
    # ``bytes.translate`` through a product table and cleared by XORing
    # the translated pivot row as one int; int lists, any w, multiply
    # entry by entry.  Either form gives the same pivots and rows.  Rows
    # are replaced in the list, never changed in place, so a shallow copy
    # of a list of working rows is a working copy.
    mul, from_bytes = field.mul, int.from_bytes
    nrows = len(rows)
    tables = field.mul_tables() if rows and type(rows[0]) is bytes else None
    pivots: list[int] = []
    for col in cols:
        p = len(pivots)
        if p == nrows:
            break
        for sel in range(p, nrows):
            if rows[sel][col]:
                break
        else:
            continue
        rows[sel], rows[p] = rows[p], rows[sel]
        prow = rows[p]
        inv = field.inv(prow[col])
        if inv != 1:
            prow = rows[p] = (prow.translate(tables[inv]) if tables
                              else [mul(inv, v) for v in prow])
        size = len(prow)
        for i in range(0 if full else p + 1, nrows):
            row = rows[i]
            factor = row[col]
            if factor and i != p:
                if tables:
                    rows[i] = (from_bytes(row, "little") ^ from_bytes(
                        prow.translate(tables[factor]), "little")
                    ).to_bytes(size, "little")
                else:
                    rows[i] = [v ^ mul(factor, q) for v, q in zip(row, prow)]
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
    aug = _work_rows(m.field, (row + [int(i == j) for j in range(m.rows)]
                               for i, row in enumerate(m.data)))
    _eliminate(aug, m.field, range(c), full=False)
    return (Matrix(m.field, [row[:c] for row in aug]),
            Matrix(m.field, [row[c:] for row in aug]))


def rank(m: Matrix) -> int:
    return len(_eliminate(_work_rows(m.field, m.data), m.field,
                          range(m.cols), full=False))


def solve(m: Matrix, rhs: Sequence[int]) -> list[int]:
    """Unique solution of m @ x = rhs.

    Raises :class:`NoSolutionError` if the system is inconsistent and
    :class:`UnderdeterminedError` if the solution is not unique.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = _work_rows(m.field, (row + [b] for row, b in zip(m.data, rhs)))
    pivots = _eliminate(aug, m.field, range(m.cols + 1), full=True)
    if m.cols in pivots:
        raise NoSolutionError("inconsistent system")
    if len(pivots) < m.cols:
        raise UnderdeterminedError(
            f"rank {len(pivots)} < {m.cols} unknowns")
    return [row[m.cols] for row in aug[:m.cols]]


def null_space(m: Matrix) -> list[list[int]]:
    """Basis of the right null space, one vector per free column."""
    work = _work_rows(m.field, m.data)
    pivots = _eliminate(work, m.field, range(m.cols), full=True)
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

    The map is given by its ``rows``, as ``bytes``: one per target of
    ``targets`` (ascending), then one per check symbol that every
    consistent word sends to zero, each over every position of the word
    in order.  ``columns[j]`` holds, one byte per row, the image of the
    unit word at position j, cut from the joined rows as one strided
    slice; a target has the empty column, whatever its rows hold there,
    so its symbol is ignored.  :meth:`apply` multiplies a column with
    one ``bytes.translate`` through the field's product table (see
    :meth:`GF.mul_tables`) and XORs the columns as one big integer:
    Jerasure's idiom, with no per-symbol field arithmetic.  It fills
    blocks of L words at once as well.
    """

    __slots__ = ("tables", "columns", "targets", "height")

    def __init__(self, field: GF, rows: Sequence[bytes],
                 targets: Sequence[int]):
        self.tables = field.mul_tables()
        self.targets = targets
        self.height = len(rows)
        size = len(rows[0]) if rows else 0
        joined = b"".join(rows)
        skip = set(targets)
        self.columns = [b"" if j in skip else joined[j::size]
                        for j in range(size)]

    def apply(self, word: list[int], block: int = 1) -> None:
        """Fill the targets of ``word`` (symbols in range) in place.

        With ``block`` L > 1 each position holds a block: an int of L
        little-endian bytes, byte i the symbol of the i-th of L words.
        Each nonzero (source, target) coefficient then multiplies the
        source block with one ``bytes.translate``.  Raises
        :class:`NoSolutionError`, leaving ``word`` as it was, when a
        check symbol (of any of the L words) is nonzero.
        """
        width = len(self.targets)
        if block > 1:
            tables, from_bytes = self.tables, int.from_bytes
            acc = [0] * self.height
            for col, v in zip(self.columns, word):
                if v:
                    src = v.to_bytes(block, "little")
                    for i, g in enumerate(col):
                        if g:
                            acc[i] ^= from_bytes(src.translate(tables[g]),
                                                 "little")
            if any(acc[width:]):
                raise NoSolutionError("inconsistent system")
            for j, v in zip(self.targets, acc):
                word[j] = v
            return
        acc = self.image(word)
        if acc >> 8 * width:
            raise NoSolutionError("inconsistent system")
        for j, v in zip(self.targets, acc.to_bytes(width, "little")):
            word[j] = v

    def image(self, word: Sequence[int]) -> int:
        """The map of ``word`` (symbols in range) as one int: byte i is
        the i-th target symbol, then the check symbols, in order."""
        tables, from_bytes = self.tables, int.from_bytes
        acc = 0
        for col, v in zip(self.columns, word):
            if v:
                acc ^= from_bytes(col.translate(tables[v]), "little")
        return acc


def _raw(block: int) -> Callable[[Iterable[int]], bytes]:
    # The bytes of a row of blocks of ``block`` bytes each, little-endian
    # and end to end.
    if block == 1:
        return bytes
    return lambda row: b"".join(v.to_bytes(block, "little") for v in row)


def pack_blocks(words: Sequence[Sequence[int]], block: int = 1) -> list[int]:
    """g words of equal length, whose positions hold blocks of ``block``
    bytes, as one word of (g * block)-byte blocks: word i's block sits
    at byte offset i * block of each position."""
    from_bytes, raw = int.from_bytes, _raw(block)
    return [from_bytes(raw(col), "little") for col in zip(*words)]


def unpack_block(value: int, count: int, block: int = 1) -> list[int]:
    """The ``count`` blocks of ``block`` bytes in one position packed by
    :func:`pack_blocks`, first word first."""
    raw = value.to_bytes(count * block, "little")
    if block == 1:
        return list(raw)
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + block], "little")
            for i in range(0, count * block, block)]


def combine(field: GF, terms: Iterable[tuple[int, Sequence[int]]],
            width: int, block: int = 1) -> list[int]:
    """The sum of ``weight * row`` over ``terms``, (weight, row) pairs
    of nonzero weights and rows of ``width`` symbols in range, or of
    ``width`` blocks of ``block`` bytes (see :meth:`ByteMap.apply`).

    For w <= 8 a row is multiplied with one ``bytes.translate`` over its
    width * block bytes through the weight's product table and the rows
    are XORed as one big integer, as in :meth:`ByteMap.apply`; wider
    fields multiply symbol by symbol and take no blocks.
    """
    if field.w <= 8:
        tables, from_bytes = field.mul_tables(), int.from_bytes
        raw = _raw(block)
        acc = 0
        for g, row in terms:
            acc ^= from_bytes(raw(row).translate(tables[g]), "little")
        return unpack_block(acc, width, block)
    if block > 1:
        raise ValueError("blocks need a field with w <= 8")
    mul = field.mul
    out = [0] * width
    for g, row in terms:
        out = [a ^ mul(g, v) if v else a for a, v in zip(out, row)]
    return out


def erasure_plan(h: Matrix, erased: Sequence[int]) -> ByteMap | None:
    """The solve of ``h @ word = 0`` for the positions ``erased``
    (ascending, w <= 8) compiled into a :class:`ByteMap` of the word.

    One full elimination of a copy of h, pivoting on the erased columns
    in order, gives ``T @ h``, whose first |E| rows are the unit vectors
    on the erased columns plus ``A`` on the survivors, and whose other
    rows vanish on the erased columns and are ``B`` on the survivors.
    So the erased symbols are ``A`` times the survivors, and the
    survivors are consistent with the code exactly when ``B`` sends them
    to zero: the residual rows, kept as the map's check symbols, that
    :func:`solve` tests.  None when the erased columns are dependent.
    """
    return LinearCode(h.field, h.cols, h)._compile(erased)


class PlanSlot:
    """One code's or pattern's uses so far, and its :class:`ByteMap`
    once built.

    A map is worth building only when it will be used often enough to
    repay its compile.  Callers state that compile's cost in uses:
    2 + K // 32 for a gpc encoder, built in one row pass that carries its
    K unit data vectors in blocks (measured at 14 scalar encodes for
    G16, K = 372; see ``gpc.encoder_cost``), and ``_PLAN_COST`` = 1 for
    an erasure plan, one elimination of the code's check rows held as
    bytes (measured with timeit at 0.56, 0.69 and 0.91 scalar decodes for
    |E| = 3, 7 and 17 on ``build_h2(15, 17)``, and a gpc row plan, an
    erasure plan of one row's level code, at 0.57 to 0.85 scalar row
    solves for |cols| = 2, 4 and 8 on G16).  A fill of a block of L words
    counts L uses.  A slot stays scalar for ``cost`` uses and compiles on
    the use that passes it, the rent-or-buy rule: a process that uses it
    at most ``cost`` times never pays for a map, and one that compiles
    has already spent at least the compile's cost on scalar uses, so it
    never takes much more than twice the scalar time.  The compile is
    tried that once: fields with w > 8, maps above ``MAP_BYTES_LIMIT``
    and builds that return None stay scalar.  Slots live in caches
    bounded by :func:`recall`, so a slot in use is kept and an evicted
    one starts again from zero uses.
    """

    __slots__ = ("uses", "map")

    def __init__(self):
        self.uses = 0
        self.map: ByteMap | None = None

    def plan(self, field: GF, cost: int, nbytes: int,
             build: Callable[[], ByteMap | None],
             uses: int = 1) -> ByteMap | None:
        """Count ``uses`` uses of a map of ``nbytes`` bytes that costs
        ``cost`` uses to build: the map to apply, built by ``build``
        when it falls due, or None for the scalar path."""
        if self.map is None:
            before = self.uses
            self.uses += uses
            if (before <= cost < self.uses and field.w <= 8
                    and nbytes <= MAP_BYTES_LIMIT):
                self.map = build()
        return self.map


# Plan memory per code, in bytes: a LinearCode keeps at most
# _PLAN_BUDGET // (length * (rows + 48)) plan slots, and at least one,
# least recently used evicted first.  By tracemalloc a plan takes 1.2 to
# 1.3 KB on G16's level codes (so level 0 keeps 699 slots) and 18.2 to
# 19.1 KB on build_h2(15, 17) (50 slots).
_PLAN_BUDGET = 1 << 20

# Uses that an erasure plan's compile costs (see PlanSlot).
_PLAN_COST = 1


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
        self._checks: ByteMap | None = None
        # The check rows as working rows, built once: every plan compile
        # and the parity choice eliminate a shallow copy.
        self._rows = _work_rows(self.field, self.check_matrix.data)
        # A plan's footprint, bounded above: per position, a column of
        # one byte per check row and about 48 bytes of object overhead.
        self._plan_bytes = self.length * (self.check_matrix.rows + 48)

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
            # Pivoting right to left makes exactly that greedy choice,
            # rank-many columns.
            self._parity_positions = tuple(sorted(_eliminate(
                list(self._rows), self.field, range(self.length - 1, -1, -1),
                full=False)))
        return self._parity_positions

    def data_positions(self) -> tuple[int, ...]:
        if self._data_positions is None:
            parity = set(self.parity_positions())
            self._data_positions = tuple(
                j for j in range(self.length) if j not in parity)
        return self._data_positions

    def syndrome(self, word: Sequence[int]) -> list[int]:
        """``check_matrix.mul_vec(word)`` for a word of symbols in range.

        For w <= 8 it runs the code's check-only plan, compiled on first
        use: the check matrix's columns as bytes, one byte per check row
        (:func:`erasure_plan` of no erasures), each multiplied with one
        ``bytes.translate`` and XORed as one big integer.  Wider fields
        run :meth:`Matrix.mul_vec`.
        """
        h = self.check_matrix
        if len(word) != self.length:
            raise ValueError("vector length mismatch")
        if self.field.w > 8:
            return h.mul_vec(word)
        return list(self._check_map().image(word).to_bytes(h.rows, "little"))

    def _check_map(self) -> ByteMap:
        # The check-only plan, built once per code: its syndrome, and the
        # fill of a word with no erasures.
        if self._checks is None:
            self._checks = self._compile(())
        return self._checks

    def _compile(self, erased: Sequence[int]) -> ByteMap | None:
        # erasure_plan(check_matrix, erased), eliminating a copy of the
        # code's own rows.
        rows = list(self._rows)
        if len(_eliminate(rows, self.field, erased, full=True)) < len(erased):
            return None
        return ByteMap(self.field, rows, erased)

    def fill(self, word: list[int], erased: tuple[int, ...],
             block: int = 1) -> None:
        """Fill the positions ``erased`` (ascending) of ``word``, whose
        other symbols lie in the field, in place with the codeword that
        agrees with those symbols; the erased symbols are ignored.  With
        ``block`` L > 1 (w <= 8 only) each position holds a block of L
        words, as in :meth:`ByteMap.apply`, and every word is filled.

        The pattern's :class:`PlanSlot` compiles its :func:`erasure_plan`,
        from the check rows the code keeps as bytes, on its second use, a
        block counting L.  The code keeps as many slots as plans fit in
        ``_PLAN_BUDGET`` (1 MiB), least recently used dropped first.
        Until the compile, and when no plan is built, the :func:`solve`
        runs, word by word, on the :meth:`syndrome` of the word with its
        erased symbols zeroed: for w <= 8 one product-table pass over the
        check matrix's byte columns, compiled once per code, and for
        w > 8 :meth:`Matrix.mul_vec`.  The plan of no erasures is that
        syndrome's map itself, applied from the first use.  Raises
        :class:`UnderdeterminedError` on dependent erased columns and
        :class:`NoSolutionError` when the survivors contradict the code,
        leaving ``word`` as it was.
        """
        # The plan of no erasures is the syndrome's map: it costs nothing.
        slot = recall(self._plans, erased,
                      max(1, _PLAN_BUDGET // self._plan_bytes), PlanSlot)
        plan = slot.plan(self.field, min(len(erased), _PLAN_COST),
                         (self.length - len(erased)) * self.check_matrix.rows,
                         (lambda: self._compile(erased)) if erased
                         else self._check_map, block)
        if plan is not None:
            plan.apply(word, block)
            return
        if block > 1:
            if self.field.w > 8:
                raise ValueError("blocks need a field with w <= 8")
            words = zip(*(unpack_block(v, block) for v in word))
            missing = [self._solve(w, erased) for w in words]
            for c, v in zip(erased, pack_blocks(missing)):
                word[c] = v
            return
        for c, v in zip(erased, self._solve(word, erased)):
            word[c] = v

    def _solve(self, word: Sequence[int],
               erased: tuple[int, ...]) -> list[int]:
        # The symbols at ``erased`` of the codeword agreeing with word's
        # other symbols, by one solve.
        h = self.check_matrix
        known = list(word)
        for c in erased:
            known[c] = 0
        return solve(h.submatrix(cols=erased), self.syndrome(known))
