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

:class:`ByteMap` is the compiled map of a :class:`LinearCode`, for
fields with w <= 8: a fill of a word's target positions from its other
symbols, applied with ``bytes.translate``, whose check symbols must
vanish.  It is :func:`solve`'s erasure system for a fixed pattern,
checks included, so it serves both encode and decode: ``lc_encode``
fills the parity positions.  :class:`SplitMap` is gpc's encoder map,
its columns as split product tables: two lookups per symbol at about
40 times the memory.  :func:`combine` sums weighted rows with the same
product tables, and holds the symbol-wise loop for w > 8.
:class:`PlanSlot` holds the one rule for when a map is compiled, and
``MAP_BYTES_LIMIT`` the one bound on the bytes a compiled map holds;
:func:`recall` is the get-or-build rule of every bounded cache,
evicting the least recently used entry.

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
from typing import Any, Callable, Iterable, Sequence

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
        cols = [self.mul_vec(col) for col in zip(*other.data)]
        return Matrix(self.field, zip(*cols) if cols else [[]] * self.rows)


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


# Most bytes one compiled map may hold; larger codes and patterns stay on
# the scalar path.  A slot is charged its entries x (bytes per entry +
# 64), the 64 for each entry's Python object: a plan N x (R + 64) (see
# LinearCode._plan_bytes), a gpc encoder 32 x K x (P + 64) for the 32
# entries per data symbol of its SplitMap, which take P + 34 to 37 bytes
# each by tracemalloc.  G16's encoder is charged 2 047 488 bytes and holds
# 1.71 MB; a 16 x 255 code over GF(2^8) (K = 4064, P = 16) is charged
# 10.4 MB and stays scalar.  So gpc's 16 views hold at most 32 MiB of
# encoder tables.
MAP_BYTES_LIMIT = 1 << 21


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
    """A GF(2^w)-linear fill of a word's target positions, for w <= 8:
    every compiled map of a :class:`LinearCode`.

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


class SplitMap:
    """A GF(2^w)-linear map of symbols to one int as split product
    tables, for w <= 8: the 4-bit split of Plank, Greenan and Miller
    ("Screaming fast Galois field arithmetic using Intel SIMD
    instructions", FAST 2013).

    Source j is given by its column, ``bytes`` with one byte per output
    symbol, as in :class:`ByteMap`.  The tuple ``lo[j]`` holds t times
    the column and ``hi[j]`` holds 16t times it, each product as one
    int, for every t below 16 whose multiple lies in the field.
    :meth:`image` then maps a symbol v with two lookups,
    ``lo[j][v & 15] ^ hi[j][v >> 4]``, and no ``bytes.translate`` or
    ``int.from_bytes``.  Each entry is one translate of the column,
    through the product tables of 0 to 15 for ``lo`` and of 0, 16, ..,
    240 for ``hi``.  Tuples keep their items inline: one pointer fewer
    per lookup than lists.  The tables hold up to 32 ints per column,
    about 40 times the column's bytes on G16's encoder, and a slot is
    charged 32 * (P + 64) bytes per column for them (see
    ``MAP_BYTES_LIMIT``), so only gpc's encoder, a long map applied once
    per array, holds them; plans keep ByteMaps.
    """

    __slots__ = ("lo", "hi", "height")

    def __init__(self, field: GF, columns: Sequence[bytes]):
        tables, from_bytes = field.mul_tables(), int.from_bytes
        low, high = tables[:16], tables[::16]
        self.height = len(columns[0]) if columns else 0
        self.lo: list[tuple[int, ...]] = []
        self.hi: list[tuple[int, ...]] = []
        for col in columns:
            self.lo.append(tuple([from_bytes(col.translate(t), "little")
                                  for t in low]))
            self.hi.append(tuple([from_bytes(col.translate(t), "little")
                                  for t in high]))

    def image(self, symbols: Iterable[int]) -> int:
        """The map of ``symbols`` (in range, one per column) as one int:
        byte i is output symbol i.  A negative symbol reads a wrong
        entry silently, so callers check symbols first."""
        acc = 0
        for lo, hi, v in zip(self.lo, self.hi, symbols):
            acc ^= lo[v & 15] ^ hi[v >> 4]
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


class PlanSlot:
    """One code's or pattern's uses so far, and its compiled map once
    built: a :class:`ByteMap`, or for a gpc encoder its
    :class:`SplitMap` tables and row orders.

    The one compile rule of every compiled map (a gpc encoder, and each
    erasure plan of a :class:`LinearCode`, the pattern of no erasures
    included): the first use runs scalar, and the use that takes the
    count past one compiles the map and applies it.  A fill of a block
    of L words counts L uses, so a block of two or more compiles at
    once.  An erasure plan, one elimination of the code's check rows
    held as bytes, compiles in less time than one scalar use (by timeit
    on a 2-core Xeon, 0.56 to 0.91 scalar decodes on
    ``build_h2(15, 17)`` and 0.57 to 0.85 scalar row solves on G16's
    level codes), so a process that repeats a fill never takes much
    more than twice its scalar time.  G16's encoder, one row pass over
    blocks of its K = 372 unit data vectors whose data columns are cut
    straight into split tables, compiles in about 17.5 ms, 7 ms of them
    for the tables, against about 0.6 ms per scalar encode and 0.1 ms
    per compiled one (timed together on a shared 2-core Xeon): the
    rule's one cost is a process that encodes one gpc code only a few
    times, twice at worst.  The compile is tried that once: fields with
    w > 8, maps charged more held bytes than ``MAP_BYTES_LIMIT`` and
    builds that return None stay scalar.  Slots live in caches bounded
    by :func:`recall`, so a slot in use is kept and an evicted one
    starts again from zero uses.
    """

    __slots__ = ("uses", "map")

    def __init__(self):
        self.uses = 0
        self.map: Any = None

    def plan(self, field: GF, nbytes: int, build: Callable[[], Any],
             uses: int = 1) -> Any:
        """Count ``uses`` uses of a map charged ``nbytes`` held bytes:
        the map to apply, built by ``build`` when it falls due, or None
        for the scalar path."""
        if self.map is None:
            before = self.uses
            self.uses += uses
            if (before <= 1 < self.uses and field.w <= 8
                    and nbytes <= MAP_BYTES_LIMIT):
                self.map = build()
        return self.map


# Plan memory per code, in bytes: a LinearCode keeps at most
# _PLAN_BUDGET // (length * (rows + 64)) plan slots, and at least one,
# least recently used evicted first.  By tracemalloc a plan takes 1.2 to
# 1.5 KB on G16's level codes (so level 0 keeps 529 slots, level 1 514)
# and 18.2 to 19.1 KB on build_h2(15, 17) (41 slots).  A plan compiles
# only when that bound is within MAP_BYTES_LIMIT, so a code holds at most
# max(1 MiB, one plan) of plans.
_PLAN_BUDGET = 1 << 20


@dataclass
class LinearCode:
    """A linear code given by its parity-check matrix over GF(2^w); its
    ``field`` and ``length`` are the matrix's field and width."""

    check_matrix: Matrix

    def __post_init__(self):
        self.field = self.check_matrix.field
        self.length = self.check_matrix.cols
        self._parity_positions: tuple[int, ...] | None = None
        self._data_positions: tuple[int, ...] | None = None
        self._plans: dict[tuple[int, ...], PlanSlot] = {}
        self._checks: ByteMap | None = None
        # The check rows as working rows, built once: every plan compile
        # and the parity choice eliminate a shallow copy.
        self._rows = _work_rows(self.field, self.check_matrix.data)
        # A plan's footprint, bounded above: per position, a column of
        # one byte per check row and at most 64 bytes of object overhead
        # (by tracemalloc, held plans fill 73% of this bound on G16's
        # level 1 and 76% on build_h2(15, 17)).  It is both the plan's
        # charge against MAP_BYTES_LIMIT and its share of _PLAN_BUDGET.
        self._plan_bytes = self.length * (self.check_matrix.rows + 64)

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
        (the plan of no erasures), each multiplied with one
        ``bytes.translate`` and XORed as one big integer.  Wider fields
        run :meth:`Matrix.mul_vec`.
        """
        h = self.check_matrix
        if len(word) != self.length:
            raise ValueError("vector length mismatch")
        if self.field.w > 8:
            return h.mul_vec(word)
        checks = self._checks
        if checks is None:
            checks = self._compile(())
        return list(checks.image(word).to_bytes(h.rows, "little"))

    def _compile(self, erased: Sequence[int]) -> ByteMap | None:
        # The solve of ``check_matrix @ word = 0`` for the positions
        # ``erased`` (ascending, w <= 8) as a ByteMap of the word.  One
        # full elimination of a copy of the code's rows, pivoting on the
        # erased columns in order, gives T @ h, whose first |E| rows are
        # the unit vectors on the erased columns plus A on the survivors,
        # and whose other rows vanish on the erased columns and are B on
        # the survivors.  So the erased symbols are A times the
        # survivors, and the survivors are consistent with the code
        # exactly when B sends them to zero: the residual rows, kept as
        # the map's check symbols, that solve tests.  None when the
        # erased columns are dependent.  The plan of no erasures is the
        # check rows themselves, built once and shared with syndrome.
        if not erased:
            if self._checks is None:
                self._checks = ByteMap(self.field, self._rows, ())
            return self._checks
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

        Each pattern, no erasures included, has a :class:`PlanSlot`,
        whose rule decides when the pattern's plan is compiled from the
        check rows the code keeps as bytes.  The code keeps as many
        slots as plans fit in ``_PLAN_BUDGET`` (1 MiB), least recently
        used dropped first.  Until the compile, and when no plan is
        built, the :func:`solve` runs, word by word, on the
        :meth:`syndrome` of the word with its erased symbols zeroed.
        Raises :class:`UnderdeterminedError` on dependent erased columns
        and :class:`NoSolutionError` when the survivors contradict the
        code, leaving ``word`` as it was.
        """
        slot = recall(self._plans, erased,
                      max(1, _PLAN_BUDGET // self._plan_bytes), PlanSlot)
        plan = slot.plan(self.field, self._plan_bytes,
                         lambda: self._compile(erased), block)
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
