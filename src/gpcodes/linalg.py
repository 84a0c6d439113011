"""Dense matrices and Gaussian elimination over GF(2^w).

Everything here works at desk scale (hundreds of rows) with exact field
arithmetic.  A :class:`Matrix` holds its rows as plain lists of ints.
Every elimination runs through one in-place kernel, ``_eliminate``,
on working rows built by ``_work_rows``: ``bytes`` for w <= 8, so that
a row is scaled with one ``bytes.translate`` through a product table
(see :attr:`GF.mul_tables`) and cleared by XORing the translated pivot
row as one big integer, and int lists for w > 8, cleared entry by
entry through the field's exp/log tables up to w = 16 and with
``GF.mul`` past them.  The kernel pivots on the columns it is given,
in that order, picks unit pivots top to bottom and has two modes:

* below-only, for :func:`row_reduce` and :func:`rank`.  It only ever
  adds multiples of earlier pivot rows to later rows (plus the
  occasional swap), so on a matrix whose leading minors are
  nonsingular :func:`row_reduce` produces exactly the unit upper
  triangular form the array decoders reason about, each of its rows a
  combination of that row and the rows above it in the input;
* fully reduced (above and below), for :func:`solve` and
  :func:`null_space`.

:class:`ByteMap` is a linear map of symbols applied with
``bytes.translate``, for fields with w <= 8, one-word or blocks of
words at once.  A :class:`LinearCode` keeps two kinds: its syndrome map,
and its erasure plans, each of which maps the syndrome, R check
symbols, to the erased symbols and the residual checks that must
vanish.  A plan is :func:`solve`'s erasure system for a fixed pattern,
checks included, compiled from R x (|E| + R) rows, so it serves both
encode and decode: ``lc_encode`` fills the parity positions.
:class:`SplitMap` is gpc's encoder map, its columns as split product
tables: two lookups per symbol at about 40 times the memory.
:func:`combine` sums weighted rows with the same product tables, each
row in the form :func:`row_form` takes, and holds the symbol-wise loop
for w > 8.  :class:`Fold` sums the m rows of a word held as one big
integer, row r weighted by b^r, in ceil(log2 m) halvings of at most one
translate each: the flat codes' grid syndrome, gpc's membership
combinations and the level-0 batch syndromes of gpc's row pass take
it.  :func:`solve_vandermonde` is the closed-form solve
of gpc's row codes, on exp/log lookups for one symbol.  :func:`scaler`
is the one multiply of a field element by a symbol (``GF.mul``) or by a
block of L byte symbols (one ``bytes.translate``), the form that solve
takes for blocks.  A block holds one byte per symbol, so only fields
with product tables (w <= 8) take blocks: :func:`scaler`,
:func:`combine`, :func:`solve_vandermonde`, a :class:`Fold` call,
:meth:`LinearCode.syndrome` and :meth:`LinearCode.solve_syndrome` refuse
the others through one check, ``_check_blocks``, before any work, and a
call of one symbol never runs it.  :class:`PlanSlot` holds the one rule
for when a map is compiled, and ``MAP_BYTES_LIMIT`` the one bound on the
bytes a compiled map holds; :func:`recall` is the get-or-build rule of
every bounded cache, evicting the least recently used entry, and
:func:`admit` puts a probation segment before it for a cache whose keys
are mostly seen once, gpc's plans.

:class:`LinearCode` is a code given by its check matrix.  Both families
repair erasures with its one step :meth:`LinearCode.solve_syndrome`,
which solves for the erased symbols from the R check symbols of the
word's :meth:`LinearCode.syndrome`: ``epc``'s h2 and h3 codes a whole
word at a time, once their row and column sums have peeled what they
can, ``gpc`` array rows against one level's row code.  gpc's row codes
are Reed-Solomon codes that override the step with a closed form and
keep no plans, so erasure plans serve ``epc``'s codes and any code
built from a check matrix alone.
:meth:`LinearCode.fill` computes the syndrome and takes that step, as
gpc's peel pivots do for a row plus the :func:`combine` of its known
rows; the flat codes' stopping set, holding the syndrome its peel
tracked, takes the step alone.  :meth:`LinearCode.fill_rows`, the one
owner of how
rows share a syndrome as blocks (see :func:`pack_blocks`), fills a
batch of rows grouped by their erased positions from one
:meth:`LinearCode.batch_syndrome`, a :class:`Fold` call for a code of
power rows: gpc's row pass and membership test take level 0's checks
through it.  The syndrome map
is built with the code, not once per pattern: for w <= 8 the check
matrix's columns as bytes, so ``H @ word`` costs one ``bytes.translate``
per nonzero symbol; the flat codes compute theirs in grid form.  A plan
reads the R check symbols, and a pattern with no plan yet solves from
them; a pattern of no erasures tests that they vanish and has no plan.
Wider fields fall back to :meth:`Matrix.mul_vec`.
"""

from __future__ import annotations

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
    def _fresh(cls, field: GF, data: list[list[int]]) -> "Matrix":
        # A matrix that takes new int-list rows of one length as they
        # are, without __init__'s copy and ragged-row check.
        out = cls.__new__(cls)
        out.field, out.data = field, data
        out.rows = len(data)
        out.cols = len(data[0]) if data else 0
        return out

    @classmethod
    def identity(cls, field: GF, n: int) -> "Matrix":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.data == other.data

    def __repr__(self) -> str:
        body = "\n".join(" ".join(f"{v:>3x}" for v in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})\n{body}"

    def submatrix(self, cols: Sequence[int]) -> "Matrix":
        return Matrix._fresh(self.field,
                             [[row[c] for c in cols] for row in self.data])

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


def vstack(blocks: Sequence[Matrix]) -> Matrix:
    field = blocks[0].field
    cols = blocks[0].cols
    if any(b.cols != cols or b.field != field for b in blocks):
        raise ValueError("blocks must share field and width")
    return Matrix._fresh(field, [row[:] for b in blocks for row in b.data])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row-major flattening on both axes."""
    if a.field != b.field:
        raise ValueError("fields differ")
    f = a.field
    data = []
    for ar in a.data:
        for br in b.data:
            data.append([f.mul(x, y) if x and y else 0 for x in ar for y in br])
    return Matrix._fresh(f, data)


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
    return Matrix._fresh(field, data[:num_rows])


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
    # the translated pivot row as one int; int lists, any w, are cleared
    # entry by entry, through the field's exp/log tables inline when it
    # has them (w <= 16) and with ``GF.mul`` past them.  Either form
    # gives the same pivots and rows.  Rows are replaced in the list,
    # never changed in place, so a shallow copy of a list of working rows
    # is a working copy.
    mul, from_bytes = field.mul, int.from_bytes
    exp, log = field._exp, field._log
    nrows = len(rows)
    tables = field.mul_tables if rows and type(rows[0]) is bytes else None
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
                elif log:
                    lf = log[factor]
                    rows[i] = [v ^ exp[lf + log[q]] if q else v
                               for v, q in zip(row, prow)]
                else:
                    rows[i] = [v ^ mul(factor, q) for v, q in zip(row, prow)]
        pivots.append(col)
    return pivots


def row_reduce(m: Matrix) -> Matrix:
    """Forward elimination to row echelon form with unit pivots.

    Pivots are chosen as the first row (top to bottom) with a nonzero
    entry in the current column; each pivot row is scaled to make the
    pivot 1 and then cleared *below* only, so rows keep their triangular
    structure: with no swaps, echelon row p is a combination of rows
    0..p of ``m``.
    """
    work = _work_rows(m.field, m.data)
    _eliminate(work, m.field, range(m.cols), full=False)
    return Matrix._fresh(m.field, [list(row) for row in work])


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
# 64), the 64 for each entry's Python object: a plan R x (R + 64) plus
# 256 bytes for its objects (see LinearCode._plan_bytes), a gpc encoder
# 32 x K x (P + 64) for the 32 entries per data symbol of
# its SplitMap.  So gpc's 16 views hold at most 32 MiB of encoder
# tables.
MAP_BYTES_LIMIT = 1 << 21


def recall(cache: dict, key, limit: int, build: Callable[[], object]):
    """The entry of ``cache`` under ``key``, built by ``build`` on a miss,
    made the newest.  While ``limit`` entries are held, a miss first
    evicts the least recently used ones.  Entries are never None."""
    value = cache.pop(key, None)
    if value is None:
        value = build()
        _make_room(cache, limit)
    cache[key] = value
    return value


def _make_room(cache: dict, limit: int) -> None:
    # Drop the first entries of ``cache``, its oldest or least recently
    # used, until one more fits within ``limit``.
    while len(cache) >= limit:
        del cache[next(iter(cache))]


# Entries a probation segment holds (see admit).
PROBATION_LIMIT = 4


def admit(cache: dict, probation: dict, key, limit: int,
          build: Callable[[], object]):
    """:func:`recall` for a cache whose keys are mostly seen once, gpc's
    plans, by the probation rule of 2Q (Johnson and Shasha, VLDB 1994).
    A key first seen is built and held in ``probation``, at most
    ``PROBATION_LIMIT`` entries, the oldest dropped first; seen there
    again, that same entry moves into ``cache``, a :func:`recall` LRU of
    at most ``limit``.  So a key seen once never reaches ``cache``,
    whose entries then live long only when they are read again, and a
    key that repeats is built once.  A call hashes ``key`` at most three
    times, one more than :func:`recall`, since a tuple key does not keep
    its hash."""
    value = cache.pop(key, None)
    if value is None:
        value = probation.pop(key, None)
        if value is None:
            value = build()
            _make_room(probation, PROBATION_LIMIT)
            probation[key] = value
            return value
        _make_room(cache, limit)
    cache[key] = value
    return value


class ByteMap:
    """A GF(2^w)-linear map of a word to ``height`` symbols, for w <= 8:
    a code's syndrome map, and every erasure plan of a
    :class:`LinearCode`.

    The map is given by its ``rows``, as ``bytes``, each over every
    position of the word in order.  ``columns[j]`` holds, one byte per
    row, the image of the unit word at position j, cut from the joined
    rows as one strided slice.  :meth:`image` multiplies a column with
    one ``bytes.translate`` through the field's product table (see
    :attr:`GF.mul_tables`) and XORs the columns as one big integer:
    Jerasure's idiom, with no per-symbol field arithmetic.  It maps
    blocks of L words at once as well.
    """

    __slots__ = ("tables", "columns", "height")

    def __init__(self, field: GF, rows: Sequence[bytes]):
        self.tables = field.mul_tables
        self.height = len(rows)
        size = len(rows[0]) if rows else 0
        joined = b"".join(rows)
        self.columns = [joined[j::size] for j in range(size)]

    def image(self, word: Sequence[int], block: int = 1) -> list[int]:
        """The map of ``word`` (symbols in range), one symbol per row.

        With ``block`` L > 1 each position holds a block: an int of L
        little-endian bytes, byte i the symbol of the i-th of L words
        (see :func:`pack_blocks`), and so does each output.  Each
        (position, row) coefficient past 1 then multiplies the
        position's block with one ``bytes.translate``, and a coefficient
        1, as in a Vandermonde row code's first row and column, adds the
        block as it is.
        """
        tables, from_bytes = self.tables, int.from_bytes
        if block == 1:
            acc = 0
            for col, v in zip(self.columns, word):
                if v:
                    acc ^= from_bytes(col.translate(tables[v]), "little")
            return list(acc.to_bytes(self.height, "little"))
        out = [0] * self.height
        for col, v in zip(self.columns, word):
            if v:
                src = v.to_bytes(block, "little")
                for i, g in enumerate(col):
                    if g == 1:
                        out[i] ^= v
                    elif g:
                        out[i] ^= from_bytes(src.translate(tables[g]),
                                             "little")
        return out


class SplitMap:
    """A GF(2^w)-linear map of symbols to ``height`` symbols as split
    product tables, for w <= 8: the 4-bit split of Plank, Greenan and Miller
    ("Screaming fast Galois field arithmetic using Intel SIMD
    instructions", FAST 2013).

    Source j is given by its column, ``bytes`` with one byte per output
    symbol, as in :class:`ByteMap`.  The tuple ``lo[j]`` holds t times
    the column and ``hi[j]`` holds 16t times it, each product as one
    int, for every t below 16 whose multiple lies in the field.
    :meth:`image` then maps a symbol v with two lookups,
    ``lo[j][v & 15] ^ hi[j][v >> 4]``, and no ``bytes.translate`` or
    ``int.from_bytes``, and returns the sum's ``height`` bytes, one per
    output symbol.  Each entry is one translate of the column,
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
        tables, from_bytes = field.mul_tables, int.from_bytes
        low, high = tables[:16], tables[::16]
        self.height = len(columns[0]) if columns else 0
        self.lo: list[tuple[int, ...]] = []
        self.hi: list[tuple[int, ...]] = []
        for col in columns:
            self.lo.append(tuple([from_bytes(col.translate(t), "little")
                                  for t in low]))
            self.hi.append(tuple([from_bytes(col.translate(t), "little")
                                  for t in high]))

    def image(self, symbols: Iterable[int]) -> bytes:
        """The map of ``symbols`` (in range, one per column), one output
        symbol per byte.  A negative symbol reads a wrong entry
        silently, so callers check symbols first."""
        acc = 0
        for lo, hi, v in zip(self.lo, self.hi, symbols):
            acc ^= lo[v & 15] ^ hi[v >> 4]
        return acc.to_bytes(self.height, "little")


def _check_blocks(field: GF) -> None:
    # The one block rule: a block holds one byte per symbol, so only a
    # field with product tables (w <= 8) takes blocks of L > 1 words.
    # Each block entry point (scaler, combine, solve_vandermonde,
    # LinearCode.syndrome and solve_syndrome) calls it for L > 1 before
    # any work; a scalar call never does.  A Fold call, whose word is a
    # block of rows, always does.
    if field.mul_tables is None:
        raise ValueError("blocks need a field with w <= 8")


def scaler(field: GF, block: int = 1) -> Callable[[int, int], int]:
    """The multiply ``a * v`` of a field element a by a symbol v, or with
    ``block`` L > 1 by a block of L byte symbols (see :func:`pack_blocks`),
    each times a: one ``bytes.translate`` through a's product table (see
    :attr:`GF.mul_tables`).  The symbol form is ``GF.mul``.  Blocks over
    a field with no product tables raise ``ValueError`` here, before any
    multiply."""
    if block == 1:
        return field.mul
    _check_blocks(field)
    tables, from_bytes = field.mul_tables, int.from_bytes
    return lambda a, v: from_bytes(
        v.to_bytes(block, "little").translate(tables[a]), "little")


def solve_vandermonde(field: GF, nodes: Sequence[int], rhs: list[int],
                      block: int = 1) -> list[int]:
    """The unique x with sum_k x_k * nodes[k]^r = rhs[r] for every
    r < u = len(rhs), over e = len(nodes) distinct nonzero nodes: the
    :func:`solve` of ``vandermonde(field, nodes, u)`` and ``rhs``, with
    its errors and messages, in O(e * u) field operations.

    The rows r < e solve by Bjorck and Pereyra's dual algorithm
    ("Solution of Vandermonde systems of equations", Math. Comp. 1970):
    stage 1 clears with the nodes, and stage 2 divides by their
    differences and sums back.  Each spare row r >= e then compares
    rhs[r] with sum_k x_k nodes[k]^r and raises
    :class:`NoSolutionError` on a difference; e > u raises
    :class:`UnderdeterminedError`.  With ``block`` L > 1 each rhs symbol
    and each output is a block of L byte symbols (see
    :func:`pack_blocks`), multiplied through :func:`scaler`, and blocks
    over a field with no product tables raise ``ValueError`` first.
    Single symbols run every product as exp/log lookups inline, as
    ``_eliminate`` clears int rows, when the field has the tables
    (w <= 16), and through ``GF.mul`` past them.
    """
    if block > 1:
        _check_blocks(field)
    u, e = len(rhs), len(nodes)
    if e > u:
        raise UnderdeterminedError(f"rank {u} < {e} unknowns")
    exp, log, order = field._exp, field._log, field.order
    x = rhs[:e]
    if block > 1 or log is None:
        mul, inv, power = scaler(field, block), field.inv, field.pow
        for k in range(e - 1):
            for i in range(e - 1, k, -1):
                x[i] ^= mul(nodes[k], x[i - 1])
        for k in range(e - 2, -1, -1):
            for i in range(k + 1, e):
                x[i] = mul(inv(nodes[i] ^ nodes[i - k - 1]), x[i])
            for i in range(k, e - 1):
                x[i] ^= x[i + 1]
        for r in range(e, u):
            s = rhs[r]
            for z, v in zip(nodes, x):
                s ^= mul(power(z, r), v)
            if s:
                raise NoSolutionError("inconsistent system")
        return x
    for k in range(e - 1):
        lz = log[nodes[k]]
        for i in range(e - 1, k, -1):
            if v := x[i - 1]:
                x[i] ^= exp[lz + log[v]]
    for k in range(e - 2, -1, -1):
        for i in range(k + 1, e):
            if v := x[i]:
                x[i] = exp[log[v] + order - log[nodes[i] ^ nodes[i - k - 1]]]
        for i in range(k, e - 1):
            x[i] ^= x[i + 1]
    for r in range(e, u):
        s = rhs[r]
        for z, v in zip(nodes, x):
            if v:
                s ^= exp[log[z] * r % order + log[v]]
        if s:
            raise NoSolutionError("inconsistent system")
    return x


def _raw(block: int) -> Callable[[Iterable[int]], bytes]:
    # The bytes of a row of blocks of ``block`` bytes each, little-endian
    # and end to end.
    if block == 1:
        return bytes
    return lambda row: b"".join(v.to_bytes(block, "little") for v in row)


def pack_blocks(words: Sequence[Sequence[int]], block: int = 1) -> list[int]:
    """g words of equal length, whose positions hold blocks of ``block``
    bytes, as one word of (g * block)-byte blocks: word i's block sits
    at byte offset i * block of each position.  One word packs to
    itself.  A block holds one byte per symbol, so only fields with
    product tables (w <= 8) take blocks: :func:`scaler`, :func:`combine`
    and :class:`LinearCode` refuse the others by one check."""
    if len(words) == 1:
        return list(words[0])
    from_bytes, raw = int.from_bytes, _raw(block)
    return [from_bytes(raw(col), "little") for col in zip(*words)]


def unpack_block(value: int, count: int, block: int = 1) -> list[int]:
    """The ``count`` blocks of ``block`` bytes in one position packed by
    :func:`pack_blocks`, first word first."""
    if count == 1:
        return [value]
    raw = value.to_bytes(count * block, "little")
    if block == 1:
        return list(raw)
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + block], "little")
            for i in range(0, count * block, block)]


def row_form(field: GF, block: int = 1) -> Callable[[Sequence[int]], Any]:
    """The form in which :func:`combine` reads a row of symbols, or of
    blocks of ``block`` bytes: for w <= 8 its bytes, blocks
    little-endian and end to end, and for wider fields the row itself.
    A caller that combines one row many times takes its form once and
    retakes it only when the row changes."""
    if field.mul_tables is None:
        return lambda row: row
    return _raw(block)


def combine(field: GF, terms: Iterable[tuple[int, Sequence[int]]],
            width: int, block: int = 1) -> list[int]:
    """The sum of ``weight * row`` over ``terms``, (weight, row) pairs
    of nonzero weights and rows of ``width`` symbols in range, or of
    ``width`` blocks of ``block`` bytes (see :func:`pack_blocks`), each
    row given in its :func:`row_form`.

    For w <= 8 a row is multiplied with one ``bytes.translate`` over its
    width * block bytes through the weight's product table and the rows
    are XORed as one big integer, as in :meth:`ByteMap.image`; wider
    fields multiply symbol by symbol and take no blocks.
    """
    if block > 1:
        _check_blocks(field)
    tables = field.mul_tables
    if tables is not None:
        from_bytes = int.from_bytes
        acc = 0
        for g, row in terms:
            acc ^= from_bytes(row.translate(tables[g]), "little")
        return unpack_block(acc, width, block)
    mul = field.mul
    out = [0] * width
    for g, row in terms:
        out = [a ^ mul(g, v) if v else a for a, v in zip(out, row)]
    return out


class Fold:
    """For each base b of ``bases``, the power sum sum_r b^r * row_r of
    the ``rows`` rows of a word, in ceil(log2 rows) halvings.

    For w <= 8 a call takes the word as one little-endian int, row r at
    byte offset r * ``size``, and returns one int of ``size`` bytes per
    base.  A halving of k rows keeps the low keep = ceil(k / 2) rows and
    adds to them the floor(k / 2) rows above, shifted down and
    multiplied by b^keep with one ``bytes.translate`` through its
    product table (none when b^keep = 1): sum_(r<k) b^r row_r is
    sum_(r<keep) b^r (row_r + b^keep row_(keep+r)).  With ``repeat`` R
    the word holds up to R such groups of rows end to end, masks
    repeated per group halve every group at once, and group i's sum is
    the ``size`` bytes at offset i * rows * size, every other byte 0:
    with one-byte rows, each array row's own byte sum.  The plan, each
    halving's shift, masks and tables, is built once with the object.  A
    field with no product tables (w > 8) takes only :meth:`sums`, and a
    call over it raises ``ValueError`` through linalg's block rule.
    """

    __slots__ = ("field", "size", "bases", "plans")

    def __init__(self, field: GF, rows: int, size: int, bases: Sequence[int],
                 repeat: int = 1):
        self.field, self.size, self.bases = field, size, bases
        every = sum(1 << 8 * rows * size * i for i in range(repeat))
        tables, steps, keep = field.mul_tables, [], rows
        while tables and keep > 1:
            keep, top = (keep + 1) // 2, keep // 2
            # A lone group's shift leaves only its top rows: no mask.
            steps.append((keep, 8 * keep * size,
                          ((1 << 8 * keep * size) - 1) * every,
                          ((1 << 8 * top * size) - 1) * every if repeat > 1
                          else None, ((repeat - 1) * rows + top) * size))
        # Per base, each halving's shift, masks, bytes shifted and table.
        self.plans = [[(*step, tables[g] if (g := field.pow(b, k)) != 1
                        else None) for k, *step in steps] for b in bases]

    def __call__(self, word: int) -> list[int]:
        """Each base's power sum of ``word``, an int of symbols in range
        laid out as the class describes, one int per base."""
        _check_blocks(self.field)
        from_bytes, out = int.from_bytes, []
        for plan, acc in zip(self.plans, [word] * len(self.plans)):
            for shift, low, high, length, table in plan:
                top = acc >> shift if high is None else acc >> shift & high
                if table is not None:
                    top = from_bytes(top.to_bytes(length, "little")
                                     .translate(table), "little")
                acc = acc & low ^ top
            out.append(acc)
        return out

    def sums(self, rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """Each base's power sum of ``rows``, ``size`` symbols each in
        range, as a list of symbols: for w <= 8 a call on the rows' bytes
        joined into one int, for wider fields :func:`combine` of the rows,
        row r weighted by b^r.  A row given as its bytes, a slice of what
        :meth:`GF.check_symbols` returns, is copied as it is."""
        f, size = self.field, self.size
        if f.mul_tables is None:
            return [combine(f, ((f.pow(b, r), row) for r, row in
                                enumerate(rows)), size) for b in self.bases]
        word = int.from_bytes(b"".join(map(bytearray, rows)), "little")
        return [list(v.to_bytes(size, "little")) for v in self(word)]


class PlanSlot:
    """One code's or pattern's uses so far, and its compiled map once
    built: a :class:`ByteMap`, or for a gpc encoder its
    :class:`SplitMap` tables and row orders.

    The one compile rule of every compiled map (a gpc encoder, and each
    erasure plan of a :class:`LinearCode`, counted by
    :meth:`LinearCode.solve_syndrome`; a pattern of no erasures has no
    plan and no slot, and gpc's row codes, which solve in closed form,
    take none, so plans are compiled for ``epc``'s codes): the first use
    runs scalar, and the use that takes the count past one compiles the
    map and applies it.  A solve for a block of L words counts L uses,
    so a block of two or more compiles at once.  An erasure plan, one
    elimination of the R x (|E| + R) bytes of [H_E | I], compiles in
    about the time of one scalar use, so a process that repeats a fill
    never takes much more than twice its scalar time.  A gpc encoder,
    one row pass over blocks of its K unit data vectors, costs many
    scalar encodes to compile, so the rule's one cost is a process that
    encodes one gpc code only a few times.  The compile is tried that
    once: fields with w > 8, maps charged more held bytes than
    ``MAP_BYTES_LIMIT`` and builds that return None stay scalar.  Slots
    live in caches bounded by :func:`recall`, so a slot in use is kept
    and an evicted one starts again from zero uses.
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
# _PLAN_BUDGET // _plan_bytes plan slots, and at least one, least
# recently used evicted first.  A plan compiles only when its charge is
# within MAP_BYTES_LIMIT, so a code holds at most max(1 MiB, one plan)
# of plans.
_PLAN_BUDGET = 1 << 20


class LinearCode:
    """A linear code given by its parity-check matrix over GF(2^w); its
    ``field`` and ``length`` are the matrix's field and width."""

    def __init__(self, check_matrix: Matrix):
        self.check_matrix = check_matrix
        self.field = self.check_matrix.field
        self.length = self.check_matrix.cols
        self._plans: dict[tuple[int, ...], PlanSlot] = {}
        # The batch syndrome's fold, for a code whose check row r is
        # b_r^j over the positions j: bases b_r and one group per row (see
        # batch_syndrome).  Set by such a code, as gpc's row codes are.
        self.fold: Fold | None = None
        # The check rows as working rows, built once: every plan compile
        # reads its erased columns from them, and the parity choice
        # eliminates a shallow copy.
        self._rows = _work_rows(self.field, self.check_matrix.data)
        # The greedy systematic choice: pivoting right to left picks the
        # last positions whose check columns stay independent.
        parity = set(_eliminate(list(self._rows), self.field,
                                range(self.length - 1, -1, -1), full=False))
        self._parity_positions = tuple(sorted(parity))
        self._data_positions = tuple(
            j for j in range(self.length) if j not in parity)
        self.redundancy = len(parity)
        self.dimension = self.length - self.redundancy
        # For w <= 8, syndrome's map: the check matrix's columns as bytes.
        self._checks = (ByteMap(self.field, self._rows)
                        if self.field.w <= 8 else None)
        # A plan's footprint, bounded above: per syndrome symbol it reads,
        # a column of one byte per check row and at most 64 bytes of
        # object overhead, and per plan 256 bytes for its ByteMap, its
        # column list, its PlanSlot, its key and its dict entry.  It is
        # both the plan's charge against MAP_BYTES_LIMIT and its share of
        # _PLAN_BUDGET.
        checks = len(self._rows)
        self._plan_bytes = checks * (checks + 64) + 256

    def parity_positions(self) -> tuple[int, ...]:
        """The greedy systematic choice, made with the code: the last
        positions, scanned right to left, whose check columns stay
        linearly independent (``redundancy`` of them, ascending)."""
        return self._parity_positions

    def data_positions(self) -> tuple[int, ...]:
        return self._data_positions

    def syndrome(self, word: Sequence[int], block: int = 1) -> list[int]:
        """``check_matrix.mul_vec(word)`` for a word of symbols in range.

        With ``block`` L > 1 each position holds a block of L words (see
        :func:`pack_blocks`), and so does each check symbol.  For w <= 8
        it runs :meth:`ByteMap.image` of the code's check matrix, built
        with the code: its columns as bytes, one byte per check row, each
        multiplied with one ``bytes.translate``.  Wider fields run
        :meth:`Matrix.mul_vec`.
        """
        if len(word) != self.length:
            raise ValueError("vector length mismatch")
        if block > 1:
            _check_blocks(self.field)
        if self._checks is not None:
            return self._checks.image(word, block)
        return self.check_matrix.mul_vec(word)

    def _compile(self, erased: Sequence[int]) -> ByteMap | None:
        # The solve of ``check_matrix @ word = 0`` for the positions
        # ``erased`` (ascending, w <= 8) as a ByteMap of the syndrome, None
        # when the erased columns are dependent.  One full elimination of
        # the R x (|E| + R) rows [H_E | I] on their first |E| columns gives
        # [T H_E | T], and the map keeps T.  The first |E| rows of T H_E
        # are the unit vectors and its other rows vanish, so T maps the
        # syndrome of the survivors to the erased symbols, then to the
        # residual checks: the survivors are consistent with the code
        # exactly when those vanish, which is what solve tests.
        e = len(erased)
        rows = [bytes([row[c] for c in erased])
                + (1 << 8 * i).to_bytes(len(self._rows), "little")
                for i, row in enumerate(self._rows)]
        if len(_eliminate(rows, self.field, range(e), full=True)) < e:
            return None
        return ByteMap(self.field, [row[e:] for row in rows])

    def fill(self, word: list[int], erased: tuple[int, ...],
             block: int = 1) -> None:
        """Fill the positions ``erased`` (ascending) of ``word``, whose
        other symbols lie in the field, in place with the codeword that
        agrees with those symbols; the erased symbols are ignored.  With
        ``block`` L > 1 each position holds a block of L words (see
        :func:`pack_blocks`), and every word is filled.

        A fill is the :meth:`syndrome` of the word with its erased
        symbols zeroed, handed to :meth:`solve_syndrome`, whose symbols
        it writes; it raises what that raises, leaving ``word`` as it
        was.  :meth:`fill_rows` fills many rows from one syndrome.
        """
        known = list(word) if erased else word
        for c in erased:
            known[c] = 0
        missing = self.solve_syndrome(self.syndrome(known, block), erased,
                                      block)
        for c, v in zip(erased, missing):
            word[c] = v

    def batch_syndrome(self, rows: Sequence[Sequence[int]],
                       block: int = 1) -> list[int]:
        """The :meth:`syndrome` of every row of ``rows`` (w <= 8), each a
        word of symbols in range or of blocks of ``block`` bytes: one int
        per check row, the check symbol of row i at byte offset i * L, as
        the syndrome of the rows packed by :func:`pack_blocks` holds it.

        A code with a ``fold`` takes the syndrome of single symbols from
        one :class:`Fold` call over the rows' bytes end to end, one group
        per row: check r of a row is the power sum of its positions with
        base b_r; a row given as its bytes, as a slice of what
        :meth:`GF.check_symbols` returns, is copied as it is.  Blocks, and
        a code with no fold, one built from a check matrix alone, take
        the syndrome of the packed rows.
        """
        count, fold = len(rows), self.fold
        if fold is None or block > 1:
            return self.syndrome(pack_blocks(rows, block), count * block)
        stride = self.length    # a row's bytes
        from_bytes = int.from_bytes
        return [from_bytes(v.to_bytes(count * stride, "little")[::stride],
                           "little")
                for v in fold(from_bytes(b"".join(map(bytearray, rows)),
                                         "little"))]

    def fill_rows(self, rows: list[list[int]],
                  groups: dict[tuple[int, ...], Sequence[int]],
                  block: int = 1) -> None:
        """Fill each row ``rows[r]`` in place, for each r of each group
        ``cols: part`` of ``groups``, at its erased positions ``cols``
        (ascending), which hold 0, as :meth:`fill` would.

        For w <= 8 one :meth:`batch_syndrome` of the whole batch, row i
        at byte offset i * L of each block of L bytes, holds every row's
        syndrome, and each group of g rows solves from its bytes of it as
        one word of (g * L)-byte blocks.  Wider fields solve row by row.
        A group of no erasures is the test that its rows' syndromes
        vanish.  Each group is written once all its rows solve, so when
        one raises what :meth:`solve_syndrome` raises, the groups before
        it stay filled and the rest are left as they were.
        """
        batch = [r for part in groups.values() for r in part]
        if not batch:
            return
        if self.field.w > 8:
            for cols, part in groups.items():
                filled = [self.solve_syndrome(self.syndrome(rows[r], block),
                                              cols, block) for r in part]
                for r, missing in zip(part, filled):
                    for c, v in zip(cols, missing):
                        rows[r][c] = v
            return
        syndrome = self.batch_syndrome([rows[r] for r in batch], block)
        shift = 0
        for cols, part in groups.items():
            width = len(part) * block   # the group's bytes per symbol
            mask = (1 << 8 * width) - 1
            missing = self.solve_syndrome(
                [v >> shift & mask for v in syndrome], cols, width)
            shift += 8 * width
            if len(part) == 1:
                row = rows[part[0]]
                for c, v in zip(cols, missing):
                    row[c] = v
                continue
            for c, v in zip(cols, missing):
                for r, x in zip(part, unpack_block(v, len(part), block)):
                    rows[r][c] = x

    def solve_syndrome(self, syndrome: list[int], erased: tuple[int, ...],
                       block: int = 1) -> list[int]:
        """The symbols at ``erased`` (ascending) of the codeword that
        agrees with a word whose :meth:`syndrome`, erased symbols zeroed,
        is ``syndrome``: what :meth:`fill` writes, for a caller that
        holds that syndrome already.  With ``block`` L > 1 each check
        symbol and each output is a block of L words (see
        :func:`pack_blocks`).

        A pattern of no erasures tests that the syndrome vanishes and
        holds no slot.  Every other pattern has a :class:`PlanSlot`,
        counted L uses, whose rule decides when the pattern's plan is
        compiled from the check rows the code keeps as bytes.  The code
        keeps as many slots as plans fit in ``_PLAN_BUDGET`` (1 MiB),
        least recently used dropped first.  A plan maps the syndrome, R
        check symbols, to the erased symbols and the residual checks,
        blocks included.  Until the compile, and when no plan is built,
        :func:`solve` runs on the syndrome word by word.  Raises
        :class:`UnderdeterminedError` on dependent erased columns and
        :class:`NoSolutionError` when the survivors contradict the code,
        and ``ValueError`` before any work on blocks over w > 8.
        """
        if block > 1:
            _check_blocks(self.field)
        if not erased:
            if any(syndrome):
                raise NoSolutionError("inconsistent system")
            return []
        slot = recall(self._plans, erased,
                      max(1, _PLAN_BUDGET // self._plan_bytes), PlanSlot)
        plan = slot.plan(self.field, self._plan_bytes,
                         lambda: self._compile(erased), block)
        if plan is None:
            return self._solve(syndrome, erased, block)
        missing = plan.image(syndrome, block)
        if any(missing[len(erased):]):
            raise NoSolutionError("inconsistent system")
        return missing[:len(erased)]

    def _solve(self, syndrome: list[int], erased: tuple[int, ...],
               block: int) -> list[int]:
        # The scalar path: the symbols at ``erased`` of the codeword whose
        # survivors have ``syndrome``, by one solve of H_E x = syndrome per
        # word.
        h = self.check_matrix.submatrix(cols=erased)
        if block == 1:
            return solve(h, syndrome)
        words = zip(*(unpack_block(v, block) for v in syndrome))
        return pack_blocks([solve(h, s) for s in words])
