"""Generalized product codes on m x n symbol arrays.

A code here is determined by a strictly increasing ladder of row-code
strengths ``u_0 < u_1 < ... < u_(t-1)``, multiplicities ``s_i`` summing
to the number of rows, and a fully-correctable row count ``m - k``.
Every array row belongs to the weakest row code; selected combinations
of rows (weighted by powers of alpha) fall into progressively stronger
row codes, and the last ``m - k`` such combinations vanish outright:
they lie in level t of the ladder, the zero code, whose strength is n.
That nesting is what the erasure decoder exploits: it triangulates the
power-weight matrix of the erased rows and peels them off from the most
constrained combination to the least.

Arrays carry an explicit erasure mask; an erased cell always stores the
value 0 and the mask is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain, compress
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .fields import GF
# ``solve`` is unused but stays bound for perfbench's tracer test.
from .linalg import (LinearCode, Matrix, NoSolutionError,  # noqa: F401
                     PlanSlot, SplitMap, combine, kron, null_space,
                     pack_blocks, recall, row_reduce, solve, unpack_block,
                     vandermonde, vstack)


class UncorrectableError(ValueError):
    """The requested decoder cannot fix the erasure pattern.

    The pattern exceeds the decoder's reach, or the survivors contradict
    the code.  ``remaining`` (required) holds the unresolved positions:
    (row, col) pairs for array codes, flat indices for linear codes.
    """

    def __init__(self, message: str, remaining: frozenset):
        super().__init__(message)
        self.remaining = remaining


class _Rules:
    """A value whose ``violations()`` lists the rules it breaks."""

    def check(self) -> _Rules:
        """Self, or ValueError naming every violation."""
        problems = self.violations()
        if problems:
            raise ValueError("; ".join(problems))
        return self


@dataclass(frozen=True)
class GpcParams(_Rules):
    """Parameter set (m, n, k, s-vector, u-vector, field) for one code.

    ``s`` and ``u`` are the level vectors: level i contributes ``s[i]``
    rows whose combinations land in the row code that corrects ``u[i]``
    erasures.  Sentinels used throughout: s_hat(0) = m, s_hat(t) = m - k
    and u_at(t) = n.
    """

    m: int
    n: int
    k: int
    s: tuple[int, ...]
    u: tuple[int, ...]
    field: GF

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))
        object.__setattr__(self, "u", tuple(self.u))

    @property
    def t(self) -> int:
        return len(self.s)

    def s_hat(self, i: int) -> int:
        """Rows governed by level i or deeper; s_hat(t) = m - k and
        s_hat(t + 1) = 0, so level i owns s_hat(i) - s_hat(i + 1) rows."""
        if i == self.t:
            return self.m - self.k
        return sum(self.s[i:])

    def u_at(self, i: int) -> int:
        """Level strengths with the sentinel u_t = n."""
        return self.n if i == self.t else self.u[i]

    def violations(self) -> list[str]:
        """All constraint violations, empty when the parameters are valid."""
        out = []
        if self.m < 1 or self.n < 1:
            out.append(f"array shape {self.m}x{self.n} must be positive")
        if self.t == 0 or len(self.u) != self.t:
            out.append(f"level vectors disagree: {len(self.s)} vs {len(self.u)}")
            return out
        if sum(self.s) != self.m:
            out.append(f"sum(s)={sum(self.s)} != m={self.m}")
        if any(x < 1 for x in self.s):
            out.append("every s_i must be >= 1")
        if not all(1 <= a < b for a, b in zip(self.u, self.u[1:])) or \
                not 1 <= self.u[0] or self.u[-1] > self.n - 1:
            out.append(f"need 1 <= u_0 < ... < u_(t-1) <= n-1, got {self.u}")
        if not 0 <= self.m - self.k < self.s[-1]:
            out.append(f"need 0 <= m-k < s_(t-1), got m-k={self.m - self.k}")
        big = max(self.m, self.n)
        if (1 << self.field.w) <= big:
            out.append(f"field size 2^{self.field.w} must exceed {big}")
        elif self.field.alpha_order < big:
            out.append(
                f"order(alpha)={self.field.alpha_order} must be >= {big}")
        return out

    def expanded_u(self) -> tuple[int, ...]:
        """Per-row strengths (u_0 repeated s_0 times, and so on)."""
        out: list[int] = []
        for mult, val in zip(self.s, self.u):
            out.extend([val] * mult)
        return tuple(out)

    def notation(self) -> str:
        body = ",".join(str(v) for v in self.expanded_u())
        return f"C({self.n};{self.k},({body}))"

    def dimension(self) -> int:
        """Number of free symbols per array."""
        return self.m * self.n - sum(
            (self.s_hat(i) - self.s_hat(i + 1)) * self.u_at(i)
            for i in range(self.t + 1))

    def min_distance(self) -> int:
        return min((self.s_hat(i + 1) + 1) * (self.u[i] + 1)
                   for i in range(self.t))

    def erasure_budgets(self) -> tuple[int, ...]:
        """Largest tolerable per-row erasure counts, sorted non-increasing.

        A sorted profile is decodable by the row decoder exactly when it
        is dominated entrywise by this vector.
        """
        out: list[int] = []
        for i in range(self.t, -1, -1):
            out += [self.u_at(i)] * (self.s_hat(i) - self.s_hat(i + 1))
        return tuple(out)

    def parity_positions(self) -> frozenset[tuple[int, int]]:
        """Systematic layout: cells solved by the encoder.

        Level i claims the last u_at(i) columns of its row band, so the
        bottom m - k rows (level t) are parity in full.
        """
        return frozenset(
            (r, c) for i in range(self.t + 1)
            for r in range(self.m - self.s_hat(i), self.m - self.s_hat(i + 1))
            for c in range(self.n - self.u_at(i), self.n))

    def transposed(self) -> "GpcParams":
        """Parameters of the same code viewed column-wise.

        The n x m view is again a code of this family; strengths and
        multiplicities swap roles through the partial sums.  Codes with
        k = m have no vanishing row combinations, so their column view
        falls outside the family and raises ValueError.
        """
        if self.m == self.k:
            raise ValueError(
                "column view undefined for k = m (no full-strength parities)")
        t = self.t
        u_new = tuple(self.s_hat(t - i) for i in range(t))
        s_new = tuple(self.u_at(t - i) - self.u_at(t - i - 1) for i in range(t - 1))
        s_new += (self.u_at(1),)
        return GpcParams(m=self.n, n=self.m, k=self.n - self.u[0],
                         s=s_new, u=u_new, field=self.field)


class SymbolArray:
    """An m x n array of field symbols with an erasure mask."""

    __slots__ = ("m", "n", "values", "erased")

    def __init__(self, values: Sequence[Sequence[int]],
                 erased: Sequence[Sequence[bool]] | None = None):
        self.values = [list(row) for row in values]
        self.m = len(self.values)
        self.n = len(self.values[0]) if self.values else 0
        if any(len(row) != self.n for row in self.values):
            raise ValueError("ragged rows")
        if erased is None:
            self.erased = [[False] * self.n for _ in range(self.m)]
            return
        self.erased = [list(map(bool, row)) for row in erased]
        if len(self.erased) != self.m or \
                any(len(row) != self.n for row in self.erased):
            raise ValueError("mask shape mismatch")
        self._zero_erased()

    @classmethod
    def zeros(cls, m: int, n: int) -> "SymbolArray":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def _masked(cls, values: list[list[int]],
                erased: list[list[bool]]) -> "SymbolArray":
        # An array that takes new row lists of a valid shape as they
        # are, without __init__'s checks.
        out = cls.__new__(cls)
        out.values, out.erased = values, erased
        out.m = len(values)
        out.n = len(values[0]) if values else 0
        out._zero_erased()
        return out

    def _zero_erased(self) -> None:
        # Erased cells hold 0, since a caller may have written into them.
        span = range(self.n)
        for vals, flags in zip(self.values, self.erased):
            if True in flags:
                for c in compress(span, flags):
                    vals[c] = 0

    def copy(self) -> "SymbolArray":
        return self._masked([vals[:] for vals in self.values],
                            [flags[:] for flags in self.erased])

    def erase(self, r: int, c: int) -> None:
        self.values[r][c] = 0
        self.erased[r][c] = True

    def fill(self, r: int, c: int, value: int) -> None:
        self.values[r][c] = value
        self.erased[r][c] = False

    @property
    def erasure_count(self) -> int:
        return sum(flag for row in self.erased for flag in row)

    def erased_positions(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.m) for c in range(self.n)
                if self.erased[r][c]]

    def transposed(self) -> "SymbolArray":
        return self._masked(list(map(list, zip(*self.values))),
                            list(map(list, zip(*self.erased))))

    def flatten(self) -> list[int]:
        return [v for row in self.values for v in row]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolArray):
            return NotImplemented
        return self.values == other.values and self.erased == other.erased

    def __repr__(self) -> str:
        body = "\n".join(
            " ".join("?" if e else f"{v:x}" for v, e in zip(vr, er))
            for vr, er in zip(self.values, self.erased))
        return f"SymbolArray({self.m}x{self.n})\n{body}"


def erase_positions(arr: SymbolArray,
                    positions: Iterable[tuple[int, int]]) -> SymbolArray:
    out = arr.copy()
    for r, c in positions:
        out.erase(r, c)
    return out


@dataclass(frozen=True)
class ErasureProfile:
    """Per-row erasure counts, sorted non-increasing.

    Ties break toward the smaller original row index so the decoder's
    row ordering is reproducible.
    """

    entries: tuple[tuple[int, int], ...]  # (count, original row index)

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "ErasureProfile":
        order = sorted(range(len(counts)), key=lambda r: (-counts[r], r))
        return cls(tuple((counts[r], r) for r in order))

    @classmethod
    def from_array(cls, arr: SymbolArray) -> "ErasureProfile":
        return cls.from_counts([sum(row) for row in arr.erased])

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.entries)

    @property
    def row_order(self) -> tuple[int, ...]:
        return tuple(r for _, r in self.entries)


def decodable_profile(profile: ErasureProfile, params: GpcParams) -> bool:
    """Whether the single-pass row decoder is guaranteed to succeed."""
    budgets = params.erasure_budgets()
    counts = profile.counts
    if len(counts) != params.m:
        raise ValueError("profile length does not match row count")
    return all(c <= b for c, b in zip(counts, budgets))


def component_parity_check(params: GpcParams, i: int) -> Matrix:
    """Parity-check matrix of the level-i row code: entry (r, j) = alpha^(r*j)."""
    f = params.field
    nodes = [f.alpha_pow(j) for j in range(params.n)]
    return vandermonde(f, nodes, params.u[i])


class _View(NamedTuple):
    """What gpc keeps per params."""

    params: GpcParams
    levels: list[LinearCode]    # row codes 0..t; level t has the identity
    col_params: GpcParams | None   # None when k = m
    encoder: PlanSlot           # of an _Encoder
    dim: int                    # K, the data symbols per array


# Views by params, least recently used evicted first: at most 16
# entries, each an encoder (split tables of at most 2 MiB, 1.71 MB for
# G16; see linalg.MAP_BYTES_LIMIT) and t + 1 row codes of length n (G16's
# row view holds 14 KB of check lists, its column view 6 KB), each with
# at most 1 MiB of row plans.
_VIEW_LIMIT = 16
_VIEWS: dict[GpcParams, _View] = {}


def _level_checks(params: GpcParams) -> list[Matrix]:
    # Check matrices of the row codes 0..t, after validating params;
    # callers that run no compiled map use these and evict no view.
    params.check()
    checks = [component_parity_check(params, i) for i in range(params.t)]
    return checks + [Matrix.identity(params.field, params.n)]


def _view(params: GpcParams) -> _View:
    # Built once per params, which it validates (so an invalid params
    # never enters the cache); callers must not modify the level codes.
    def build() -> _View:
        return _View(params, [LinearCode(h) for h in _level_checks(params)],
                     params.transposed() if params.k < params.m else None,
                     PlanSlot(), params.dimension())
    return recall(_VIEWS, params, _VIEW_LIMIT, build)


def full_parity_matrix(params: GpcParams) -> Matrix:
    """All defining constraints, stacked over flattened (row-major) arrays.

    Contains one block per array row for the weakest row code and one
    Kronecker block per deeper level, the vanishing combinations (level
    t) last.  Rows may be redundant; the rank always equals m*n minus
    the dimension.
    """
    checks = _level_checks(params)
    f = params.field
    row_nodes = [f.alpha_pow(j) for j in range(params.m)]
    blocks = [kron(Matrix.identity(f, params.m), checks[0])]
    for i in range(1, params.t + 1):
        if params.s_hat(i):   # level t is empty when k = m
            weights = vandermonde(f, row_nodes, params.s_hat(i))
            blocks.append(kron(weights, checks[i]))
    return vstack(blocks)


def _check_shape(arr: SymbolArray, params: GpcParams) -> None:
    if (arr.m, arr.n) != (params.m, params.n):
        raise ValueError(
            f"array is {arr.m}x{arr.n}, parameters expect {params.m}x{params.n}")


def _checked_copy(arr: SymbolArray, params: GpcParams) -> SymbolArray:
    # A decoder's work array: the shape must match and every survivor lie
    # in the field (the copy holds 0 in every erased cell).
    _check_shape(arr, params)
    work = arr.copy()
    params.field.check_symbols(chain.from_iterable(work.values), "survivor")
    return work


def is_member(arr: SymbolArray, params: GpcParams) -> bool:
    """Exact membership test by direct syndrome evaluation.

    Every row goes through the level-0 code's
    :meth:`~gpcodes.linalg.LinearCode.syndrome`, and each row
    combination, summed with :func:`~gpcodes.linalg.combine`, through
    the syndromes of the deeper levels it must lie in.  Raises
    ``ValueError`` when a symbol lies outside [0, 2^w).
    """
    levels = _view(params).levels
    _check_shape(arr, params)
    if arr.erasure_count:
        raise ValueError("membership is undefined for arrays with erasures")
    f = params.field
    f.check_symbols(chain.from_iterable(arr.values), "symbol")
    for row in arr.values:
        if any(levels[0].syndrome(row)):
            return False
    # Combination r weights row j by alpha^(r*j).
    row_nodes = [f.alpha_pow(j) for j in range(params.m)]
    weights = vandermonde(f, row_nodes, params.s_hat(1)).data
    for r, gamma in enumerate(weights):
        combo = combine(f, zip(gamma, arr.values), params.n)
        for i in range(1, params.t + 1):
            if r < params.s_hat(i) and any(levels[i].syndrome(combo)):
                return False
    return True


def _repair_rows(work: SymbolArray, rows: Sequence[int],
                 cols: tuple[int, ...], view: _View, level: int, block: int,
                 offset: Sequence[int] | None = None) -> None:
    # Fill the erased cells ``cols`` of ``rows`` so that each row, plus
    # ``offset`` for a single row, lies in the level's row code.  Several
    # rows, which must share their erased columns, fill as one word of
    # blocks, row i at byte offset i * block.  The level code fills
    # row + offset, whose erased symbols it ignores, so the offset goes
    # back into the filled cells.  The solution is unique (Vandermonde
    # columns); survivors that contradict the code raise
    # NoSolutionError.  An all-zero word solves to zeros.
    g = len(rows)
    if g > 1:
        word = pack_blocks([work.values[r] for r in rows], block)
    else:
        word = work.values[rows[0]]
        if offset is not None:
            word = [a ^ b for a, b in zip(word, offset)]
    if any(word):
        view.levels[level].fill(word, cols, g * block)
    for c in cols:
        v = word[c] if offset is None else word[c] ^ offset[c]
        for r, x in zip(rows, unpack_block(v, g, block) if g > 1 else (v,)):
            work.fill(r, c, x)


@dataclass
class DecodeTrace:
    """Optional record of the row decoder's internal steps."""

    row_order: tuple[int, ...] = ()
    counts: tuple[int, ...] = ()
    system: Matrix | None = None
    transform: Matrix | None = None
    steps: list[tuple[int, int, int | None]] = dc_field(default_factory=list)
    # steps: (profile position, row index, level used; None = vanishing combo)


# Triangulations by (params, row order, system size), least recently
# used evicted first.  A repeated loss needs one entry; patterns that are
# all new hit almost never (a 15 s scrub of the benchmark's G16 code: 16
# hits in 464 lookups), so a small limit keeps the hits that come.
_TRIANGULATION_LIMIT = 64
_TRIANGULATION_CACHE: dict[tuple, tuple[Matrix, Matrix]] = {}


def _triangulated_system(params: GpcParams, order: tuple[int, ...],
                         nsys: int) -> tuple[Matrix, Matrix]:
    f = params.field
    return recall(_TRIANGULATION_CACHE, (params, order, nsys),
                  _TRIANGULATION_LIMIT, lambda: row_reduce(vandermonde(
                      f, [f.alpha_pow(j) for j in order], nsys)))


def _row_pass(work: SymbolArray, view: _View,
              trace: DecodeTrace | None = None, block: int = 1) -> int:
    # One in-place row pass: repair every row within reach of the weakest
    # row code, then peel the rest if the profile fits the budgets.  Each
    # cell holds a symbol, or with ``block`` L > 1 (w <= 8) a block of L
    # symbols, one per array the pass repairs at once.  Returns the
    # number of cells left erased: 0 when every row is repaired, else the
    # count after the local repairs, which a refused peel keeps.
    params = view.params
    span = range(work.n)
    erased = [tuple(compress(span, flags)) for flags in work.erased]
    groups: dict[tuple[int, ...], list[int]] = {}
    for r, cols in enumerate(erased):
        if 0 < len(cols) <= params.u[0]:
            groups.setdefault(cols, []).append(r)
            erased[r] = ()
    # Rows with equal erased columns repair as one block (w <= 8).
    split = params.field.w > 8
    for cols, rows in groups.items():
        for part in ([r] for r in rows) if split else (rows,):
            _repair_rows(work, part, cols, view, 0, block)
    left = sum(map(len, erased))
    if not left:
        return 0
    profile = ErasureProfile.from_counts([len(cols) for cols in erased])
    if not decodable_profile(profile, params):
        return left
    f = params.field
    m, k, t = params.m, params.k, params.t
    order = profile.row_order
    counts = profile.counts
    nsys = max(m - k, sum(1 for c in counts if c))
    reduced, transform = _triangulated_system(params, order, nsys)
    if trace is not None:
        trace.row_order = order
        trace.counts = counts
        trace.system = reduced
        trace.transform = transform
    for p in range(nsys - 1, -1, -1):
        row_idx = order[p]
        cols = erased[row_idx]
        if p < m - k and not cols:
            continue
        gamma = reduced.data[p]
        known = combine(f, [(gamma[j], work.values[order[j]])
                            for j in range(p + 1, m) if gamma[j]],
                        params.n, block)
        if p < m - k:
            # The combination vanishes: the whole row equals the known part.
            level = None
            for c in cols:
                work.fill(row_idx, c, known[c])
            if work.values[row_idx] != known:
                raise NoSolutionError("inconsistent system")
        else:
            level = next(s for s in range(1, t) if params.u[s] >= counts[p]
                         and params.s_hat(s) >= p + 1)
            _repair_rows(work, [row_idx], cols, view, level, block, known)
        if trace is not None:
            trace.steps.append((p, row_idx, level))
    return 0


def decode_rows(arr: SymbolArray, params: GpcParams,
                trace: DecodeTrace | None = None) -> SymbolArray:
    """Single-pass erasure decoder working row by row.

    First settles every row within reach of the weakest row code, then
    orders the remaining rows by erasure count, triangulates their
    power-weight matrix, and peels rows from strongest combination to
    weakest: each triangulated row states that the current array row
    plus a known combination of later rows lies in some row code (or
    vanishes), which pins its erased symbols.

    Every row repair fills the row's erased cells in one level's row
    code with :meth:`~gpcodes.linalg.LinearCode.fill`.  For w <= 8, the
    rows within reach of the weakest row code that share their erased
    columns fill together, as one block of one byte per row.  Each set
    of erased columns in one level under equal ``params`` has its own
    erasure plan, compiled by :class:`~gpcodes.linalg.PlanSlot`'s rule
    (as many per level as fit in 1 MiB, least recently used dropped
    first), and the peel sums its known rows with product tables
    (:func:`~gpcodes.linalg.combine`).
    The output and the errors are those of the solves, checks included.

    Raises ``ValueError`` when a survivor lies outside [0, 2^w), and
    :class:`UncorrectableError` when the sorted profile exceeds the
    guaranteed budgets (``remaining``: the cells left after the local
    repairs), or when surviving symbols contradict a row code
    (``remaining``: every erased cell of ``arr``).
    """
    view = _view(params)
    work = _checked_copy(arr, params)
    try:
        left = _row_pass(work, view, trace)
    except NoSolutionError as exc:
        raise UncorrectableError(f"row solve failed: {exc}",
                                 frozenset(arr.erased_positions())) from exc
    if left:
        bad = [(c, r) for c, r in ErasureProfile.from_array(work).entries if c]
        raise UncorrectableError(
            f"erasure profile {bad} exceeds the decodable budgets "
            f"{params.erasure_budgets()}",
            remaining=frozenset(work.erased_positions()))
    return work


def decode_iterative(arr: SymbolArray, params: GpcParams) -> SymbolArray:
    """Alternating row/column decoder.

    Runs the row pass on the array and on its transpose (under the
    column-view parameters) until everything is recovered or a full
    alternation makes no progress.  On a stall the partial array is
    returned with its remaining erasures still masked.  Both passes
    repair rows as :func:`decode_rows` does, compiled row plans
    included; the column view keeps its own.  A survivor outside
    [0, 2^w) raises ``ValueError``, and survivors that contradict the
    code raise :class:`UncorrectableError` naming every erased cell of
    ``arr``.
    """
    view = _view(params)
    work = _checked_copy(arr, params)
    try:
        # k = m leaves no column view (see GpcParams.transposed).  An
        # alternation whose column pass fills nothing leaves a state the
        # row pass cannot change either, so the loop stops there.
        while (left := _row_pass(work, view)) and view.col_params is not None:
            flipped = work.transposed()
            after = _row_pass(flipped, _view(view.col_params))
            work = flipped.transposed()
            if not 0 < after < left:
                break
    except NoSolutionError as exc:
        raise UncorrectableError(f"row solve failed: {exc}",
                                 frozenset(arr.erased_positions())) from exc
    return work


class _Encoder(NamedTuple):
    """A compiled gpc encoder as its slot holds it."""

    parity: SplitMap    # the K data symbols to the P parity symbols
    rows: list[Callable[[list[int]], tuple[int, ...]]]  # cells of each row


def _compile_encoder(params: GpcParams) -> _Encoder:
    # The parity of the flat array as split tables over the data cells,
    # whose column j holds the parity of the unit data vector at j.  One
    # row pass over blocks of N = m * n bytes finds every column at once:
    # data cell j holds the block whose byte j is 1, so parity cell t's
    # block, as N bytes, is the map's row t over the whole word, and
    # column j is byte j of every row.  One itemgetter per array row
    # picks the row's symbols from the data followed by the parity,
    # cells in row-major order both (n >= 2, so each picks a tuple).
    parity = params.parity_positions()
    size, n = params.m * params.n, params.n
    cells = [divmod(j, n) in parity for j in range(size)]
    data = [j for j, p in enumerate(cells) if not p]
    targets = [j for j, p in enumerate(cells) if p]
    word = _encode_pass([1 << 8 * j for j in data], params, parity,
                        size).flatten()
    joined = b"".join(word[t].to_bytes(size, "little") for t in targets)
    where = {j: i for i, j in enumerate(data + targets)}
    return _Encoder(SplitMap(params.field, [joined[j::size] for j in data]),
                    [itemgetter(*(where[j] for j in range(r, r + n)))
                     for r in range(0, size, n)])


def _encode_pass(data: Sequence[int], params: GpcParams,
                 parity: frozenset[tuple[int, int]],
                 block: int = 1) -> SymbolArray:
    # The reference encoder: data fills the non-parity cells in row-major
    # order and one row pass recovers the parity cells, which always sit
    # inside the budgets with no survivor to contradict.
    it = iter(data)
    cells = [[(r, c) in parity for c in range(params.n)]
             for r in range(params.m)]
    work = SymbolArray([[0 if e else next(it) for e in row] for row in cells],
                       cells)
    if _row_pass(work, _view(params), block=block):
        raise AssertionError("parity cells outside the decodable budgets")
    return work


def encode(data: Sequence[int], params: GpcParams) -> SymbolArray:
    """Systematic encoder.

    Data symbols fill the non-parity cells in row-major order; the
    parity cells are treated as erasures and recovered by the row
    decoder.  For w <= 8 the code's encoder slot, kept per ``params``,
    decides by :class:`~gpcodes.linalg.PlanSlot`'s rule when the parity
    is computed by a compiled map instead, equal to the scalar path bit
    for bit.  The map is compiled in one row pass over blocks of
    N = m * n bytes, the K unit data vectors side by side, each at its
    own cell's byte, and its data columns are cut from those blocks
    straight into :class:`~gpcodes.linalg.SplitMap` tables: two lookups
    and two XORs per data symbol, and the rows picked from the data and
    the parity by cell orders kept with the tables.  The slot is charged
    32 * K * (P + 64) held bytes for the tables, and codes charged more
    than ``linalg.MAP_BYTES_LIMIT`` (2 MiB) stay scalar.
    """
    view = _view(params)
    dim = view.dim
    if len(data) != dim:
        raise ValueError(f"expected {dim} data symbols, got {len(data)}")
    params.field.check_symbols(data, "data symbol")
    enc = view.encoder.plan(params.field,
                            32 * dim * (params.m * params.n - dim + 64),
                            lambda: _compile_encoder(params))
    if enc is None:
        return _encode_pass(data, params, params.parity_positions())
    parity = enc.parity
    symbols = [*data, *parity.image(data).to_bytes(parity.height, "little")]
    return SymbolArray([row(symbols) for row in enc.rows])


def min_weight_codeword(params: GpcParams, level: int,
                        rows: Sequence[int], cols: Sequence[int]) -> SymbolArray:
    """A codeword supported exactly on rows x cols.

    ``cols`` must contain u_level + 1 column indices and ``rows``
    exactly s_hat(level+1) + 1 row indices; the construction places one
    minimum-weight row-code word, scaled per row by a vanishing-weight
    vector, and witnesses the distance formula when the level attains
    the minimum.
    """
    params.check()
    f = params.field
    rows = sorted(rows)
    cols = sorted(cols)
    if not 0 <= level < params.t:
        raise ValueError(f"level {level} out of range")
    if len(cols) != params.u[level] + 1:
        raise ValueError(f"need {params.u[level] + 1} columns, got {len(cols)}")
    if len(rows) != params.s_hat(level + 1) + 1:
        raise ValueError(
            f"need {params.s_hat(level + 1) + 1} rows, got {len(rows)}")
    if cols[0] < 0 or cols[-1] >= params.n or len(set(cols)) != len(cols):
        raise ValueError("columns out of range or repeated")
    if rows[0] < 0 or rows[-1] >= params.m or len(set(rows)) != len(rows):
        raise ValueError("rows out of range or repeated")
    h = component_parity_check(params, level)
    w_basis = _null_vector(h.submatrix(cols=cols))
    row_nodes = [f.alpha_pow(r) for r in rows]
    depth = len(rows) - 1
    if depth:
        v_basis = _null_vector(vandermonde(f, row_nodes, depth))
    else:
        v_basis = [1]
    arr = SymbolArray.zeros(params.m, params.n)
    for vr, r in zip(v_basis, rows):
        for wc, c in zip(w_basis, cols):
            arr.fill(r, c, f.mul(vr, wc))
    return arr


def _null_vector(mat: Matrix) -> list[int]:
    basis = null_space(mat)
    if len(basis) != 1:
        raise ValueError(f"expected a one-dimensional null space, got {len(basis)}")
    return basis[0]
