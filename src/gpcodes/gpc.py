"""Generalized product codes on m x n symbol arrays.

A code here is determined by a strictly increasing ladder of row-code
strengths ``u_0 < u_1 < ... < u_(t-1)``, multiplicities ``s_i`` summing
to the number of rows, and a fully-correctable row count ``m - k``.
Every array row belongs to the weakest row code; selected combinations
of rows (weighted by powers of alpha) fall into progressively stronger
row codes, and the last ``m - k`` such combinations vanish outright:
they lie in level t of the ladder, the zero code, whose strength is n.
Combination r lies in level i exactly when r < s_hat(i); erasure budget
r is the strength of the deepest such level.  That nesting is what the
erasure decoder exploits: it triangulates the power-weight matrix of the
erased rows and peels them off from the most constrained combination to
the least.

A decode plans, then executes.  Every decision the row pass and the
row-column alternation take (which rows repair locally, the profile, the
triangulated system, each pivot's level and known rows, when to turn to
the columns) reads the erasure mask alone, so :class:`_Plan` holds them
and a bounded cache keeps the plans by code and mask, each held in a
small probation segment until its mask is seen again: a repeated loss
plans once, and masks seen once stay out of the cache.  The execute
step only touches symbols: it runs the plan's fills and combinations
and compares the vanishing rows.  Each level's row code is a
Reed-Solomon code whose erasures solve in closed form
(:class:`_RowCode`), so row repairs hold no state and run no
elimination.

Arrays carry an explicit erasure mask; an erased cell always stores the
value 0 and the mask is authoritative.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress
from operator import gt, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .fields import GF
# ``solve`` is unused but stays bound for perfbench's tracer test.
from .linalg import (Fold, LinearCode, Matrix,  # noqa: F401
                     NoSolutionError, PlanSlot, SplitMap, admit, combine,
                     kron, null_space, recall, row_form, row_reduce, solve,
                     solve_vandermonde, vandermonde, vstack)


class UncorrectableError(ValueError):
    """The requested decoder cannot fix the erasure pattern.

    The pattern exceeds the decoder's reach, or the survivors contradict
    the code, which raises the subclass :class:`ContradictionError`.
    ``remaining`` (required) holds the unresolved positions: (row, col)
    pairs for array codes, flat indices for linear codes.
    """

    def __init__(self, message: str, remaining: frozenset):
        super().__init__(message)
        self.remaining = remaining


class ContradictionError(UncorrectableError):
    """The surviving symbols contradict the code: no codeword agrees
    with them, whatever the erased symbols hold."""


class _Rules:
    """A value whose ``violations()`` lists the rules it breaks."""

    __slots__ = ()      # no instance dict: the tuples built on it stay frozen

    def check(self) -> _Rules:
        """Self, or ValueError naming every violation."""
        problems = self.violations()
        if problems:
            raise ValueError("; ".join(problems))
        return self


def _tuple(name: str, values: object) -> tuple:
    # ``values`` as a tuple, or ValueError naming ``name`` when it is not
    # iterable, as an int or None is.
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(
            f"{name} must be a sequence of ints, got {values!r}") from None


def _not_ints(named: Iterable[tuple[str, object]]) -> list[str]:
    # A violation per (name, value) pair whose value is not an int, named
    # before any rule compares it; a bool is not one, as in spec files.
    return [f"{name} must be an int, got {value!r}"
            for name, value in named if type(value) is not int]


class GpcParams(_Rules, NamedTuple("GpcParams", [
        ("m", int), ("n", int), ("k", int), ("s", tuple[int, ...]),
        ("u", tuple[int, ...]), ("field", GF)])):
    """Parameter set (m, n, k, s-vector, u-vector, field) for one code.

    ``s`` and ``u`` are the level vectors: level i contributes ``s[i]``
    rows whose combinations land in the row code that corrects ``u[i]``
    erasures.  Sentinels used throughout: s_hat(0) = m, s_hat(t) = m - k
    and u_at(t) = n.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, k: int, s: Iterable[int],
                u: Iterable[int], field: GF) -> GpcParams:
        return super().__new__(cls, m, n, k, _tuple("s", s), _tuple("u", u),
                               field)

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

    def _type_violations(self) -> list[str]:
        # The counts that are not ints and a field that is not a GF: all
        # that can tell apart two params that compare equal.
        out = _not_ints([*zip("mnk", self), *(
            (f"{name}[{i}]", x) for name in "su"
            for i, x in enumerate(getattr(self, name)))])
        if not isinstance(self.field, GF):
            out.append(f"field must be a GF, got {self.field!r}")
        return out

    def violations(self) -> list[str]:
        """All constraint violations, empty when the parameters are valid."""
        out = self._type_violations()
        if out:
            return out
        if self.m < 1 or self.n < 1:
            out.append(f"array shape {self.m}x{self.n} must be positive")
        if self.t == 0 or len(self.u) != self.t:
            out.append("need at least one level in s and u" if self.t == 0 else
                       f"level vectors disagree: {len(self.s)} vs {len(self.u)}")
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
        """Number of free symbols per array: m*n less the budgets."""
        return self.m * self.n - sum(self.erasure_budgets())

    def min_distance(self) -> int:
        return min((self.s_hat(i + 1) + 1) * (self.u[i] + 1)
                   for i in range(self.t))

    def erasure_budgets(self) -> tuple[int, ...]:
        """Largest tolerable per-row erasure counts, sorted non-increasing.

        Budget p is the strength of the deepest level combination p lies
        in (n for the m - k vanishing ones, u_0 for the rows past
        s_hat(1)).  A sorted profile is decodable by the row decoder
        exactly when it is dominated entrywise by this vector.
        """
        out: list[int] = []
        for i in range(self.t, -1, -1):
            out += [self.u_at(i)] * (self.s_hat(i) - self.s_hat(i + 1))
        return tuple(out)

    def parity_positions(self) -> frozenset[tuple[int, int]]:
        """Systematic layout: cells solved by the encoder.

        Row r claims its last ``erasure_budgets()[m - 1 - r]`` cells, so
        the budgets read bottom row first: the bottom m - k rows (level
        t) are parity in full, and the top s_0 rows hold u_0 each.
        """
        budgets = self.erasure_budgets()
        return frozenset((r, c) for r in range(self.m)
                         for c in range(self.n - budgets[self.m - 1 - r],
                                        self.n))

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
    def _masked(cls, values: list[list[int]], erased: list[list[bool]],
                zero: bool = True) -> "SymbolArray":
        # An array that takes new row lists of a valid shape as they
        # are, without __init__'s checks; ``zero=False`` when the erased
        # cells already hold 0.
        out = cls.__new__(cls)
        out.values, out.erased = values, erased
        out.m = len(values)
        out.n = len(values[0]) if values else 0
        if zero:
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
        """Erase cell (r, c); ``ValueError`` unless r and c are ints in
        range."""
        self.fill(r, c, 0)
        self.erased[r][c] = True

    def fill(self, r: int, c: int, value: int) -> None:
        """Set cell (r, c) to ``value`` and clear its erasure;
        ``ValueError`` unless r and c are ints in range (an index never
        wraps around from the end) and ``value`` is a non-negative int.
        The field's width bounds a symbol too, which the decoders check:
        an array has no field."""
        if not (isinstance(r, int) and isinstance(c, int)
                and 0 <= r < self.m and 0 <= c < self.n):
            raise ValueError(f"cell {r, c} not in the {self.m}x{self.n} array")
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"symbol {value!r} must be a non-negative int")
        self.values[r][c] = value
        self.erased[r][c] = False

    @property
    def erasure_count(self) -> int:
        return sum(flag for row in self.erased for flag in row)

    def erased_positions(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.m) for c in range(self.n)
                if self.erased[r][c]]

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
    """A copy of ``arr`` with the cells ``positions``, (row, column)
    pairs, erased; ``ValueError`` on a position that is not a pair of
    ints in range, negative ones included."""
    out = arr.copy()
    for pos in positions:
        try:
            r, c = pos
        except (TypeError, ValueError):
            raise ValueError(f"{pos!r} is not a (row, column) pair") from None
        out.erase(r, c)
    return out


class ErasureProfile(NamedTuple):
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


class _RowCode(LinearCode):
    """A level's row code: check rows alpha^(r*j) for r < u over the
    nodes z_j = alpha^j, a Reed-Solomon code.  Its erasures solve in
    closed form, so it holds no plan and never eliminates.  Given
    ``batch`` rows, the most that :meth:`fill_rows` takes at once, it
    builds the fold of its batch syndrome: check r of a row is its power
    sum with base alpha^r = z_r."""

    def __init__(self, check_matrix: Matrix, nodes: Sequence[int],
                 batch: int = 0):
        super().__init__(check_matrix)
        self.nodes = nodes
        if batch:
            self.fold = Fold(self.field, self.length, 1,
                             nodes[:check_matrix.rows], batch)

    def solve_syndrome(self, syndrome: list[int], erased: tuple[int, ...],
                       block: int = 1) -> list[int]:
        """:meth:`LinearCode.solve_syndrome` in closed form: the erased
        symbols x solve sum_k x_k z_k^r = s_r over the nodes z_k of the
        erased columns, a Vandermonde system that
        :func:`~gpcodes.linalg.solve_vandermonde` solves by Bjorck and
        Pereyra's dual algorithm in O(e^2) field operations for e erased
        columns, checking the other u - e syndrome symbols.  It raises
        :class:`NoSolutionError` on a difference, and
        :class:`~gpcodes.linalg.UnderdeterminedError` on more than u
        erasures, as the generic solve does, and blocks over w > 8
        ``ValueError`` first, from linalg's block rule.
        """
        nodes = self.nodes
        return solve_vandermonde(self.field, [nodes[c] for c in erased],
                                 syndrome, block)


class _View(NamedTuple):
    """What gpc keeps per params."""

    params: GpcParams
    levels: list[_RowCode]      # row codes 0..t-1 (level t is zero)
    col_params: GpcParams | None   # None when k = m
    encoder: PlanSlot           # of an _Encoder
    dim: int                    # K, the data symbols per array
    budgets: tuple[int, ...]    # params.erasure_budgets()
    powers: list[list[int]]     # alpha^(r * j) for r, j < m
    combos: Fold                # the row combinations r < s_hat(1)
    parity: tuple[tuple[bool, ...], ...]   # params.parity_positions() as flags


# Views by params, least recently used evicted first: at most 16
# entries, each an encoder (split tables of at most 2 MiB; see
# linalg.MAP_BYTES_LIMIT) and t row codes of length n, which hold their
# check rows and syndrome map and no plan.
_VIEW_LIMIT = 16
_VIEWS: dict[GpcParams, _View] = {}


def _level_checks(params: GpcParams) -> list[Matrix]:
    # Check matrices of the row codes 0..t-1, after validating params;
    # callers that run no compiled map use these and evict no view.
    params.check()
    return [component_parity_check(params, i) for i in range(params.t)]


def _view(params: GpcParams) -> _View:
    # Built once per params, which it validates (so an invalid params
    # never enters the cache); callers must not modify the level codes.
    # A params equal to the cached one but not it has its types checked:
    # a count of another type, n = 7.0 or a bool, compares equal to the
    # int, and the cached params has passed every other rule.
    def build() -> _View:
        checks = _level_checks(params)
        f, m, n = params.field, params.m, params.n
        nodes = [f.alpha_pow(j) for j in range(max(m, n))]
        parity = params.parity_positions()
        return _View(params, [_RowCode(h, nodes[:n], 0 if i else m)
                              for i, h in enumerate(checks)],
                     params.transposed() if params.k < params.m else None,
                     PlanSlot(), params.dimension(), params.erasure_budgets(),
                     vandermonde(f, nodes[:m], m).data,
                     Fold(f, m, n, nodes[:params.s_hat(1)]),
                     tuple(tuple((r, c) in parity for c in range(n))
                           for r in range(m)))
    view = recall(_VIEWS, params, _VIEW_LIMIT, build)
    if params is not view.params and (bad := params._type_violations()):
        raise ValueError("; ".join(bad))
    return view


def full_parity_matrix(params: GpcParams) -> Matrix:
    """All defining constraints, stacked over flattened (row-major) arrays.

    Contains one block per array row for the weakest row code and one
    Kronecker block per deeper level, the vanishing combinations (level
    t) last.  Rows may be redundant; the rank always equals m*n minus
    the dimension.
    """
    f = params.field
    checks = _level_checks(params) + [Matrix.identity(f, params.n)]
    row_nodes = [f.alpha_pow(j) for j in range(params.m)]
    blocks = [kron(Matrix.identity(f, params.m), checks[0])]
    for i in range(1, params.t + 1):
        if params.s_hat(i):   # level t is empty when k = m
            weights = vandermonde(f, row_nodes, params.s_hat(i))
            blocks.append(kron(weights, checks[i]))
    return vstack(blocks)


def _check_shape(arr: SymbolArray, m: int, n: int) -> None:
    # The one shape check of an array against a code's m x n.
    if (arr.m, arr.n) != (m, n):
        raise ValueError(f"array is {arr.m}x{arr.n}, code expects {m}x{n}")


def _flip(erased: list[tuple], width: int) -> list[tuple]:
    # The transpose of a pattern: for each of the ``width`` columns, its
    # erased rows.
    flipped: list[list[int]] = [[] for _ in range(width)]
    for r, cols in enumerate(erased):
        for c in cols:
            flipped[c].append(r)
    return list(map(tuple, flipped))


def is_member(arr: SymbolArray, params: GpcParams) -> bool:
    """Exact membership test by direct syndrome evaluation.

    Every row's level-0 checks are one batch fill of no erasures,
    :meth:`~gpcodes.linalg.LinearCode.fill_rows`, which raises when a
    row's syndrome does not vanish; each row combination r < s_hat(1),
    row j weighted by alpha^(r*j), is one power sum of the view's
    :class:`~gpcodes.linalg.Fold` with base alpha^r, and goes through the
    syndrome of the deepest level it lies in (budget r is its strength;
    level t's is zero).  The levels nest, so that check implies the
    shallower ones.  Both read the rows as slices of what the field's
    range check returned, so each symbol is converted once.  Raises
    ``ValueError`` when a symbol lies outside [0, 2^w).
    """
    view = _view(params)
    _check_shape(arr, params.m, params.n)
    if any(True in flags for flags in arr.erased):
        raise ValueError("membership is undefined for arrays with erasures")
    cells = params.field.check_symbols(chain.from_iterable(arr.values),
                                       "symbol")
    n = params.n
    rows = [cells[i:i + n] for i in range(0, len(cells), n)]
    try:
        view.levels[0].fill_rows(rows, {(): range(params.m)})
    except NoSolutionError:
        return False
    for r, combo in enumerate(view.combos.sums(rows)):
        level = bisect_left(params.u, view.budgets[r])
        if any(view.levels[level].syndrome(combo) if level < params.t
               else combo):
            return False
    return True


class DecodeTrace:
    """Optional record of the row decoder's internal steps, taken from
    its plan as the steps run: a contradiction leaves the steps before
    it."""

    def __init__(self):
        self.row_order: tuple[int, ...] = ()
        self.counts: tuple[int, ...] = ()
        self.system: Matrix | None = None
        # (profile position, row index, level used; None = vanishing combo)
        self.steps: list[tuple[int, int, int | None]] = []


# Empty: nothing fills it.  Each plan holds the systems it triangulated,
# so _PLANS is gpc's one pattern cache.  perfbench/worker.py still
# clears and counts this dict; ROADMAP item 2 removes the name.
_TRIANGULATION_CACHE: dict[tuple, Matrix] = {}


def _triangulated_system(view: _View, order: tuple[int, ...],
                         nsys: int) -> Matrix:
    # The power-weight matrix of the rows ``order``, entry (r, j) =
    # alpha^(r * order[j]) for r < nsys, picked from the view's powers,
    # in row echelon form.  That is the Newton basis over the distinct
    # nodes x_j = alpha^order[j]: row p, entry j is the product over
    # i < p of (x_j + x_i) / (x_p + x_i), so no weight past the pivot
    # is zero.
    return row_reduce(Matrix._fresh(view.params.field, [
        [row[j] for j in order] for row in view.powers[:nsys]]))


class _Pass(NamedTuple):
    """One row pass of a plan, over rows (or, in a column pass, the
    columns) of the code ``params``."""

    params: GpcParams
    groups: dict[tuple[int, ...], list[int]]  # local fills; never modified
    order: tuple[int, ...]          # the profile the local fills leave
    counts: tuple[int, ...]
    system: Matrix | None = None    # None: the profile exceeds the budgets
    # The pivots in peel order, each (p, row, erased columns, level,
    # weights, rows): the row at profile position p repairs in ``level``
    # (None for a vanishing combination) against the sum of ``rows``, the
    # rows after p, each times its weight past p in the system, which is
    # never zero (see _triangulated_system).  A vanishing combination's
    # row must equal that sum; any other pivot row plus the sum is a word
    # of its level once filled.
    peel: tuple[tuple, ...] = ()


class _Plan(NamedTuple):
    """A decode's every decision, read from the erasure mask alone.

    Each pass fills its rows within reach of the weakest row code, clean
    rows included, as one batch grouped by erased columns
    (:meth:`~gpcodes.linalg.LinearCode.fill_rows`).  When the profile
    fits the budgets it then peels the rest off the triangulated system,
    each pivot row against the sum of its known rows
    (:func:`~gpcodes.linalg.combine`): each of the m - k vanishing
    combinations compares its pivot row, erased or not, with that sum,
    and every other pivot fills the pivot row plus the sum in its level
    (:meth:`~gpcodes.linalg.LinearCode.fill`) and takes the sum back
    out of the filled cells.  Built by
    :func:`_plan` on a cache miss; :func:`_execute` runs it, raising on
    the first contradiction a solve or comparison meets.
    """

    erased: tuple[tuple[int, ...], ...]  # each row's erased columns
    passes: tuple[_Pass, ...]       # row passes even, column passes odd
    left: int                       # cells the last row pass left
    mask: tuple[tuple[bool, ...], ...]   # the cells left erased


# Plans by (params, iterate, mask rows as bytes), under probation
# (linalg.admit): a pattern's first plan waits among the few newest
# first sightings, and its second sighting there moves that plan into
# this LRU, least recently used evicted first.  So a repeated loss plans
# once and then hits, and patterns seen once, as a scrub's are, leave
# the LRU empty: their plans are freed a few decodes later, before the
# garbage collector has walked them many times.  Each entry holds its
# pattern's tuples and the systems it triangulated.
_PLAN_LIMIT = 64
_PLANS: dict[tuple, _Plan] = {}
_PLAN_PROBATION: dict[tuple, _Plan] = {}


def _plan_for(view: _View, mask: Sequence[Sequence[bool]],
              iterate: bool) -> _Plan:
    # The plan of a decode of the rows whose erased cells are flagged in
    # ``mask`` (of the code's shape), from the cache when it holds one.
    return admit(_PLANS, _PLAN_PROBATION,
                 (view.params, iterate, tuple(map(bytes, mask))),
                 _PLAN_LIMIT, lambda: _plan(view, mask, iterate))


def _plan(view: _View, mask: Sequence[Sequence[bool]],
          iterate: bool) -> _Plan:
    # The row pass and, with ``iterate``, the alternation that follows:
    # k = m leaves no column view (see GpcParams.transposed), and an
    # alternation whose column pass fills nothing leaves a state the row
    # pass cannot change either, so it stops there.
    params = view.params
    span = range(params.n)
    erased = [tuple(compress(span, flags)) for flags in mask]
    work, passes = list(erased), []
    while (left := _plan_pass(view, work, passes)) and \
            iterate and view.col_params is not None:
        col_erased = _flip(work, params.n)
        after = _plan_pass(_view(view.col_params), col_erased, passes)
        work = _flip(col_erased, params.m)
        if not 0 < after < left:
            break
    clean = (False,) * params.n
    return _Plan(tuple(erased), tuple(passes), left, tuple(
        tuple([c in cols for c in span]) if cols else clean for cols in work)
        if left else (clean,) * params.m)


def _plan_pass(view: _View, erased: list[tuple],
               passes: list[_Pass]) -> int:
    # The decisions of one row pass over rows with the erased columns
    # ``erased``, appended to ``passes``: fill every row within reach of
    # the weakest row code, clean rows included, then, if the profile
    # fits the budgets, peel the rest, taking each of the m - k
    # vanishing combinations, pivot row erased or not.  A row that the
    # pass fills gets (); returns the cells left, 0 after a peel.
    params = view.params
    groups: dict[tuple[int, ...], list[int]] = {}
    for r, cols in enumerate(erased):
        if len(cols) <= params.u[0]:
            groups.setdefault(cols, []).append(r)
            erased[r] = ()
    lens = list(map(len, erased))
    left = sum(lens)
    # The profile: rows by erasure count, descending, ties by index
    # (the sort is stable).
    m, k = params.m, params.k
    order = tuple(sorted(range(m), key=lens.__getitem__, reverse=True))
    counts = tuple(map(lens.__getitem__, order))
    if any(map(gt, counts, view.budgets)):
        passes.append(_Pass(params, groups, order, counts))
        return left
    nsys = max(m - k, m - counts.count(0))
    reduced = _triangulated_system(view, order, nsys)
    peel = []
    for p in range(nsys - 1, -1, -1):
        row_idx = order[p]
        cols = erased[row_idx]
        # A vanishing combination's row equals the known part (None);
        # else counts[p] is within budget p, the deepest level p lies
        # in, so the weakest level that covers it is one p lies in too.
        level = None if p < m - k else bisect_left(params.u, counts[p])
        peel.append((p, row_idx, cols, level, reduced.data[p][p + 1:],
                     order[p + 1:]))
        erased[row_idx] = ()
    passes.append(_Pass(params, groups, order, counts, reduced, tuple(peel)))
    return 0


def _execute(plan: _Plan, view: _View, values: list[list[int]],
             block: int = 1,
             trace: DecodeTrace | None = None) -> list[list[int]]:
    # Run ``plan`` on the rows ``values`` of ``view``'s code, whose
    # erased cells hold 0; a column pass runs on the transposed rows.
    # Each cell holds a symbol, or with ``block`` L > 1 a block of L
    # symbols, one per array repaired at once.  Returns the rows, filled
    # where the plan fills them; survivors that contradict a check raise
    # NoSolutionError.
    for i, step in enumerate(plan.passes):
        if i % 2:
            values = list(map(list, zip(*values)))
            _execute_pass(step, _view(view.col_params).levels, values, block)
            values = list(map(list, zip(*values)))
        else:
            _execute_pass(step, view.levels, values, block, trace)
    return values


def _execute_pass(step: _Pass, levels: list[_RowCode],
                  values: list[list[int]], block: int,
                  trace: DecodeTrace | None = None) -> None:
    # One planned row pass in place, with the pass's row codes ``levels``.
    levels[0].fill_rows(values, step.groups, block)
    if step.system is None:
        return
    if trace is not None:
        trace.row_order, trace.counts = step.order, step.counts
        trace.system = step.system
    # Each row's form, which combine reads, is taken once and retaken
    # only when a pivot fills the row.
    f, n = step.params.field, step.params.n
    form = row_form(f, block)
    forms = list(map(form, values))
    for p, row_idx, cols, level, gamma, rows in step.peel:
        known = combine(f, zip(gamma, map(forms.__getitem__, rows)), n, block)
        row = values[row_idx]
        if level is None:
            for c in cols:
                row[c] = known[c]
            if row != known:
                raise NoSolutionError("inconsistent system")
        else:
            # The code fills row + known, whose erased symbols it
            # ignores, so known goes back into the filled cells.  The
            # solution is unique (Vandermonde columns).
            word = [a ^ b for a, b in zip(row, known)]
            levels[level].fill(word, cols, block)
            for c in cols:
                row[c] = word[c] ^ known[c]
        if cols:
            forms[row_idx] = form(row)
        if trace is not None:
            trace.steps.append((p, row_idx, level))


def _decode(arr: SymbolArray, params: GpcParams, iterate: bool,
            trace: DecodeTrace | None = None) -> tuple[SymbolArray, _Plan]:
    # The decode shared by decode_rows and decode_iterative
    # (``iterate``): the array and its plan.  The work is a copy of each
    # row with its erased cells zeroed, and every survivor must lie in
    # the field.
    view = _view(params)
    _check_shape(arr, params.m, params.n)
    plan = _plan_for(view, arr.erased, iterate)
    values = [vals[:] for vals in arr.values]
    for row, cols in zip(values, plan.erased):
        for c in cols:
            row[c] = 0
    params.field.check_symbols(chain.from_iterable(values), "survivor")
    try:
        values = _execute(plan, view, values, trace=trace)
    except NoSolutionError as exc:
        raise ContradictionError(f"row solve failed: {exc}",
                                 frozenset(arr.erased_positions())) from exc
    return SymbolArray._masked(values, list(map(list, plan.mask)),
                               zero=False), plan


def decode_rows(arr: SymbolArray, params: GpcParams,
                trace: DecodeTrace | None = None) -> SymbolArray:
    """Single-pass erasure decoder working row by row.

    Runs one planned row pass (see :class:`_Plan`): rows within reach of
    the weakest row code repair locally, then, when the profile fits the
    budgets, the rest peel off the triangulated power-weight system, each
    pivot in the weakest level that covers its count.  The plan is read
    from ``arr``'s mask alone and cached, so a repeated loss only runs
    the fills.  Every row is checked against the weakest row code, and a
    code with k < m applies each of its m - k vanishing combinations,
    even when the local repairs leave nothing erased or a combination's
    pivot row has none; past level 0 a k = m code checks only the
    combinations its solves use.  ``arr`` is left unchanged, and
    ``trace`` records the plan's profile, system and steps as they run.

    Raises ``ValueError`` when a survivor lies outside [0, 2^w), and
    :class:`UncorrectableError` when the sorted profile exceeds the
    guaranteed budgets (``remaining``: the cells left after the local
    repairs), or its :class:`ContradictionError` when surviving
    symbols contradict a row code (``remaining``: every erased cell of
    ``arr``).
    """
    work, plan = _decode(arr, params, iterate=False, trace=trace)
    if plan.left:
        step = plan.passes[0]
        bad = [(c, r) for c, r in zip(step.counts, step.order) if c]
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
    returned with its remaining erasures still masked.  Its plan (see
    :class:`_Plan`) holds every pass of the alternation, read from the
    mask alone and cached like those of :func:`decode_rows`, whose
    checks each of its row passes applies.
    A survivor outside [0, 2^w) raises ``ValueError``, and survivors that
    contradict the checks raise :class:`ContradictionError` naming every
    erased cell of ``arr``.
    """
    return _decode(arr, params, iterate=True)[0]


class _Encoder(NamedTuple):
    """A compiled gpc encoder as its slot holds it."""

    parity: SplitMap    # the K data symbols to the P parity symbols
    rows: list[Callable[[list[int]], tuple[int, ...]]]  # cells of each row


def _compile_encoder(view: _View) -> _Encoder:
    # The parity of the flat array as split tables over the data cells,
    # whose column j holds the parity of the unit data vector at j.  One
    # row pass over blocks of N = m * n bytes finds every column at once:
    # data cell j holds the block whose byte j is 1, so parity cell t's
    # block, as N bytes, is the map's row t over the whole word, and
    # column j is byte j of every row.  One itemgetter per array row
    # picks the row's symbols from the data followed by the parity,
    # cells in row-major order both (n >= 2, so each picks a tuple).
    params = view.params
    size, n = params.m * params.n, params.n
    cells = list(chain.from_iterable(view.parity))
    data = [j for j, p in enumerate(cells) if not p]
    targets = [j for j, p in enumerate(cells) if p]
    word = _encode_pass([1 << 8 * j for j in data], view, size).flatten()
    joined = b"".join(word[t].to_bytes(size, "little") for t in targets)
    where = {j: i for i, j in enumerate(data + targets)}
    return _Encoder(SplitMap(params.field, [joined[j::size] for j in data]),
                    [itemgetter(*(where[j] for j in range(r, r + n)))
                     for r in range(0, size, n)])


def _encode_pass(data: Sequence[int], view: _View,
                 block: int = 1) -> SymbolArray:
    # The reference encoder: data fills the non-parity cells in row-major
    # order and one planned row pass recovers the parity cells, which
    # always sit inside the budgets with no survivor to contradict.
    it = iter(data)
    plan = _plan_for(view, view.parity, False)
    if plan.left:
        raise AssertionError("parity cells outside the decodable budgets")
    values = [[0 if flag else next(it) for flag in flags]
              for flags in view.parity]
    return SymbolArray(_execute(plan, view, values, block))


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
                            lambda: _compile_encoder(view))
    if enc is None:
        return _encode_pass(data, view)
    symbols = [*data, *enc.parity.image(data)]
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
    rows, cols = _tuple("rows", rows), _tuple("cols", cols)
    if not all(isinstance(x, int) for x in (level, *rows, *cols)):
        raise ValueError("level, rows and columns must be ints")
    rows, cols = sorted(rows), sorted(cols)
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
