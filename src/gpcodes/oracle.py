"""Independent ground truth for codes given by a parity-check matrix.

Correctability of an erasure pattern and exact minimum distance are
both column-rank statements about the check matrix, so everything here
works directly on matrices and never consults the structured decoders
or their compiled maps.  :func:`correctable` takes the rank of the
erased columns as rows, the transpose of their submatrix, so that one
elimination of |E| short rows settles a pattern.
The distance search enumerates column subsets in colexicographic order,
maintaining an incremental GF(2) elimination state: a GF(2^w) column is
expanded into its w binary multiples, each packed into one int, which
makes dependence checks a handful of XORs.  The column's symbols sit in
w-bit lanes of one int, and each next multiple by x doubles every lane
at once, a shift and one reduction by the modulus, with no field
multiplication.  It first certifies that no set below the cap is
dependent with one pass just under it, descending whenever a pass meets
a dependent set, and then finds the colex-least dependent set of
minimum size, so results are reproducible.  Sets that
lie within an independent run of leading columns are certified in
bulk rather than one by one, and a search node with two columns left
reads that run off its parent's pivots with no insertion of its own
(see :func:`brute_min_distance`).

A pass that would certify by walking all C(n, s) subsets of its size s
can instead be settled from the code's generator, which
:func:`~gpcodes.linalg.null_space` gives, when that takes fewer
candidates.  With g disjoint information sets and g(t + 1) > s, every
nonzero codeword of weight <= s has weight <= t on one of them, so
enumerating each set's messages of weight <= t, one of each set of
scalar multiples, either meets a codeword of weight <= s or proves that none
exists (Grassl, "Searching for linear codes with large minimum
distance", 2006).
"""

from __future__ import annotations

import random
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .fields import GF, _check_int
from .linalg import Matrix, _eliminate, _work_rows, null_space, rank, solve
from . import gpc as _gpc

DEFAULT_BUDGET = 10_000_000


class SearchBudgetError(RuntimeError):
    """The requested exhaustive search exceeds the subset budget."""


class DistanceCapError(RuntimeError):
    """No dependent column set exists within the requested size cap."""


def correctable(positions: Iterable[int], check_matrix: Matrix) -> bool:
    """Whether an erasure pattern is recoverable under the given checks.

    True exactly when the selected columns are linearly independent,
    that is when the submatrix H_E of the erased columns has rank |E|.
    Rank does not change under transposition, so the one :func:`rank`
    runs on the transpose of H_E, one row per erased column built
    straight from the check matrix's rows: at most |E|(|E| - 1)/2 row
    updates of R symbols for R check rows, and the elimination stops at
    the |E|-th pivot.
    """
    cols = set(positions)
    if not all(isinstance(c, int) and 0 <= c < check_matrix.cols
               for c in cols):
        raise ValueError("position out of range")
    if not cols:
        return True
    data = check_matrix.data
    return rank(Matrix._fresh(check_matrix.field, [
        [row[c] for row in data] for c in sorted(cols)])) == len(cols)


class DistanceReport(NamedTuple):
    distance: int
    witness: tuple[int, ...]
    subsets_examined: int


def _row_basis(m: Matrix) -> list[Sequence[int]]:
    work = _work_rows(m.field, m.data)
    return work[:len(_eliminate(work, m.field, range(m.cols), full=False))]


def _lane_multiples(v: int, field: GF, ones: int) -> list[int]:
    # The multiples of v, whose symbols sit in w-bit lanes, by the
    # field's GF(2) basis 1, x, ..., x^(w-1), lane by lane; ``ones`` has
    # bit 0 of each lane set.  Doubling shifts each lane's low w - 1
    # bits up one place and adds the modulus's low terms to every lane
    # whose top bit it dropped.
    w = field.w
    keep = ones * ((1 << w - 1) - 1)
    low = field.modulus ^ 1 << w
    out = [v]
    for _ in range(w - 1):
        v = ((v & keep) << 1) ^ ((v >> w - 1) & ones) * low
        out.append(v)
    return out


def _column_expansions(basis: list[Sequence[int]], field: GF,
                       n: int) -> list[list[int]]:
    # Column j's expansions by the field's GF(2) basis: its symbols in
    # the rows of ``basis`` packed into one int, row r in the w-bit lane
    # at bit r * w, then its multiples by x.
    w = field.w
    ones = sum(1 << r * w for r in range(len(basis)))
    packed = [0] * n
    for r, row in enumerate(basis):
        shift = r * w
        packed = [v | s << shift for v, s in zip(packed, row)]
    return [_lane_multiples(v, field, ones) for v in packed]


def _information_sets(check_matrix: Matrix, k: int) -> list[list[int]]:
    # Disjoint information sets of the code of dimension k >= 0, taken
    # greedily in column order from the generator that null_space gives,
    # at most floor(n / k) of them (one, empty, when k = 0).  Each comes
    # as the k rows of the generator systematic on it, row i holding 1
    # at the set's i-th column and 0 at its others, each row packed into
    # one int, column j in the w-bit lane at bit j * w.
    field, n = check_matrix.field, check_matrix.cols
    w = field.w
    gen = _work_rows(field, null_space(check_matrix))
    left = list(range(n))
    sets = []
    for _ in range(n // k if k else 1):
        rows = list(gen)
        chosen = _eliminate(rows, field, left, full=True)
        if len(chosen) < k:
            break
        sets.append([sum(v << j * w for j, v in enumerate(row))
                     for row in rows])
        left = [c for c in left if c not in chosen]
    return sets


def _certificate_pays(k: int, w: int, sets: int, n: int, size: int) -> bool:
    # The cost rule: the certificate runs when it enumerates fewer
    # messages than a pass of ``size`` walks column subsets.  On each of
    # ``sets`` information sets it enumerates the C(k, i) (q - 1)^(i - 1)
    # projective messages of each weight i <= size // sets.
    q = 1 << w
    return sets * sum(comb(k, i) * (q - 1) ** (i - 1)
                      for i in range(1, min(size // sets, k) + 1)) \
        < comb(n, size)


def _nonzero_multiples(v: int, field: GF, ones: int) -> list[int]:
    # The multiples a v for a = 1, ..., q - 1, lane by lane: with x^i
    # the lowest term of a, a v is (a + x^i) v XOR v x^i, which
    # _lane_multiples gives.
    basis = _lane_multiples(v, field, ones)
    mult = [0] * (1 << field.w)
    for a in range(1, len(mult)):
        bit = a & -a
        mult[a] = mult[a ^ bit] ^ basis[bit.bit_length() - 1]
    return mult[1:]


def _certify(sets: list[list[int]], field: GF, n: int, size: int) -> bool:
    # Whether no nonzero codeword has weight <= size, from g disjoint
    # information sets (see _information_sets).  Such a codeword has
    # weight <= t = size // g on one of them, as g (t + 1) > size, and it
    # is the codeword of its message there.  So it is met among each
    # set's messages of weight <= t, one of each set of scalar multiples:
    # those whose first nonzero symbol is 1.  A codeword is the XOR of
    # its message's row multiples, all q - 1 of each row precomputed.
    # Its weight is one popcount: the top bit of each w-bit lane serves
    # as the lane's guard, set when the lane's top bit is, or when the
    # lane's low bits, plus all ones, carry into it.
    w = field.w
    ones = sum(1 << j * w for j in range(n))
    lows = ones * ((1 << w - 1) - 1)
    tops = ones << w - 1
    depth = size // len(sets)
    for rows in sets:
        multiples = ([_nonzero_multiples(row, field, ones) for row in rows]
                     if depth > 1 else [])

        def meets(acc: int, first: int, more: int) -> bool:
            # Whether acc XOR at most ``more`` row multiples, one each of
            # rows ``first`` on, has weight <= size; with acc = 0 the
            # first row is taken as it is.
            for r in range(first, len(rows)):
                word = multiples[r] if acc else (rows[r],)
                if min([((((x := acc ^ m) & lows) + lows | x) & tops)
                        .bit_count() for m in word]) <= size:
                    return True
                if more > 1 and any(meets(acc ^ m, r + 1, more - 1)
                                    for m in word):
                    return True
            return False

        if depth and meets(0, 0, depth):
            return False
    return True


def search_cost(n: int, cap: int) -> int:
    """Total column subsets of size <= cap out of n."""
    return sum(comb(n, c) for c in range(1, min(cap, n) + 1))


def brute_min_distance(check_matrix: Matrix, cap: int,
                       budget: int = DEFAULT_BUDGET) -> DistanceReport:
    """Exact minimum distance by exhaustive dependent-column search.

    Supersets of dependent sets are dependent, so a complete pass over
    the subsets of size ``min(cap, n) - 1`` that meets no dependent set
    proves the distance is at least ``min(cap, n)``.  A pass that meets
    a dependent set of size p, whole or as a prefix, restarts at size
    p - 1; once a pass certifies, the next size up gives the witness,
    the colex-least dependent column set of minimum size (the support
    of a minimum-weight codeword).

    With columns P chosen so far, let the frontier L be the largest
    index with P and columns 0..L independent: every set drawn from
    0..L joined to P is then independent, and those sets come first in
    colex order.  The search finds L by inserting columns 0, 1, ...
    until one is dependent, counts the C(L + 1, k) sets of k more
    columns in bulk and walks on from column L + 1.  A node computes
    its frontier only when its parent's frontier, an upper bound on
    it, leaves room for a set.  A node with two columns left inserts
    nothing to find its frontier: its parent, with three left, tags
    each pivot of its own walk with the column that set it, and one
    reduction of the child's column against those pivots gives the
    child's frontier, c - 1 for the largest tag c it uses, or L when
    the column lies outside their span.

    A pass of size s that would certify may be settled instead by an
    information-set certificate for codes of dimension k.  It takes g
    disjoint information sets of the generator from
    :func:`~gpcodes.linalg.null_space`, with t = s // g so that
    g(t + 1) > s, and enumerates on each the projective messages of
    weight <= t: C(k, i) (q - 1)^(i - 1) of each weight i.  Each
    codeword is packed into w-bit lanes and weighed by one popcount.
    The cost rule is fixed: the certificate runs when those messages
    number fewer than the C(n, s) subsets of the pass, first estimated
    with g = n // k, an upper bound, so that a code the rule rejects
    builds nothing, then with the sets found.  When it meets no codeword
    of weight <= s, the pass counts C(n, s) subsets in bulk, as a walk
    that certifies does; when it meets one, the walk runs.  The witness
    pass always walks.  Distance, witness and ``subsets_examined`` are
    those of a search that tests every set.

    ``subsets_examined`` counts subsets tested one by one or certified
    in bulk, plus dependent prefixes met.  Pass sizes decrease until
    the last one, so it never exceeds ``search_cost(n, cap)``.  The
    work scales with C(n, cap - 1) at most, so a cap above the distance
    costs more.

    Raises ValueError unless ``check_matrix`` is a :class:`Matrix`,
    ``cap`` an int >= 1 and ``budget`` an int >= 0, a bool refused as
    either, :class:`SearchBudgetError` before doing any work if the total
    number of subsets within the cap exceeds ``budget``, and
    :class:`DistanceCapError` if every subset within the cap is
    independent.
    """
    if not isinstance(check_matrix, Matrix):
        raise ValueError("check_matrix must be a Matrix")
    _check_int("cap", cap, 1)
    _check_int("budget", budget, 0)
    n = check_matrix.cols
    cost = search_cost(n, cap)
    if cost > budget:
        raise SearchBudgetError(
            f"{cost} subsets of size <= {min(cap, n)} out of {n} exceed "
            f"the budget of {budget}; lower the cap or raise the budget")
    if n == 0:
        raise DistanceCapError("empty matrix has no columns")
    field = check_matrix.field
    w = field.w
    basis = _row_basis(check_matrix)
    colbits = _column_expansions(basis, field, n)
    # The GF(2) span of the inserted columns' expansions is closed under
    # field scalars, so a column lies in it exactly when its scalar-1
    # expansion reduces to zero.
    first = [bits[0] for bits in colbits]

    pivots = [0] * (len(basis) * w)
    examined = 0

    def insert(j: int) -> list[int] | None:
        # Returns pivot bit positions added, or None if column j is
        # dependent on the inserted ones.  Only the scalar-1 expansion can
        # vanish, so nothing has been added when that happens.
        added: list[int] = []
        for v in colbits[j]:
            while v:
                b = v.bit_length() - 1
                p = pivots[b]
                if p:
                    v ^= p
                else:
                    pivots[b] = v
                    added.append(b)
                    break
            else:
                return None
        return added

    def walk(last: int) -> tuple[int, list[int]]:
        # Inserts columns 0, 1, ... up to ``last`` until one is dependent.
        # Returns the frontier, the last column inserted, and the pivot
        # bits set, w per column in column order, for the caller to clear.
        walked: list[int] = []
        for j in range(last + 1):
            added = insert(j)
            if added is None:
                return j - 1, walked
            walked += added
        return last, walked

    def scan(need: int, hi: int, bound: int) -> tuple[int, ...] | None:
        # Walks, in colex order, the sets of ``need`` columns from 0..hi
        # joined to the inserted ones, and returns the new columns of the
        # first dependent set met, whole or as a prefix.  ``bound`` is at
        # least the frontier, the largest L <= hi for which columns 0..L
        # joined to the inserted ones are independent, and with two
        # columns left it is the frontier, or both are below 1.  Restores
        # the pivots it sets.
        nonlocal examined
        if need == 1:
            for j in range(hi + 1):
                v = first[j]
                while v:
                    p = pivots[v.bit_length() - 1]
                    if not p:
                        break
                    v ^= p
                else:
                    examined += j + 1
                    return (j,)
            examined += hi + 1
            return None
        start = need - 1
        front = min(hi, bound)
        fronts = None
        # With three columns left the walk also serves the children, so
        # it runs whenever one of them could certify a set.
        if need > 2 and front >= (1 if need == 3 else start):
            front, walked = walk(front)
            if need == 3:
                # Tag each pivot with the column that set it.  Child j's
                # frontier is c - 1 for the least c with j in the span of
                # columns 0..c joined to the inserted ones.  No two pivots
                # share a leading bit, so j is a sum of pivots in one way
                # only: c is the largest tag its reduction uses, and
                # front + 1 when j is outside the span.
                tags = [-1] * len(pivots)
                for i, b in enumerate(walked):
                    tags[b] = i // w
                fronts = []
                for j in range(max(start, front + 1), hi + 1):
                    v, c = first[j], -1
                    while v:
                        b = v.bit_length() - 1
                        p = pivots[b]
                        if not p:
                            c = front + 1
                            break
                        if tags[b] > c:
                            c = tags[b]
                        v ^= p
                    fronts.append(c - 1)
            for b in walked:
                pivots[b] = 0
        if front >= start:
            # Every set drawn from 0..front is independent, and those
            # sets come first in colex order: count them in bulk and scan
            # on from the next column.
            examined += comb(front + 1, need)
            start = front + 1
        for j in range(start, hi + 1):
            added = insert(j)
            if added is None:
                examined += 1
                return (j,)
            child = front if fronts is None else fronts[j - start]
            found = scan(need - 1, j - 1, child)
            for b in added:
                pivots[b] = 0
            if found is not None:
                return found + (j,)
        return None

    k, sets = n - len(basis), None

    def certified(size: int) -> bool:
        # Whether the information-set certificate proves a pass of
        # ``size`` free of dependent sets, tried when the cost rule
        # prefers it: first with floor(n / k) sets, an upper bound, so
        # that a code it rejects builds nothing, then with those found.
        nonlocal sets
        if not _certificate_pays(k, w, n // k if k else 1, n, size):
            return False
        if sets is None:
            sets = _information_sets(check_matrix, k)
        return (_certificate_pays(k, w, len(sets), n, size)
                and _certify(sets, field, n, size))

    # The root's exact frontier, so that a pass of two needs no walk.
    root, walked = walk(n - 1)
    for b in walked:
        pivots[b] = 0
    top = min(cap, n)
    size, witness = top - 1, None
    while size:
        if certified(size):
            # the count of a walk that meets no dependent set
            examined += comb(n, size)
            break
        found = scan(size, n - 1, root)
        if found is None:
            break
        witness = found if len(found) == size else None
        size = len(found) - 1
    # No dependent set has ``size`` columns or fewer.
    if witness is None:
        witness = scan(size + 1, n - 1, root)
        if witness is None:
            raise DistanceCapError(
                f"no dependent set of size <= {top} "
                f"({examined} subsets examined)")
    return DistanceReport(len(witness), witness, examined)


def random_decodable_pattern(params: "_gpc.GpcParams",
                             rng: random.Random) -> set[tuple[int, int]]:
    """A random erasure pattern inside the row decoder's guarantees.

    Draws a per-row budget from the sorted budget vector (assigned to
    rows by a random permutation) and a random erasure count within it,
    so every guaranteed-decodable pattern has positive probability.
    """
    budgets = params.erasure_budgets()
    rows = list(range(params.m))
    rng.shuffle(rows)
    pattern: set[tuple[int, int]] = set()
    for budget, row in zip(budgets, rows):
        count = rng.randint(0, budget)
        for c in rng.sample(range(params.n), count):
            pattern.add((row, c))
    return pattern


def _random_pattern(m: int, n: int, max_weight: int,
                    rng: random.Random) -> set[tuple[int, int]]:
    weight = rng.randint(0, max_weight)
    cells = rng.sample([(r, c) for r in range(m) for c in range(n)], weight)
    return set(cells)


class EquivalenceReport:
    def __init__(self, trials: int, seed: int):
        self.trials, self.seed = trials, seed
        self.correctable_count = self.profile_accepted_count = 0
        self.mismatches: list[str] = []


def decoder_oracle_equivalence(params: "_gpc.GpcParams", trials: int,
                               seed: int,
                               max_weight: int | None = None) -> EquivalenceReport:
    """Randomized agreement check between decoders and the rank oracle.

    Each trial draws a random codeword and an erasure pattern
    (alternating between uniform patterns up to ``max_weight`` and
    patterns sampled inside the decodable budgets) and cross-checks:
    correctable patterns must be recovered exactly by one :func:`solve`
    of the erased check-matrix columns against the survivors' syndrome,
    with no compiled map; profile-accepted patterns must also be
    recovered by the structured decoders; and whatever the iterative
    decoder fills in must match the codeword even when it stalls.
    Raises ``ValueError`` unless ``trials`` is an int >= 0.
    """
    _check_int("trials", trials, 0)
    rng = random.Random(seed)
    report = EquivalenceReport(trials=trials, seed=seed)
    h = _gpc.full_parity_matrix(params)
    f = params.field
    m, n = params.m, params.n
    dim = params.dimension()
    if max_weight is None:
        max_weight = min(params.min_distance(), m * n)

    for trial in range(trials):
        data = [rng.randrange(1 << f.w) for _ in range(dim)]
        codeword = _gpc.encode(data, params)
        if trial % 2 == 0:
            pattern = _random_pattern(m, n, max_weight, rng)
        else:
            pattern = random_decodable_pattern(params, rng)
        erased = _gpc.erase_positions(codeword, pattern)
        tag = f"trial {trial} (seed {seed}, pattern {sorted(pattern)})"
        cols = sorted(r * n + c for r, c in pattern)

        ok = correctable(cols, h)
        if ok:
            report.correctable_count += 1
            solved = erased.flatten()
            for c, v in zip(cols, solve(h.submatrix(cols=cols),
                                        h.mul_vec(solved))):
                solved[c] = v
            if solved != codeword.flatten():
                report.mismatches.append(f"{tag}: generic solve mismatch")

        profile = _gpc.ErasureProfile.from_array(erased)
        accepted = _gpc.decodable_profile(profile, params)
        if accepted:
            report.profile_accepted_count += 1
            if not ok:
                report.mismatches.append(
                    f"{tag}: profile accepted but oracle says uncorrectable")
            try:
                decoded = _gpc.decode_rows(erased, params)
            except _gpc.UncorrectableError:
                report.mismatches.append(f"{tag}: row decoder refused")
            else:
                if decoded != codeword:
                    report.mismatches.append(f"{tag}: row decoder mismatch")

        result = _gpc.decode_iterative(erased, params)
        if any(not e and v != x
               for row in zip(result.erased, result.values, codeword.values)
               for e, v, x in zip(*row)):
            report.mismatches.append(
                f"{tag}: iterative decoder wrote a wrong symbol")
        if not result.erasure_count and not ok:
            report.mismatches.append(
                f"{tag}: iterative decoder 'succeeded' on an ambiguous pattern")
    return report
