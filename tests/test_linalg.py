"""Tests for matrices, elimination, solving and Kronecker products."""

import random

import pytest

from gpcodes.epc import build_h2
from gpcodes.fields import default_field
from gpcodes.gpc import component_parity_check
from gpcodes.linalg import (LinearCode, Matrix, NoSolutionError, PlanSlot,
                            UnderdeterminedError, kron, null_space, rank,
                            row_reduce, solve, vandermonde, vstack)
from test_gpc import G16

F16 = default_field(4)
F8 = default_field(3)


def rand_matrix(field, rows, cols, rng):
    top = 1 << field.w
    return Matrix(field, [[rng.randrange(top) for _ in range(cols)]
                          for _ in range(rows)])


def test_matrix_basics():
    m = Matrix(F16, [[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.data[1][0] == 3
    assert m.submatrix(rows=[0, 2], cols=[1]).data == [[2], [6]]
    with pytest.raises(ValueError):
        Matrix(F16, [[1, 2], [3]])


def test_identity_and_matmul():
    rng = random.Random(11)
    a = rand_matrix(F16, 3, 4, rng)
    eye3 = Matrix.identity(F16, 3)
    eye4 = Matrix.identity(F16, 4)
    assert eye3.matmul(a).data == a.data
    assert a.matmul(eye4).data == a.data
    # (AB)v == A(Bv)
    b = rand_matrix(F16, 4, 5, rng)
    v = [rng.randrange(16) for _ in range(5)]
    assert a.matmul(b).mul_vec(v) == a.mul_vec(b.mul_vec(v))


def test_vstack():
    a = Matrix(F16, [[1, 2]])
    b = Matrix(F16, [[3, 4], [5, 6]])
    assert vstack([a, b]).data == [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ValueError):
        vstack([a, Matrix(F16, [[1, 2, 3]])])


def test_row_reduce_transform_identity():
    """row_reduce returns (r, t) with t @ m == r for random matrices."""
    rng = random.Random(23)
    for trial in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = rand_matrix(F16, rows, cols, rng)
        r, t = row_reduce(m)
        assert t.matmul(m).data == r.data
        # echelon shape: pivot columns strictly increase, pivots are 1
        last = -1
        for row in r.data:
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is None:
                continue
            assert lead > last
            assert row[lead] == 1
            last = lead


def test_row_reduce_keeps_triangular_structure():
    # On a matrix with nonsingular leading minors no swaps happen, so the
    # result is unit upper triangular and the transform lower triangular.
    nodes = [F8.alpha_pow(j) for j in [1, 4, 2, 3, 0, 5]]
    vm = vandermonde(F8, nodes, 4)
    r, t = row_reduce(vm)
    for i in range(4):
        assert r.data[i][i] == 1
        for j in range(i):
            assert r.data[i][j] == 0
            assert t.data[j][i] == 0  # transform stays lower triangular


def test_rank():
    assert rank(Matrix.identity(F16, 5)) == 5
    assert rank(Matrix.zeros(F16, 3, 4)) == 0
    m = Matrix(F16, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])  # row1 = 2*row0
    assert rank(m) == 2
    rng = random.Random(5)
    for _ in range(20):
        a = rand_matrix(F16, 4, 3, rng)
        assert rank(a) == rank(Matrix(F16, list(zip(*a.data))))


def test_solve_unique():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        # random invertible matrix via random assembly + rank check
        while True:
            a = rand_matrix(F16, n, n, rng)
            if rank(a) == n:
                break
        x = [rng.randrange(16) for _ in range(n)]
        assert solve(a, a.mul_vec(x)) == x


def test_solve_overdetermined_consistent():
    a = Matrix(F16, [[1, 0], [0, 1], [1, 1]])
    assert solve(a, [3, 5, 6]) == [3, 5]
    with pytest.raises(NoSolutionError):
        solve(a, [3, 5, 7])


def test_solve_underdetermined():
    a = Matrix(F16, [[1, 2, 3]])
    with pytest.raises(UnderdeterminedError):
        solve(a, [4])


def test_null_space():
    rng = random.Random(29)
    for _ in range(25):
        m = rand_matrix(F16, rng.randint(1, 5), rng.randint(1, 6), rng)
        basis = null_space(m)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            assert not any(m.mul_vec(vec))
        # basis vectors are independent: stack and re-rank
        if basis:
            assert rank(Matrix(F16, basis)) == len(basis)


def test_vandermonde_values_and_validation():
    nodes = [F8.alpha_pow(j) for j in range(4)]
    vm = vandermonde(F8, nodes, 3)
    for r in range(3):
        for j in range(4):
            assert vm.data[r][j] == F8.pow(nodes[j], r)
    # square Vandermonde on distinct nonzero nodes is invertible
    assert rank(vandermonde(F8, nodes, 4)) == 4
    with pytest.raises(ValueError):
        vandermonde(F8, [1, 2, 1], 2)     # repeated node
    with pytest.raises(ValueError):
        vandermonde(F8, [0, 1], 2)        # zero node


def test_kron_shape_and_values():
    a = Matrix(F16, [[1, 2], [3, 4]])
    b = Matrix(F16, [[5, 6, 7]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 6)
    for i in range(2):
        for j in range(2):
            for x in range(1):
                for y in range(3):
                    assert k.data[i * 1 + x][j * 3 + y] == \
                        F16.mul(a.data[i][j], b.data[x][y])


def test_kron_mixed_product():
    # (A kron B)(C kron D) == AC kron BD
    rng = random.Random(41)
    a = rand_matrix(F16, 2, 3, rng)
    b = rand_matrix(F16, 2, 2, rng)
    c = rand_matrix(F16, 3, 2, rng)
    d = rand_matrix(F16, 2, 3, rng)
    left = kron(a, b).matmul(kron(c, d))
    right = kron(a.matmul(c), b.matmul(d))
    assert left.data == right.data


def test_kron_single_parity_product_code():
    """Row-major flattening convention pinned by a 2x3 product code.

    One overall row-sum check kron'd with per-row identity gives column
    sums; identity kron'd with the all-ones row gives row sums.
    """
    ones_m = Matrix(F16, [[1, 1]])
    ones_n = Matrix(F16, [[1, 1, 1]])
    col_checks = kron(ones_m, Matrix.identity(F16, 3))
    row_checks = kron(Matrix.identity(F16, 2), ones_n)
    word = [1, 2, 3, 1, 2, 3]  # two equal rows: all column sums vanish
    assert col_checks.mul_vec(word) == [0, 0, 0]
    assert row_checks.mul_vec(word) == [0, 0]
    word2 = [1, 2, 3, 4, 5, 6]
    assert col_checks.mul_vec(word2) == [5, 7, 5]
    assert row_checks.mul_vec(word2) == [0, 7]


# ------------------------------------------------------- LinearCode.fill

def _g16_level_1():
    return LinearCode(G16.field, G16.n, component_parity_check(G16, 1))


def _written(word, positions, symbols):
    """``word`` with ``symbols`` written at ``positions``."""
    out = list(word)
    for j, v in zip(positions, symbols):
        out[j] = v
    return out


@pytest.mark.parametrize("compiled", [False, True], ids=["solve", "plan"])
@pytest.mark.parametrize("build, erased",
                         [(_g16_level_1, (3, 17, 29)),
                          (lambda: build_h2(3, 3), (0, 4))],
                         ids=["G16_level_1", "h2(3,3)"])
def test_fill_ignores_the_erased_symbols(build, erased, compiled):
    """Whatever the erased positions hold, fill writes the one codeword
    that agrees with the survivors; a contradicting survivor raises."""
    rng = random.Random(151)
    code = build()
    h, top = code.check_matrix, 1 << code.field.w
    parity = code.parity_positions()
    word = [0 if j in parity else rng.randrange(top)
            for j in range(code.length)]
    code.fill(word, parity)
    assert not any(h.mul_vec(word))
    code._plans.clear()
    garbage = [rng.randrange(top) for _ in erased]
    flipped = list(word)
    flipped[next(j for j in range(code.length) if j not in erased)] ^= 1
    cases = [(word, word), (_written(word, erased, [0] * len(erased)), word),
             (_written(word, erased, garbage), word),
             (_written(flipped, erased, garbage), NoSolutionError)]
    for values, expected in cases:
        if compiled:
            slot = PlanSlot()
            slot.uses = len(erased)      # this use compiles the plan
            code._plans[erased] = slot
        else:
            code._plans.clear()          # a first use: the scalar solve
        out = list(values)
        if expected is NoSolutionError:
            with pytest.raises(NoSolutionError):
                code.fill(out, erased)
        else:
            code.fill(out, erased)
            assert out == expected
        assert (code._plans[erased].map is not None) == compiled

