"""Exact matrices: stacking, rref, kernels, solving, determinants."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverlab import (
    QQ,
    QQI,
    BlockSystem,
    Mat,
    NoSolution,
    NotSquare,
    PrimeField,
    ShapeMismatch,
    SingularMatrix,
    WrongField,
    column_space_basis,
    complete_to_basis,
    det,
    hstack,
    block,
    inverse,
    is_invertible,
    kernel_basis,
    kron,
    random_invertible,
    random_matrix,
    rank,
    rref,
    solve_right,
    vstack,
)
from util import mat


class TestMatBasics:
    def test_identity_and_scalar(self):
        assert Mat.identity(QQ, 2) == mat(QQ, [[1, 0], [0, 1]])
        assert Mat.scalar(QQ, 2, Fraction(3)) == mat(QQ, [[3, 0], [0, 3]])

    def test_arithmetic(self):
        a = mat(QQ, [[1, 2], [3, 4]])
        b = mat(QQ, [[0, 1], [1, 0]])
        assert a + b == mat(QQ, [[1, 3], [4, 4]])
        assert a - a == Mat.zeros(QQ, 2, 2)
        assert a * b == mat(QQ, [[2, 1], [4, 3]])
        assert a.scale(Fraction(2)) == mat(QQ, [[2, 4], [6, 8]])
        assert a.transpose() == mat(QQ, [[1, 3], [2, 4]])
        assert a.trace() == Fraction(5)

    def test_shape_checks(self):
        a = mat(QQ, [[1, 2]])
        with pytest.raises(ShapeMismatch):
            a * a
        with pytest.raises(ShapeMismatch):
            a + a.transpose()

    def test_equality_requires_same_field(self):
        assert mat(QQ, [[1]]) != mat(QQI, [[1]])

    def test_conj_transpose(self):
        i = QQI.i()
        a = Mat(QQI, 1, 2, [QQI.one() + i, i])
        at = a.conj_transpose()
        assert at.shape() == (2, 1)
        assert at[0, 0] == QQI.one() - i
        assert at[1, 0] == -i

    def test_stacking(self):
        a = mat(QQ, [[1], [2]])
        b = mat(QQ, [[3], [4]])
        assert hstack([a, b]) == mat(QQ, [[1, 3], [2, 4]])
        assert vstack([a.transpose(), b.transpose()]) == mat(QQ, [[1, 2], [3, 4]])
        g = block([[Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 2)],
                   [Mat.zeros(QQ, 2, 1), Mat.identity(QQ, 2)]])
        assert g == Mat.identity(QQ, 3)

    def test_empty_shapes(self):
        e = Mat.zeros(QQ, 0, 2)
        assert (e * mat(QQ, [[1], [2]])).shape() == (0, 1)
        assert Mat.identity(QQ, 0).shape() == (0, 0)

    def test_submatrix_and_columns(self):
        a = mat(QQ, [[1, 2, 3], [4, 5, 6]])
        assert a.submatrix([1], [0, 2]) == mat(QQ, [[4, 6]])
        assert a.column_vec(1) == mat(QQ, [[2], [5]])
        assert a.row_list(0) == [Fraction(1), Fraction(2), Fraction(3)]
        assert a.col_list(2) == [Fraction(3), Fraction(6)]


class TestKernel:
    def test_projection_kernel(self):
        ks = kernel_basis(mat(QQ, [[1, 0]]))
        assert len(ks) == 1
        assert ks[0] == mat(QQ, [[0], [1]])

    def test_zero_map_kernel_is_standard_basis(self):
        ks = kernel_basis(Mat.zeros(QQ, 2, 2))
        assert hstack(ks) == Mat.identity(QQ, 2)

    def test_injective_kernel_empty(self):
        assert kernel_basis(Mat.identity(QQ, 3)) == []

    def test_kernel_members_annihilate(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_matrix(QQ, rng.randint(1, 4), rng.randint(1, 4), rng, 6)
            ks = kernel_basis(a)
            assert len(ks) == a.cols - rank(a)
            for k in ks:
                assert (a * k).is_zero()


class TestSolve:
    def test_underdetermined(self):
        sol = solve_right(mat(QQ, [[1, 1]]), mat(QQ, [[2]]))
        assert sol.particular == mat(QQ, [[2], [0]])
        assert len(sol.homogeneous) == 1
        # spans the line x0 + x1 = 0
        assert sol.homogeneous[0] == mat(QQ, [[-1], [1]])

    def test_identity_system(self):
        c = mat(QQ, [[5], [7]])
        sol = solve_right(Mat.identity(QQ, 2), c)
        assert sol.particular == c
        assert sol.homogeneous == []

    def test_inconsistent(self):
        a = mat(QQ, [[1, 0], [1, 0]])
        with pytest.raises(NoSolution):
            solve_right(a, mat(QQ, [[1], [2]]))

    def test_solution_really_solves(self):
        rng = random.Random(3)
        for _ in range(30):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(QQ, r, c, rng, 5)
            x = random_matrix(QQ, c, 1, rng, 5)
            b = a * x
            sol = solve_right(a, b)
            assert a * sol.particular == b
            for h in sol.homogeneous:
                assert (a * h).is_zero()

    @pytest.mark.parametrize("field", [QQ, QQI, PrimeField(7)])
    def test_homogeneous_is_kernel_basis(self, field):
        rng = random.Random(4)
        for _ in range(20):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            a = random_matrix(field, r, c, rng, 3)
            if rng.random() < 0.5:  # force a dependent row
                a = vstack([a, a.submatrix([0], range(c))])
            b = a * random_matrix(field, c, 2, rng, 3)
            assert solve_right(a, b).homogeneous == kernel_basis(a)


class TestDet:
    def test_small_values(self):
        assert det(Mat.identity(QQ, 3)) == Fraction(1)
        assert det(mat(QQ, [[2, 0], [0, 3]])) == Fraction(6)
        assert det(mat(QQ, [[1, 2], [2, 4]])) == Fraction(0)
        assert det(Mat.identity(QQ, 0)) == Fraction(1)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            det(mat(QQ, [[1, 2]]))

    def test_fractional_entries(self):
        a = mat(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        assert det(a) == Fraction(1, 14) - Fraction(1, 15)

    def test_gaussian_det(self):
        i = QQI.i()
        assert det(Mat(QQI, 1, 1, [i])) == i
        a = Mat(QQI, 2, 2, [QQI.one(), i, i, QQI.one()])
        assert det(a) == QQI.from_int(2)

    def test_fp_det(self):
        f = PrimeField(7)
        a = mat(f, [[2, 1], [3, 4]])
        assert det(a) == f.coerce(5)

    @pytest.mark.parametrize("field", [QQ, QQI, PrimeField(101)])
    def test_multiplicative(self, field):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(1, 4)
            a = random_matrix(field, n, n, rng, 5)
            b = random_matrix(field, n, n, rng, 5)
            assert det(a * b) == det(a) * det(b)

    def test_matches_cofactor_expansion(self):
        rng = random.Random(21)
        for _ in range(10):
            a = random_matrix(QQ, 3, 3, rng, 6)
            sarrus = (
                a[0, 0] * a[1, 1] * a[2, 2]
                + a[0, 1] * a[1, 2] * a[2, 0]
                + a[0, 2] * a[1, 0] * a[2, 1]
                - a[0, 2] * a[1, 1] * a[2, 0]
                - a[0, 0] * a[1, 2] * a[2, 1]
                - a[0, 1] * a[1, 0] * a[2, 2]
            )
            assert det(a) == sarrus

    @pytest.mark.parametrize("field", [QQI, PrimeField(7)])
    def test_field_det_matches_leibniz(self, field):
        rng = random.Random(22)
        for n in range(1, 5):
            for _ in range(8):
                a = random_matrix(field, n, n, rng, 3)
                if n > 1 and rng.random() < 0.5:
                    # zero column 0 above the last row: elimination must swap
                    a = Mat(field, n, n, [
                        field.zero() if k % n == 0 and k < n * (n - 1) else x
                        for k, x in enumerate(a._d)
                    ])
                want = field.zero()
                for perm in itertools.permutations(range(n)):
                    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                    term = field.from_int(-1 if inversions % 2 else 1)
                    for r in range(n):
                        term = term * a[r, perm[r]]
                    want = want + term
                assert det(a) == want


class TestInverse:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 4)
            g = random_invertible(QQ, n, rng, 5)
            assert g * inverse(g) == Mat.identity(QQ, n)
            assert inverse(g) * g == Mat.identity(QQ, n)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse(mat(QQ, [[1, 2], [2, 4]]))
        assert not is_invertible(mat(QQ, [[0]]))
        assert is_invertible(Mat.identity(QQ, 0))


class TestRref:
    def test_pivots(self):
        r, piv = rref(mat(QQ, [[0, 1, 2], [0, 2, 4]]))
        assert piv == (1,)
        assert r == mat(QQ, [[0, 1, 2], [0, 0, 0]])

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(20):
            a = random_matrix(QQ, rng.randint(1, 4), rng.randint(1, 5), rng, 6)
            r, piv = rref(a)
            r2, piv2 = rref(r)
            assert r == r2 and piv == piv2


class TestBases:
    def test_column_space_basis(self):
        a = mat(QQ, [[1, 2, 0], [2, 4, 1]])
        b = column_space_basis(a)
        assert b == mat(QQ, [[1, 0], [2, 1]])
        assert rank(b) == 2

    def test_complete_to_basis(self):
        cols = mat(QQ, [[1], [1]])
        full = complete_to_basis(cols)
        assert full.shape() == (2, 2)
        assert full.submatrix([0, 1], [0]) == cols
        assert is_invertible(full)

    def test_complete_random(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            g = random_invertible(QQ, n, rng, 5)
            cols = g.submatrix(range(n), range(k))
            full = complete_to_basis(cols)
            assert is_invertible(full)
            assert full.submatrix(range(n), range(k)) == cols


qq_entries = st.integers(-8, 8).map(Fraction)


@st.composite
def qq_matrices(draw, max_dim=4):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    data = draw(st.lists(qq_entries, min_size=r * c, max_size=r * c))
    return Mat(QQ, r, c, data)


@settings(max_examples=40, deadline=None)
@given(qq_matrices())
def test_rank_nullity(a):
    assert rank(a) + len(kernel_basis(a)) == a.cols


@settings(max_examples=40, deadline=None)
@given(qq_matrices(max_dim=3), qq_matrices(max_dim=3))
def test_det_transpose_and_product(a, b):
    assert det(a.submatrix(range(min(a.rows, a.cols)), range(min(a.rows, a.cols)))) \
        == det(a.submatrix(range(min(a.rows, a.cols)), range(min(a.rows, a.cols))).transpose())
    if a.rows == a.cols == b.rows == b.cols:
        assert det(a * b) == det(a) * det(b)


class TestKron:
    def test_blocks(self):
        a = mat(QQ, [[1, 2]])
        b = mat(QQ, [[0, 1], [1, 0]])
        assert kron(a, b) == mat(QQ, [[0, 1, 0, 2], [1, 0, 2, 0]])
        assert kron(Mat.zeros(QQ, 0, 2), b).shape() == (0, 4)

    def test_matches_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(5)
        for _ in range(20):
            a = random_matrix(QQ, rng.randint(1, 3), rng.randint(1, 3), rng, 5)
            b = random_matrix(QQ, rng.randint(1, 3), rng.randint(1, 3), rng, 5)
            na, nb = (np.array(M.to_lists(), dtype=object) for M in (a, b))
            want = np.kron(na, nb)
            assert kron(a, b).to_lists() == want.tolist()

    def test_row_major_vec_identity(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(6)
        for _ in range(20):
            p, m, n, q = (rng.randint(1, 3) for _ in range(4))
            L = random_matrix(QQ, p, m, rng, 5)
            X = random_matrix(QQ, m, n, rng, 5)
            R = random_matrix(QQ, n, q, rng, 5)
            vec_x = Mat(QQ, m * n, 1, list(X._d))
            lhs = kron(L, R.transpose()) * vec_x
            assert lhs._d == (L * X * R)._d  # row-major vec of L X R
            nL, nX, nR = (np.array(M.to_lists(), dtype=object) for M in (L, X, R))
            assert lhs._d == list(np.kron(nL, nR.T).dot(nX.reshape(-1)))

    def test_field_mismatch(self):
        with pytest.raises(WrongField):
            kron(Mat.identity(QQ, 1), Mat.identity(QQI, 1))


class TestBlockSystem:
    def test_solves_sylvester_system(self):
        # A X - X B = C with a unique solution, and a second unknown Y = X^T
        rng = random.Random(7)
        a = mat(QQ, [[1, 2], [0, 3]])
        b = mat(QQ, [[-1, 0], [4, -2]])
        x = random_matrix(QQ, 2, 2, rng, 5)
        sys_ = BlockSystem(QQ)
        sys_.unknown("X", 2, 2)
        sys_.unknown("Y", 1, 2)
        sys_.equation([(a, "X", None), (None, "X", -b)], a * x - x * b)
        sys_.equation([(None, "Y", None)], x.submatrix([1], [0, 1]))
        part, hom = sys_.solve()
        assert part == {"X": x, "Y": x.submatrix([1], [0, 1])}
        assert hom == []

    def test_layout_and_kernel(self):
        # u0 + u1 + w = 0 and 2 w = 4: unknowns in declaration order are the
        # columns, equations in insertion order are the rows
        sys_ = BlockSystem(QQ)
        sys_.unknown("u", 1, 2)
        sys_.unknown("w", 1, 1)
        sys_.equation([(None, "u", mat(QQ, [[1], [1]])), (None, "w", None)], mat(QQ, [[0]]))
        sys_.equation([(mat(QQ, [[2]]), "w", None)], mat(QQ, [[4]]))
        A, c = sys_.matrix()
        assert A == mat(QQ, [[1, 1, 1], [0, 0, 2]])
        assert c == mat(QQ, [[0], [4]])
        part, hom = sys_.solve()
        assert part == {"u": mat(QQ, [[-2, 0]]), "w": mat(QQ, [[2]])}
        assert hom == [{"u": mat(QQ, [[-1, 1]]), "w": mat(QQ, [[0]])}]

    def test_inconsistent(self):
        sys_ = BlockSystem(QQ)
        sys_.unknown("x", 1, 1)
        sys_.equation([(None, "x", None)], mat(QQ, [[1]]))
        sys_.equation([(None, "x", None)], mat(QQ, [[2]]))
        with pytest.raises(NoSolution):
            sys_.solve()

    def test_term_shape_checked(self):
        sys_ = BlockSystem(QQ)
        sys_.unknown("x", 2, 2)
        with pytest.raises(ShapeMismatch):
            sys_.equation([(mat(QQ, [[1, 2, 3]]), "x", None)], Mat.zeros(QQ, 1, 2))
        with pytest.raises(ShapeMismatch):
            sys_.equation([(None, "x", Mat.zeros(QQ, 2, 3))], Mat.zeros(QQ, 2, 2))
        with pytest.raises(ShapeMismatch):  # identity factors need a square fit
            sys_.equation([(None, "x", None)], Mat.zeros(QQ, 1, 2))
