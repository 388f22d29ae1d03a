"""Exact matrices: stacking, rref, kernels, solving, determinants."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from quiverlab import (
    QQ,
    QQI,
    BlockSystem,
    BudgetExceeded,
    FpScalar,
    Mat,
    NoSolution,
    NotSquare,
    PrimeField,
    QuiverLabError,
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
from quiverlab import DimData, RootVec, WeightVec, dynkin_quiver, group_act, hom_space, linalg
from quiverlab import random_group, reflect_word, sample_fiber
from util import check_stored, entries, mat


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

    def test_negative_dimensions_rejected(self):
        # Mat.zeros(QQ, -1, -2) once built a "-1x-2" matrix and identity(QQ, -1)
        # raised a bare ValueError
        for build, name in ((lambda: Mat.zeros(QQ, -1, -2), "-1 rows"),
                            (lambda: Mat.zeros(QQ, 2, -3), "-3 columns"),
                            (lambda: Mat(QQ, -1, 0, []), "-1 rows"),
                            (lambda: Mat(PrimeField(7), 0, -2, []), "-2 columns"),
                            (lambda: Mat.identity(QQ, -1), "-1 rows"),
                            (lambda: Mat.scalar(QQI, -2, 3), "-2 rows")):
            with pytest.raises(ShapeMismatch, match=f"a matrix cannot have {name}"):
                build()

    @pytest.mark.parametrize("build, shown", [
        (lambda: Mat(QQ, 1.5, 2, [1, 2, 3]), "1.5 rows"),
        (lambda: Mat.zeros(QQ, 2.0, 1), "2.0 rows"),
        (lambda: Mat.zeros(QQ, True, 1), "True rows"),
        (lambda: Mat.zeros(PrimeField(7), 1, Fraction(2)), "Fraction(2, 1) columns"),
        (lambda: Mat.identity(QQ, 2.0), "2.0 rows"),
    ], ids=["init-float", "zeros-float", "zeros-bool", "zeros-fraction", "identity-float"])
    def test_non_integer_dimensions_rejected(self, build, shown):
        # Mat(QQ, 1.5, 2, [1, 2, 3]) once built a matrix whose repr raised
        # TypeError, zeros(QQ, 2.0, 1) raised a bare TypeError and
        # zeros(QQ, True, 1) built a "Truex1" matrix
        with pytest.raises(ShapeMismatch, match=re.escape(f"a matrix cannot have {shown}")):
            build()

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

    def test_accessors_check_indices(self):
        # these used to read a neighbouring entry, or build a short matrix
        a = mat(QQ, [[1, 2], [3, 4]])
        bad = [(lambda: a[0, 2], "column 2"), (lambda: a[0, -1], "column -1"), (lambda: a[2, 0], "row 2"),
               (lambda: a.submatrix([0], [2]), "column 2"), (lambda: a.submatrix([0, -1], [0]), "row -1"),
               (lambda: a.row_list(2), "row 2"), (lambda: a.col_list(-1), "column -1"),
               (lambda: a.column_vec(2), "column 2"),
               (lambda: Mat.zeros(QQ, 2, 0).column_vec(0), "column 0")]
        for call, message in bad:
            with pytest.raises(IndexError, match=message + " out of range for a 2x"):
                call()
        assert a.submatrix([], [1]).shape() == (0, 1) and a.submatrix([1], []).shape() == (1, 0)


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
            vec_x = Mat(QQ, m * n, 1, entries(X))
            lhs = kron(L, R.transpose()) * vec_x
            assert entries(lhs) == entries(L * X * R)  # row-major vec of L X R
            nL, nX, nR = (np.array(M.to_lists(), dtype=object) for M in (L, X, R))
            assert entries(lhs) == list(np.kron(nL, nR.T).dot(nX.reshape(-1)))

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

    def test_coefficient_bound(self):
        # 1000 equations in the entries of a 1 x width unknown; the factors
        # are zero, so the matrix costs its allocation only
        assert linalg.MAX_SYSTEM_ENTRIES == 1000 * 1000
        systems = {}
        for width in (1000, 1001):
            systems[width] = BlockSystem(QQ)
            systems[width].unknown("x", 1, width)
            systems[width].equation([(Mat.zeros(QQ, 1000, 1), "x", Mat.zeros(QQ, width, 1))],
                                    Mat.zeros(QQ, 1000, 1))
        assert systems[1000].matrix()[0].shape() == (1000, 1000)
        with pytest.raises(BudgetExceeded, match="^linear system of 1000 x 1001 = 1001000 "
                                                 "coefficients exceeds the limit 1000000$"):
            systems[1001].matrix()

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

    def test_term_field_checked(self):
        # an F_3 factor in a Q system once failed inside matrix() with a
        # TypeError; with F_p stored as ints over 1 it would solve silently
        # as if over Q (2 X = Id giving X = Id / 2)
        f3 = PrimeField(3)
        sys_ = BlockSystem(QQ)
        sys_.unknown("x", 2, 2)
        with pytest.raises(WrongField, match="term in 'x'"):
            sys_.equation([(Mat.scalar(f3, 2, 2), "x", None)], Mat.identity(QQ, 2))
        with pytest.raises(WrongField, match="term in 'x'"):
            sys_.equation([(None, "x", Mat.identity(QQI, 2))], Mat.identity(QQ, 2))
        with pytest.raises(WrongField, match="right-hand side over Fp:3"):
            sys_.equation([(Mat.scalar(QQ, 2, 2), "x", None)], Mat.identity(f3, 2))
        with pytest.raises(WrongField):  # F_3 against F_5
            system = BlockSystem(f3)
            system.unknown("y", 1, 1)
            system.equation([(Mat.identity(PrimeField(5), 1), "y", None)], Mat.identity(f3, 1))
        assert sys_._eqs == []

    def test_unknown_declared_once(self):
        # a second "x" once moved the first one's columns out of reach: x = 3
        # solved with a spurious homogeneous direction, a zero block over an
        # orphan column
        sys_ = BlockSystem(QQ)
        sys_.unknown("x", 1, 1)
        with pytest.raises(ShapeMismatch, match="unknown 'x' is already declared"):
            sys_.unknown("x", 1, 1)
        sys_.equation([(None, "x", None)], mat(QQ, [[3]]))
        assert sys_.cols == 1 and sys_.solve() == ({"x": mat(QQ, [[3]])}, [])

    @pytest.mark.parametrize("rows, cols, name", [(-1, 2, "-1 rows"), (2, -1, "-1 columns")])
    def test_unknown_negative_size(self, rows, cols, name):
        sys_ = BlockSystem(QQ)
        with pytest.raises(ShapeMismatch, match=f"unknown 'y' cannot have {name}"):
            sys_.unknown("y", rows, cols)
        assert sys_.cols == 0 and sys_.blocks == {}

    def test_unknown_non_integer_size(self):
        # unknown("x", 1.5, 2) once left cols == 3.0
        sys_ = BlockSystem(QQ)
        with pytest.raises(ShapeMismatch, match="unknown 'x' cannot have 1.5 rows"):
            sys_.unknown("x", 1.5, 2)
        assert sys_.cols == 0 and sys_.blocks == {}

    def test_unknown_key(self):
        sys_ = BlockSystem(QQ)
        sys_.unknown("x", 1, 1)
        with pytest.raises(QuiverLabError, match="term in 'y'"):
            sys_.equation([(None, "y", None)], Mat.identity(QQ, 1))


def kron_assembled(system):
    """The reference assembly of a BlockSystem: each term (L, key, R) adds
    kron(L, R^T) in its equation's rows and its unknown's columns, with an
    identity Mat for a None factor."""
    f = system.field
    z = f.zero()
    rows, rhs = [], []
    for terms, c in system._eqs:
        eq = [[z] * system.cols for _ in range(c.rows * c.cols)]
        for L, key, R in terms:
            off, xr, xc = system.blocks[key]
            K = kron(Mat.identity(f, xr) if L is None else L,
                     Mat.identity(f, xc) if R is None else R.transpose())
            for r, row in enumerate(eq):
                for j, y in enumerate(K.row_list(r), off):
                    if y != z:
                        row[j] = row[j] + y
        rows.extend(eq)
        rhs.extend(entries(c))
    return (Mat(f, len(rows), system.cols, [x for row in rows for x in row]),
            Mat(f, len(rhs), 1, rhs))


class TestBlockSystemAssembly:
    """`BlockSystem.matrix` fills entries directly; `kron` is its reference."""

    @pytest.mark.parametrize("field", [QQ, QQI, PrimeField(3)], ids=["Q", "Qi", "F3"])
    def test_random_terms_match_kron(self, field):
        rng = random.Random(11)
        seen = set()
        for _ in range(150):
            system = BlockSystem(field)
            for key in range(rng.randint(1, 3)):
                system.unknown(key, rng.randint(0, 3), rng.randint(0, 3))
            for _ in range(rng.randint(1, 3)):
                m, n = rng.randint(0, 3), rng.randint(0, 3)
                terms = []
                for _ in range(rng.randint(1, 3)):
                    key = rng.randrange(len(system.blocks))
                    _, xr, xc = system.blocks[key]
                    L = None if xr == m and rng.random() < 0.5 else random_matrix(field, m, xr, rng, 2)
                    R = None if xc == n and rng.random() < 0.5 else random_matrix(field, xc, n, rng, 2)
                    seen.add((L is None, R is None, 0 in (xr, xc)))
                    terms.append((L, key, R))
                system.equation(terms, random_matrix(field, m, n, rng, 3))
            assert system.matrix() == kron_assembled(system)
        # every kind of factor pair, with and without an empty unknown
        assert seen == {(l, r, e) for l in (False, True) for r in (False, True)
                        for e in (False, True)}

    @pytest.mark.parametrize("L, R", [
        (None, None),
        (None, mat(QQ, [[0, 2], [1, 0]])),
        (mat(QQ, [[3, 0], [0, 0]]), None),
        (mat(QQ, [[1, -1], [0, 2]]), mat(QQ, [[0, 1], [Fraction(1, 2), 0]])),
    ], ids=["both-none", "L-none", "R-none", "both"])
    def test_identity_factors_and_repeated_unknown(self, L, R):
        # the same unknown twice in one equation: its coefficients add up
        system = BlockSystem(QQ)
        system.unknown("x", 2, 2)
        system.equation([(L, "x", R), (mat(QQ, [[1, 0], [1, 1]]), "x", None)],
                        mat(QQ, [[1, 2], [3, 4]]))
        assert system.matrix() == kron_assembled(system)

    @pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (0, 0)])
    def test_empty_unknown(self, rows, cols):
        system = BlockSystem(QQ)
        system.unknown("e", rows, cols)
        system.unknown("y", 1, 1)
        system.equation([(Mat.zeros(QQ, 1, rows), "e", Mat.zeros(QQ, cols, 1)),
                         (None, "y", None)], mat(QQ, [[5]]))
        A, c = system.matrix()
        assert (A, c) == kron_assembled(system)
        assert A == mat(QQ, [[1]]) and c == mat(QQ, [[5]])

    def test_hom_space_systems_match_kron(self, monkeypatch):
        # the systems hom_space assembles for fiber points on A2 and D4
        systems = []
        real = BlockSystem.matrix

        def recording(self):
            systems.append(self)
            return real(self)

        monkeypatch.setattr(BlockSystem, "matrix", recording)
        for name, d, v, lam in [("A2", (2, 1), (1, 1), (1, 2)),
                                ("D4", (1, 0, 0, 1), (1, 1, 1, 2), (1, -1, 2, 1))]:
            q = dynkin_quiver(name)
            dims = DimData(WeightVec(d), RootVec(v))
            s = sample_fiber(q, dims, WeightVec(lam), seed=3)
            t = group_act(random_group(q, dims, QQ, random.Random(4)), s)
            hom_space(s, t)
        assert len(systems) == 4  # two samples, two hom sets
        for system in systems:
            assert real(system) == kron_assembled(system)


# -- Q kernels on cleared denominators against two references -----------------
#
# Over Q, rref, matmul and det run on integers.  The first reference is the
# field elimination (the Q(i) code path) called directly on the same Q
# matrix; the second is sympy.  Inputs cover entries up to height 10^6, zero
# rows and columns, empty shapes, rank-deficient products and the sparse
# kron-shaped systems hom_space assembles.


def rand_q(rng, rows, cols, height, density=0.7):
    return Mat(QQ, rows, cols, [
        Fraction(rng.randint(-height, height), rng.randint(1, height))
        if rng.random() < density else Fraction(0)
        for _ in range(rows * cols)
    ])


def q_cases(seed, count=40):
    """Random Q matrices of every kind the differential tests cover."""
    rng = random.Random(seed)
    out = [Mat.zeros(QQ, 0, 3), Mat.zeros(QQ, 3, 0), Mat.zeros(QQ, 0, 0), Mat.zeros(QQ, 2, 3)]
    for k in range(count):
        height = (1, 9, 10**3, 10**6)[k % 4]
        rows, cols = rng.randint(1, 7), rng.randint(1, 8)
        a = rand_q(rng, rows, cols, height, rng.choice((0.3, 0.7, 1.0)))
        if k % 3 == 1:  # rank-deficient: a product through a narrow middle
            mid = rng.randint(0, min(rows, cols) - 1) if min(rows, cols) > 1 else 0
            a = rand_q(rng, rows, mid, height) * rand_q(rng, mid, cols, height)
        if k % 5 == 2:  # a zero row and a zero column
            d = entries(a)
            r0, c0 = rng.randrange(rows), rng.randrange(cols)
            for j in range(cols):
                d[r0 * cols + j] = Fraction(0)
            for i in range(rows):
                d[i * cols + c0] = Fraction(0)
            a = Mat(QQ, rows, cols, d)
        out.append(a)
    return out


def field_rref(a):
    m = a.to_lists()
    pivots, _ = linalg._rref_field(m, a.field)
    return Mat(a.field, a.rows, a.cols, [x for row in m for x in row]), tuple(pivots)


def field_det(a):
    """det by the field elimination: the pivot product of `_rref_field`, or
    zero below full rank."""
    pivots, d = linalg._rref_field(a.to_lists(), a.field)
    return d if len(pivots) == a.rows else a.field.zero()


def hom_space_systems():
    """The (A, c) systems hom_space solves, on A2, A3 and D4 fiber points and
    their images under random group elements."""
    rng = random.Random(5)
    cases = [("A2", (2, 2), (1, 1), (1, 1)), ("A3", (1, 1, 1), (1, 2, 1), (1, -1, 2)),
             ("D4", (1, 1, 1, 1), (1, 1, 1, 1), (1, 2, -1, 3))]
    pairs = []
    for name, d, v, lam in cases:
        q = dynkin_quiver(name)
        dims = DimData(WeightVec(d), RootVec(v))
        s = sample_fiber(q, dims, WeightVec(lam), seed=rng.randrange(1000))
        t = group_act(random_group(q, dims, QQ, rng), s)
        pairs += [(s, t), (t, s)]
    systems = []
    real = linalg.solve_right

    def record(a, c):
        systems.append((a, c))
        return real(a, c)

    linalg.solve_right = record
    try:
        for s, t in pairs:
            hom_space(s, t)
    finally:
        linalg.solve_right = real
    return systems


class TestQKernelsAgainstFieldElimination:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rref_rank_kernel(self, seed):
        for a in q_cases(seed):
            R, piv = rref(a)
            assert (R, piv) == field_rref(a)
            assert rank(a) == len(piv)
            assert kernel_basis(a) == linalg._kernel_from_rref(*field_rref(a), a.cols)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_solve_right(self, seed):
        rng = random.Random(seed)
        for a in q_cases(seed, 24):
            c = rand_q(rng, a.rows, rng.randint(1, 3), 10**6)
            if rng.random() < 0.5:  # consistent by construction
                c = a * rand_q(rng, a.cols, c.cols, 50)
            R, piv = field_rref(hstack([a, c]))
            if any(p >= a.cols for p in piv):
                with pytest.raises(NoSolution):
                    solve_right(a, c)
                continue
            sol = solve_right(a, c)
            want = [[Fraction(0)] * c.cols for _ in range(a.cols)]
            for r, p in enumerate(piv):
                for j in range(c.cols):
                    want[p][j] = R[r, a.cols + j]
            assert sol.particular == Mat(QQ, a.cols, c.cols, [x for row in want for x in row])
            assert sol.homogeneous == linalg._kernel_from_rref(R, piv, a.cols)
            assert a * sol.particular == c

    @pytest.mark.parametrize("seed", [6, 7])
    def test_matmul(self, seed):
        rng = random.Random(seed)
        shapes = [(0, 3, 2), (2, 0, 3), (2, 3, 0), (1, 1, 1), (1, 5, 1), (4, 1, 3), (6, 7, 5)]
        for k in range(30):
            n, inner, m = shapes[k] if k < len(shapes) else (
                rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
            height = (1, 9, 10**6)[k % 3]
            a = rand_q(rng, n, inner, height, rng.choice((0.3, 1.0)))
            b = rand_q(rng, inner, m, height, rng.choice((0.3, 1.0)))
            want = [sum((a[i, t] * b[t, j] for t in range(inner)), Fraction(0))
                    for i in range(n) for j in range(m)]
            assert entries(a * b) == want

    @pytest.mark.parametrize("seed", [8, 9])
    def test_det(self, seed):
        rng = random.Random(seed)
        for k in range(30):
            n = rng.randint(0, 6)
            a = rand_q(rng, n, n, (1, 9, 10**6)[k % 3], rng.choice((0.3, 0.7, 1.0)))
            if k % 4 == 3 and n > 1:
                a = rand_q(rng, n, n - 1, 9) * rand_q(rng, n - 1, n, 9)
            want = field_det(a) if n else Fraction(1)
            assert det(a) == want

    def test_hom_space_systems(self):
        systems = hom_space_systems()
        assert len(systems) == 6
        for a, c in systems:
            assert a.rows > a.cols > 0
            aug = hstack([a, c])
            assert rref(aug) == field_rref(aug)
            assert kernel_basis(a) == linalg._kernel_from_rref(*field_rref(a), a.cols)


class TestQKernelsAgainstSympy:
    @staticmethod
    def to_sympy(sp, a):
        return sp.Matrix(a.rows, a.cols, [sp.Rational(x.numerator, x.denominator) for x in entries(a)])

    @staticmethod
    def from_sympy(a):
        return [Fraction(int(x.p), int(x.q)) for x in a]

    def check(self, sp, a):
        R, piv = rref(a)
        S, spiv = self.to_sympy(sp, a).rref()
        assert piv == spiv
        assert entries(R) == self.from_sympy(S)
        assert rank(a) == len(spiv)
        null = self.to_sympy(sp, a).nullspace()
        assert [entries(k) for k in kernel_basis(a)] == [self.from_sympy(v) for v in null]

    @pytest.mark.parametrize("seed", [11, 12])
    def test_rref_rank_kernel(self, seed):
        sp = pytest.importorskip("sympy")
        for a in q_cases(seed, 24):
            if a.rows and a.cols:  # sympy's empty-shape rref is not comparable
                self.check(sp, a)

    def test_hom_space_systems(self):
        sp = pytest.importorskip("sympy")
        for a, c in hom_space_systems():
            self.check(sp, hstack([a, c]))

    def test_matmul_and_det(self):
        sp = pytest.importorskip("sympy")
        rng = random.Random(13)
        for k in range(20):
            n, inner = rng.randint(1, 5), rng.randint(1, 5)
            height = (9, 10**6)[k % 2]
            a = rand_q(rng, n, inner, height)
            b = rand_q(rng, inner, n, height)
            assert entries(a * b) == self.from_sympy(self.to_sympy(sp, a) * self.to_sympy(sp, b))
            d = self.to_sympy(sp, a * b).det()
            assert det(a * b) == Fraction(int(d.p), int(d.q))


# -- Q(i) and F_p kernels against direct references -----------------------------
#
# Over F_p, det is Bareiss on the integer residues; over Q(i) it is the pivot
# product of the field elimination.  The reference is the Leibniz expansion.
# Matmul over F_p is the integer dot product of the residues, over Q(i) a sum
# of boxed products; the reference is the triple sum of the accessors' scalars.


def leibniz(rows, zero):
    """det by the Leibniz expansion, in the ring of the entries (ints or a
    field's scalars; `zero` is that ring's zero)."""
    n = len(rows)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


def fp_multiple_of_p(field, rng, n):
    """An n x n matrix of residues whose integer determinant is a nonzero
    multiple of p: entry (0, 0) is solved for from its cofactor.  Needs
    n >= 3: a 2 x 2 matrix of bits has determinant in {-1, 0, 1}."""
    p = field.p
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        rows[0][0] = 0
        rest = leibniz(rows, 0)
        rows[0][0] = 1
        cofactor = leibniz(rows, 0) - rest
        if cofactor % p == 0:
            continue
        rows[0][0] = -rest * pow(cofactor, -1, p) % p
        d = leibniz(rows, 0)
        assert d % p == 0
        if d:
            return Mat(field, n, n, [field.from_int(x) for row in rows for x in row])


class TestFieldKernels:
    @pytest.mark.parametrize("p", [2, 3, 1000003])
    def test_fp_det_against_leibniz(self, p):
        field = PrimeField(p)
        rng = random.Random(p)
        multiples = 0
        for k in range(60):
            n = rng.randint(1, 5)
            if k % 3 == 0:
                a = fp_multiple_of_p(field, rng, max(n, 3))
                multiples += 1
            elif k % 3 == 1 and n > 1:
                a = random_matrix(field, n, n - 1, rng) * random_matrix(field, n - 1, n, rng)
            else:
                a = random_matrix(field, n, n, rng)
            assert det(a) == leibniz(a.to_lists(), a.field.zero())
            if k % 3 == 0:
                assert det(a) == field.zero()
        assert multiples == 20

    def test_qi_det(self):
        rng = random.Random(17)
        for k in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(QQI, n, n, rng, 5)
            if k % 2 and n > 1:  # singular: a product through n - 1, or a repeated row
                if k % 4 == 1:
                    a = random_matrix(QQI, n, n - 1, rng, 5) * random_matrix(QQI, n - 1, n, rng, 5)
                else:
                    d = list(a._d)
                    d[n : 2 * n] = d[:n]
                    a = Mat(QQI, n, n, d)
                assert det(a) == QQI.zero()
            assert det(a) == leibniz(a.to_lists(), a.field.zero())

    @pytest.mark.parametrize("field", [QQI, PrimeField(7)], ids=["Qi", "F7"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matmul_against_triple_sum(self, field, k):
        rng = random.Random(19 + k)
        for n, m in [(0, 2), (2, 0), (1, 1), (2, 3), (3, 2)]:
            a = random_matrix(field, n, k, rng, 5)
            b = random_matrix(field, k, m, rng, 5)
            want = []
            for i in range(n):
                for j in range(m):
                    acc = field.zero()
                    for t in range(k):
                        acc = acc + a[i, t] * b[t, j]
                    want.append(acc)
            got = a * b
            assert got.shape() == (n, m)
            assert got._d == want


def greedy_completion(cols):
    """The completion by one rank test per standard vector, in index order."""
    field = cols.field
    n = cols.rows
    work = cols
    for j in range(n):
        if work.cols == n:
            break
        e = Mat(field, n, 1, [field.one() if i == j else field.zero() for i in range(n)])
        cand = hstack([work, e])
        if rank(cand) > work.cols:
            work = cand
    return work


class TestCompleteToBasisAgainstGreedy:
    @pytest.mark.parametrize("field", [QQ, QQI, PrimeField(7)], ids=["Q", "Qi", "F7"])
    def test_same_columns(self, field):
        rng = random.Random(23)
        seen = 0
        while seen < 60:
            n = rng.randint(0, 6)
            k = rng.randint(0, n)
            density = rng.choice((0.2, 0.5, 1.0))
            cols = Mat(field, n, k, [field.random(rng, 4) if rng.random() < density
                                     else field.zero() for _ in range(n * k)])
            if rank(cols) != k:
                continue
            seen += 1
            assert complete_to_basis(cols) == greedy_completion(cols)

    def test_dependent_input_rejected(self):
        for cols in (mat(QQ, [[1, 2], [2, 4], [0, 0]]), mat(QQ, [[0], [0]]),
                     mat(QQ, [[1, 0, 1], [0, 1, 1]])):
            with pytest.raises(ShapeMismatch, match="columns to complete are dependent"):
                complete_to_basis(cols)


# -- the stored form over Q: ints over the least common denominator ------------


def assert_canonical(m):
    """m over Q stores ints over the lcm of its entries' reduced denominators,
    so gcd(_den, *_d) == 1, and those ints over _den are its entries."""
    xs = entries(m)
    assert type(m._den) is int and m._den == lcm(*(x.denominator for x in xs))
    assert all(type(x) is int for x in m._d)
    assert [Fraction(x, m._den) for x in m._d] == xs


def stored_form_cases(seed):
    """Q matrices from every constructor: random, zero and empty shapes,
    identities and scalars, and entries whose denominators cancel."""
    rng = random.Random(seed)
    out = [Mat.zeros(QQ, r, c) for r, c in [(0, 0), (0, 3), (3, 0), (2, 2)]]
    out += [Mat.identity(QQ, n) for n in (0, 1, 3)]
    out += [Mat.scalar(QQ, 2, x) for x in (0, 5, Fraction(-3, 4), Fraction(6, 3))]
    out += [mat(QQ, [[Fraction(1, 2), Fraction(1, 2)]]), mat(QQ, [[Fraction(2, 4), 3]]),
            Mat.column(QQ, [Fraction(1, 6), Fraction(1, 10)]), Mat.from_rows(QQ, [[0, 0], [0, 0]])]
    for k in range(20):
        out.append(rand_q(rng, rng.randint(1, 4), rng.randint(1, 4), (1, 9, 10**6)[k % 3],
                          rng.choice((0.3, 1.0))))
    return out


class TestQStoredForm:
    def test_constructors(self):
        for m in stored_form_cases(31):
            assert_canonical(m)
        assert Mat.zeros(QQ, 2, 3)._den == 1 and Mat.scalar(QQ, 2, Fraction(3, 4))._den == 4

    def test_every_operation(self):
        rng = random.Random(32)
        cases = [m for m in stored_form_cases(33) if m.rows and m.cols]
        for a in cases:
            b = rand_q(rng, a.rows, a.cols, 9)
            c = rand_q(rng, a.cols, rng.randint(1, 3), 9)
            ops = [a + b, a - b, a - a, a + (-a), -a, a.scale(0), a.scale(Fraction(2, 3)),
                   a.scale(a._den), a * c, a * Mat.scalar(QQ, a.cols, a._den), a.transpose(),
                   a.submatrix([0], range(a.cols)), a.column_vec(a.cols - 1),
                   hstack([a, b]), vstack([a, b]), kron(a, c), rref(a)[0],
                   *kernel_basis(a)]
            sol = solve_right(a, a * c)
            ops += [sol.particular, *sol.homogeneous]
            if is_invertible(a):
                ops.append(inverse(a))
            for m in ops:
                assert_canonical(m)
        assert (cases[0] - cases[0])._den == 1

    def test_block_system_matrix(self):
        rng = random.Random(34)
        for _ in range(30):
            system = BlockSystem(QQ)
            system.unknown("x", 2, 2)
            system.unknown("y", 1, 2)
            system.equation([(rand_q(rng, 2, 2, 9), "x", None), (None, "x", rand_q(rng, 2, 2, 9))],
                            rand_q(rng, 2, 2, 9))
            system.equation([(rand_q(rng, 1, 2, 9), "x", rand_q(rng, 2, 2, 9)), (None, "y", None)],
                            rand_q(rng, 1, 2, 9))
            A, c = system.matrix()
            assert_canonical(A)
            assert_canonical(c)
            assert (A, c) == kron_assembled(system)

    def test_equal_values_by_different_routes(self):
        rng = random.Random(35)
        for a in stored_form_cases(36):
            b = rand_q(rng, a.rows, a.cols, 9)
            assert (a + b) - b == a
            assert a.scale(3).scale(Fraction(1, 3)) == a
            assert Mat(QQ, a.rows, a.cols, entries(a)) == a
            assert a.transpose().transpose() == a
            assert hstack([a.submatrix(range(a.rows), [j]) for j in range(a.cols)] or [a]) == a
            assert a * Mat.identity(QQ, a.cols) == a
        half = Fraction(1, 2)
        assert mat(QQ, [[half, 1]]) == Mat.from_rows(QQ, [[Fraction(2, 4), Fraction(3, 3)]])
        assert mat(QQ, [[half]]) * mat(QQ, [[2]]) == Mat.identity(QQ, 1)
        assert Mat.scalar(QQ, 2, half) + Mat.scalar(QQ, 2, half) == Mat.identity(QQ, 2)

    def test_unequal_values_compare_unequal(self):
        half = Fraction(1, 2)
        a = mat(QQ, [[half, 1], [0, 2]])
        assert mat(QQ, [[half]]) != mat(QQ, [[1]])  # the same stored int, another denominator
        assert a != a.scale(2) and a != a.transpose() and a != -a
        assert a != mat(QQ, [[half, 1], [0, Fraction(5, 2)]])
        assert mat(QQ, [[1, 2]]) != mat(QQ, [[1], [2]])  # the same entries, another shape
        assert Mat.zeros(QQ, 0, 2) != Mat.zeros(QQ, 2, 0)
        assert Mat.identity(QQ, 2) != Mat.identity(PrimeField(7), 2)

    @pytest.mark.parametrize("bad", [0.5, "1/3", 1.0, None, 1j, QQI.one()])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(WrongField):
            Mat(QQ, 1, 2, [Fraction(1, 3), bad])
        with pytest.raises(WrongField):
            Mat.scalar(QQ, 2, bad)
        with pytest.raises(WrongField):
            Mat.identity(QQ, 2).is_scalar(bad)

    def test_float_and_string_are_not_held(self):
        # such a matrix used to construct and then add entry by entry
        # ("1/3" + "1/3" == "1/31/3")
        with pytest.raises(WrongField, match="cannot hold 0.5"):
            Mat(QQ, 1, 2, [0.5, "1/3"])


# -- the stored form over F_p: residues over 1 --------------------------------


def assert_fp_canonical(m):
    """m over F_p stores its residues in 0..p-1 as ints over 1."""
    p = m.field.p
    assert m._den == 1
    assert all(type(x) is int and 0 <= x < p for x in m._d)
    assert [x.val for x in entries(m)] == m._d


def fp_stored_form_cases(field, seed):
    """F_p matrices from every constructor: random, zero and empty shapes,
    identities and scalars of every representative, and entries given as
    negative or unreduced ints and as FpScalars."""
    p = field.p
    rng = random.Random(seed)
    out = [Mat.zeros(field, r, c) for r, c in [(0, 0), (0, 3), (3, 0), (2, 2)]]
    out += [Mat.identity(field, n) for n in (0, 1, 3)]
    out += [Mat.scalar(field, 2, x) for x in (0, -1, p, p + 2, -3 * p - 1, FpScalar(p - 1, p))]
    out += [Mat(field, 1, 3, [-1, p, 5 * p + 1]), Mat(field, 2, 1, [FpScalar(-2, p), 2 * p - 1]),
            Mat.from_rows(field, [[p, -p], [1 - p, 0]]), Mat.column(field, [-4, FpScalar(3, p)])]
    for _ in range(16):
        out.append(random_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng))
    return out


@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
class TestFpStoredForm:
    def test_constructors(self, p):
        field = PrimeField(p)
        for m in fp_stored_form_cases(field, 41):
            assert_fp_canonical(m)
        assert Mat(field, 1, 3, [-1, p, p + 1])._d == [p - 1, 0, 1]
        for value in (-1, 2 * p - 1, FpScalar(-1, p)):
            assert Mat.scalar(field, 2, p - 1).is_scalar(value)

    def test_every_operation(self, p):
        field = PrimeField(p)
        rng = random.Random(42)
        cases = [m for m in fp_stored_form_cases(field, 43) if m.rows and m.cols]
        for a in cases:
            b = random_matrix(field, a.rows, a.cols, rng)
            c = random_matrix(field, a.cols, rng.randint(1, 3), rng)
            ops = [a + b, a - b, a - a, a + (-a), -a, a.scale(0), a.scale(-1), a.scale(-5 * p - 2),
                   a.scale(FpScalar(p - 1, p)), a * c, a * Mat.scalar(field, a.cols, -1),
                   a.transpose(), a.submatrix([0], range(a.cols)), a.column_vec(a.cols - 1),
                   hstack([a, b]), vstack([a, b]), kron(a, c), rref(a)[0], *kernel_basis(a)]
            sol = solve_right(a, a * c)
            ops += [sol.particular, *sol.homogeneous]
            if is_invertible(a):
                ops.append(inverse(a))
            for m in ops:
                assert_fp_canonical(m)
            for k in (-1, -5 * p - 2, FpScalar(p - 1, p)):
                assert entries(a.scale(k)) == [x * k for x in entries(a)]
            assert (a - a).is_zero() and a.is_zero() == (entries(a) == [0] * len(a._d))
            if a.rows == a.cols:
                assert a.trace() == sum((a[k, k] for k in range(a.rows)), field.zero())

    def test_block_system_matrix(self, p):
        field = PrimeField(p)
        rng = random.Random(44)
        for _ in range(30):
            system = BlockSystem(field)
            system.unknown("x", 2, 2)
            system.unknown("y", 1, 2)
            system.equation([(random_matrix(field, 2, 2, rng), "x", None),
                             (None, "x", Mat.scalar(field, 2, -1))], random_matrix(field, 2, 2, rng))
            system.equation([(random_matrix(field, 1, 2, rng), "x", random_matrix(field, 2, 2, rng)),
                             (None, "y", None)], random_matrix(field, 1, 2, rng))
            A, c = system.matrix()
            assert_fp_canonical(A)
            assert_fp_canonical(c)
            assert (A, c) == kron_assembled(system)

    def test_eliminations_against_the_field_elimination(self, p):
        # rref, kernels and solves on residues equal those of _rref_field on
        # the boxed entries
        field = PrimeField(p)
        rng = random.Random(45)
        for k in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            a = random_matrix(field, rows, cols, rng)
            if k % 2:  # rank-deficient: a product through a narrow middle
                mid = rng.randint(0, min(rows, cols) - 1)
                a = random_matrix(field, rows, mid, rng) * random_matrix(field, mid, cols, rng)
            assert rref(a) == field_rref(a)
            assert kernel_basis(a) == linalg._kernel_from_rref(*field_rref(a), a.cols)
            c = a * random_matrix(field, cols, 2, rng)
            R, piv = field_rref(hstack([a, c]))
            sol = solve_right(a, c)
            assert sol.homogeneous == linalg._kernel_from_rref(R, piv, a.cols)
            assert a * sol.particular == c


class TestEntryChecks:
    @pytest.mark.parametrize("bad", [0.5, "1/3", "x", None, 1j, FpScalar(1, 3)])
    def test_qi_coerces_every_entry(self, bad):
        # Mat(QQI, 1, 1, ["x"]) used to construct, and adding it to itself gave "xx"
        with pytest.raises(WrongField):
            Mat(QQI, 1, 2, [QQI.one(), bad])
        m = Mat(QQI, 1, 2, [1, Fraction(1, 2)])
        assert all(type(x) is type(QQI.one()) for x in m._d)
        assert m + m == Mat(QQI, 1, 2, [2, 1])

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", None, Fraction(1, 2), QQI.one(), FpScalar(1, 5)])
    def test_fp_coerces_every_entry(self, bad):
        # Mat(PrimeField(3), 1, 2, [FpScalar(1, 5), 1]) used to construct
        f3 = PrimeField(3)
        with pytest.raises(WrongField):
            Mat(f3, 1, 2, [bad, 1])
        with pytest.raises(WrongField):
            Mat.scalar(f3, 2, bad)
        with pytest.raises(WrongField):
            Mat.identity(f3, 2).scale(bad)
        with pytest.raises(WrongField):
            Mat.identity(f3, 2).is_scalar(bad)


class TestIsScalar:
    @pytest.mark.parametrize("field", [QQ, QQI, PrimeField(5)], ids=["Q", "Qi", "F5"])
    def test_against_the_scalar_matrix(self, field):
        rng = random.Random(37)
        values = [0, 1, 2, -3] + ([Fraction(1, 2), Fraction(-2, 3)] if field.kind != "Fp" else [])
        for _ in range(200):
            n = rng.randint(0, 3)
            c = rng.choice(values)
            m = Mat.scalar(field, n, c)
            if rng.random() < 0.7 and n:  # disturb one entry
                d = entries(m)
                k = rng.randrange(n * n)
                d[k] = d[k] + field.coerce(rng.choice([1, -1, 2]))
                m = Mat(field, n, n, d)
            for value in values:
                assert m.is_scalar(value) == (m == Mat.scalar(field, n, value))

    def test_shapes(self):
        assert Mat.zeros(QQ, 0, 0).is_scalar(5)
        assert not Mat.zeros(QQ, 1, 2).is_scalar(0)
        assert not Mat.zeros(QQ, 0, 1).is_scalar(0)
        assert Mat.scalar(QQ, 3, Fraction(3, 2)).is_scalar(Fraction(3, 2))
        assert not Mat.scalar(QQ, 3, Fraction(3, 2)).is_scalar(3)


# -- what every field's accessors hand out --------------------------------------


GAUSSIAN = type(QQI.one())


def qi_outputs():
    """Q(i) matrices from the producers that write zeros and ones of their
    own: zeros, identities, a kernel vector, solves and an inverse."""
    i = QQI.i()
    singular = mat(QQI, [[1, 2, 0], [2, 4, 0]])
    g = Mat(QQI, 2, 2, [i, 1, 0, 2])
    sol = solve_right(singular, Mat.column(QQI, [1, 2]))
    return [Mat.zeros(QQI, 2, 2), Mat.zeros(QQI, 2, 3), Mat.identity(QQI, 3),
            *kernel_basis(singular), sol.particular, *sol.homogeneous,
            solve_right(g, Mat.column(QQI, [1, i])).particular, inverse(g)]


class TestQiAccessors:
    def test_every_accessor_gives_gaussian_rationals(self):
        for m in qi_outputs():
            got = [m[r, c] for r in range(m.rows) for c in range(m.cols)]
            got += [x for r in range(m.rows) for x in m.row_list(r)]
            got += [x for c in range(m.cols) for x in m.col_list(c)]
            got += [x for row in m.to_lists() for x in row]
            if m.rows == m.cols:
                got += [m.trace(), det(m)]
            assert got and all(type(x) is GAUSSIAN for x in got), m

    def test_zeros_equal_boxed_zeros(self):
        z = Mat.zeros(QQI, 2, 2)
        assert z == Mat(QQI, 2, 2, [QQI.zero()] * 4)
        assert repr(z) == "Mat(Q(i), 2x2, [[0, 0], [0, 0]])"
        assert Mat.identity(QQI, 2) == Mat(QQI, 2, 2, [1, 0, 0, 1])
        assert Mat.identity(QQI, 2) * Mat.zeros(QQI, 2, 2) == z


class TestQiStoredInts:
    """Over Q(i) the generic kernels store ints next to field elements: a
    kernel vector holds 0 and 1, its negation -1, a sum 2.  Every
    elimination on such a matrix agrees with the one on its boxed copy."""

    @staticmethod
    def int_bearing():
        i = QQI.i()
        k = kernel_basis(Mat.zeros(QQI, 2, 2))
        e = kernel_basis(Mat.zeros(QQI, 1, 2))[0]
        system = BlockSystem(QQI)
        system.unknown("x", 1, 2)
        system.equation([(None, "x", None), (None, "x", None)], Mat.zeros(QQI, 1, 2))
        return [hstack(k), hstack([k[0] + k[0] + k[1], -k[1]]), hstack([e, Mat.column(QQI, [i, 1])]),
                hstack([k[0] - k[1], k[1] + k[1]]), system.matrix()[0],
                vstack([Mat.zeros(QQI, 1, 2), hstack([k[1], -k[0] - k[1]]).transpose()]),
                e, k[0] + k[1], -k[1]]

    def test_eliminations_match_the_boxed_copy(self):
        for m in self.int_bearing():
            assert any(type(x) is int for x in m._d), m
            boxed = Mat(QQI, m.rows, m.cols, entries(m))
            assert all(type(x) is GAUSSIAN for x in boxed._d)
            assert rref(m) == rref(boxed)
            assert kernel_basis(m) == kernel_basis(boxed)
            assert rank(m) == rank(boxed)
            outs = [rref(m)[0], *kernel_basis(m), column_space_basis(m)]
            if m.rows == m.cols:
                d = det(m)
                assert type(d) is GAUSSIAN and d == det(boxed)
                if d:
                    outs.append(inverse(m))
                    assert inverse(m) == inverse(boxed) and m * inverse(m) == Mat.identity(QQI, m.rows)
                else:
                    with pytest.raises(SingularMatrix):
                        inverse(m)
            if rank(m) == m.cols:
                outs.append(complete_to_basis(m))
                assert complete_to_basis(m) == complete_to_basis(boxed)
            for out in outs:
                check_stored(out)

    def test_completion_of_a_unit_kernel_vector(self):
        # [1 | I] with the stored int pivot 1 used to leave floats in the rref
        assert complete_to_basis(kernel_basis(Mat.zeros(QQI, 1, 2))[0]) == Mat.identity(QQI, 2)
        basis = hstack(kernel_basis(Mat.zeros(QQI, 2, 2)))
        assert inverse(basis) == Mat.identity(QQI, 2) and det(basis) == QQI.one()


class TestInverseEveryField:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7), QQI], ids=["Q", "F7", "Qi"])
    def test_singular_and_empty(self, field):
        for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0]], [[1, 1, 0], [0, 1, 1], [1, 2, 1]]):
            with pytest.raises(SingularMatrix):
                inverse(mat(field, rows))
        empty = inverse(Mat.identity(field, 0))
        assert empty.shape() == (0, 0) and empty == Mat.zeros(field, 0, 0)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7), QQI], ids=["Q", "F7", "Qi"])
    def test_round_trip(self, field):
        rng = random.Random(9)
        for n in (1, 2, 3, 4):
            g = random_invertible(field, n, rng, 5)
            assert g * inverse(g) == Mat.identity(field, n) == inverse(g) * g


# -- the order of the rows fed to the elimination --------------------------------
#
# A row space has one reduced echelon form, so the order in which the int
# core meets the rows can change its work but never its results.


def row_order_cases(field, seed):
    """Sparse matrices over field, tall, wide and square, with zero rows,
    duplicate rows and rank deficiency, and the empty shapes."""
    rng = random.Random(seed)
    out = [Mat.zeros(field, 0, 3), Mat.zeros(field, 3, 0), Mat.zeros(field, 0, 0)]
    for k in range(36):
        small, large = rng.randint(1, 4), rng.randint(4, 8)
        rows, cols = ((large, small), (small, large), (small, small))[k % 3]
        m = [[field.random(rng, 9) if rng.random() < 0.35 else 0 for _ in range(cols)]
             for _ in range(rows)]
        if k % 4 == 0:
            m[rng.randrange(rows)] = [0] * cols
        if k % 4 == 1 and rows > 1:
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
        if k % 4 == 2 and rows > 2:  # one row the sum of two others
            m[0] = [field.coerce(x) + y for x, y in zip(m[1], m[2])]
        out.append(Mat.from_rows(field, m))
    return out


def outcome(fn, *args):
    """fn(*args), or the name of the QuiverLabError it raises."""
    try:
        return fn(*args)
    except QuiverLabError as e:
        return type(e).__name__


def eliminated_in_order(monkeypatch, order, a, rhs):
    """rref, rank, kernel, solves against each of rhs, inverse and span
    completion of a, with the int core meeting its rows in the given order,
    reversed or shuffled."""
    real = linalg._rref_int

    def reordered(m, ncols, p=0):
        if order == "reversed":
            m.reverse()
        elif order == "shuffled":
            random.Random(len(m)).shuffle(m)
        return real(m, ncols, p)

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "_rref_int", reordered)
        return (rref(a), rank(a), kernel_basis(a), [outcome(solve_right, a, c) for c in rhs],
                outcome(inverse, a), linalg._span_completion(a))


class TestRowOrder:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    def test_same_results_in_every_row_order(self, monkeypatch, field):
        rng = random.Random(53)
        seen = Counter()
        for a in row_order_cases(field, 52):
            rhs = [a * random_matrix(field, a.cols, 2, rng, 5), random_matrix(field, a.rows, 1, rng, 5)]
            given = eliminated_in_order(monkeypatch, "given", a, rhs)
            for order in ("reversed", "shuffled"):
                assert eliminated_in_order(monkeypatch, order, a, rhs) == given, (order, a)
            consistent, other, inv = given[3][0], given[3][1], given[4]
            assert not isinstance(consistent, str)  # a x = a y has a solution
            seen["NoSolution" if other == "NoSolution" else "solved"] += 1
            seen[inv if isinstance(inv, str) else "inverted"] += 1
        # both kinds of right-hand side, and invertible and singular squares
        assert all(seen[k] for k in ("NoSolution", "solved", "SingularMatrix", "inverted"))

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    def test_permuted_rows_give_the_same_row_space(self, field):
        rng = random.Random(54)
        for a in row_order_cases(field, 55):
            perm = list(range(a.rows))
            rng.shuffle(perm)
            pa = a.submatrix(perm, range(a.cols))
            c = a * random_matrix(field, a.cols, 1, rng, 5)
            assert rref(pa) == rref(a) and rank(pa) == rank(a)
            assert kernel_basis(pa) == kernel_basis(a)
            assert solve_right(pa, c.submatrix(perm, [0])) == solve_right(a, c)

    def test_block_system_equations_in_reverse_order(self, monkeypatch):
        # the hom systems of equivalent and of independent D4 points, and a
        # random F_7 system: added in reverse order, the equations solve to
        # the same blocks, or to no solution both ways
        systems = []
        real = BlockSystem.matrix

        def recording(self):
            systems.append(self)
            return real(self)

        monkeypatch.setattr(BlockSystem, "matrix", recording)
        q = dynkin_quiver("D4")
        dims = DimData(WeightVec((1, 1, 1, 1)), RootVec((1, 1, 1, 1)))
        s, u = (sample_fiber(q, dims, WeightVec((1, 2, -1, 3)), seed=k) for k in (5, 6))
        t = group_act(random_group(q, dims, QQ, random.Random(4)), s)
        for pair in ((s, t), (t, s), (s, u)):
            hom_space(*pair)
        f7 = PrimeField(7)
        rng = random.Random(56)
        system = BlockSystem(f7)
        system.unknown("x", 2, 3)
        system.unknown("y", 3, 1)
        for _ in range(3):
            system.equation([(random_matrix(f7, 3, 2, rng), "x", None),
                             (None, "y", random_matrix(f7, 1, 3, rng))], random_matrix(f7, 3, 3, rng))
        systems.append(system)
        monkeypatch.undo()
        kinds = set()
        for system in systems:
            reverse = BlockSystem(system.field)
            for key, (_, rows, cols) in system.blocks.items():
                reverse.unknown(key, rows, cols)
            for terms, c in reversed(system._eqs):
                reverse.equation(terms, c)
            want = outcome(system.solve)
            assert outcome(reverse.solve) == want
            kinds.add(isinstance(want, str))
        assert kinds == {False, True}


# -- the early stop and the substitution check --------------------------------


def field_solve(a, c):
    """(particular, kernel basis) of a x = c read off `_rref_field` of
    [a | c], or "NoSolution": the reference that solves over Q and F_p are
    checked against."""
    R, piv = field_rref(hstack([a, c]))
    if piv and piv[-1] >= a.cols:
        return "NoSolution"
    x = [a.field.zero()] * (a.cols * c.cols)
    for r, p in enumerate(piv):
        for j in range(c.cols):
            x[p * c.cols + j] = R[r, a.cols + j]
    return Mat(a.field, a.cols, c.cols, x), linalg._kernel_from_rref(R, piv, a.cols)


def tall_systems(field, seed, count=12):
    """(a, x0, dense) with a tall of full column rank, c = a x0 consistent:
    n >= 5 rows of one nonzero each that span, and a few more rows of one or
    two nonzeros, shuffled among the dense rows, whose indices are dense.
    With at most two right-hand sides, a row of [a | c] that spans has at
    most 4 nonzeros and a dense one at least 5, so the int core meets the
    rows that span first and stops before it meets a dense row."""
    rng = random.Random(seed)

    def nonzero():
        x = 0
        while not field.coerce(x):
            x = field.random(rng, 9) if field.kind == "Q" else rng.randrange(1, 10**6)
        return x

    out = []
    for _ in range(count):
        n = rng.randint(5, 7)
        rows = []
        for j in list(range(n)) + [rng.randrange(n) for _ in range(rng.randint(0, 3))]:
            row = [0] * n
            row[j] = nonzero()
            if len(rows) >= n and rng.random() < 0.5:
                row[rng.randrange(n)] = nonzero()
            rows.append(row)
        dense = [[nonzero() for _ in range(n)] for _ in range(rng.randint(1, 4))]
        order = list(range(len(rows) + len(dense)))
        rng.shuffle(order)
        merged = rows + dense
        a = Mat.from_rows(field, [merged[i] for i in order])
        out.append((a, random_matrix(field, n, rng.randint(1, 2), rng, 9),
                    [k for k, i in enumerate(order) if i >= len(rows)]))
    return out


def random_tall_systems(field, seed, count=12):
    """(a, x0) with a random, tall and of full column rank."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        a = random_matrix(field, n + rng.randint(1, 6), n, rng, 9)
        if len(field_rref(a)[1]) == n:
            out.append((a, random_matrix(field, n, rng.randint(1, 3), rng, 9)))
    return out


FIELDS = [QQ, PrimeField(7), PrimeField(1000003)]
FIELD_IDS = ["Q", "F7", "F1000003"]


class TestEarlyStop:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_consistent_tall_systems(self, field):
        # a full column rank: the solve is x0 and the kernel is empty, as the
        # elimination of every row of [a | c] gives
        cases = [(a, x0) for a, x0, _ in tall_systems(field, 61)] + random_tall_systems(field, 62)
        for a, x0 in cases:
            c = a * x0
            sol = solve_right(a, c)
            assert (sol.particular, sol.homogeneous) == field_solve(a, c) == (x0, [])

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_one_inconsistent_row_the_core_does_not_meet(self, field):
        rng = random.Random(63)
        for a, x0, dense in tall_systems(field, 61):
            c = a * x0
            bad = rng.choice(dense)
            j = rng.randrange(c.cols)
            d = entries(c)
            d[bad * c.cols + j] += 1
            c = Mat(field, c.rows, c.cols, d)
            assert field_solve(a, c) == "NoSolution"
            with pytest.raises(NoSolution):
                solve_right(a, c)
            # the row is not met: the core leaves it as it was, after the pivots
            rows = hstack([a, c])._rows()
            row, before = rows[bad], list(rows[bad])
            pivots = linalg._rref_int(rows, a.cols, field.p if field.kind == "Fp" else 0)
            assert len(pivots) == a.cols
            assert any(r is row for r in rows[a.cols:]) and row == before

    def test_the_d4_hom_system_stops_early(self, monkeypatch):
        # the D4 braid system of tests/test_eliminations.py: 46 equations in
        # 20 unknowns.  The core meets the rows sparsest first and stops at
        # its 20th pivot, after 32 rows: the 14 densest are left as they
        # were, the same lists, unchanged, at the end
        lam = WeightVec((1, 1, 1, 1))
        q = dynkin_quiver("D4")
        s = sample_fiber(q, DimData(WeightVec((1, 1, 1, 1)), RootVec((1, 1, 1, 1))), lam, seed=7)
        t1, t2 = (reflect_word(s, word, lam).point for word in ([1, 2, 1], [2, 1, 2]))
        systems = []
        real = linalg.solve_right
        monkeypatch.setattr(linalg, "solve_right", lambda a, c: systems.append((a, c)) or real(a, c))
        hom_space(t1, t2)
        monkeypatch.undo()
        [(a, c)] = systems
        rows = hstack([a, c])._rows()
        met = sorted(rows, key=lambda row: len(row) - row.count(0))
        before = [list(row) for row in met]
        assert len(linalg._rref_int(rows, a.cols)) == a.cols == 20
        left = [r is row and row == b for r, row, b in zip(rows, met, before)]
        assert len(rows) == 46 and left[-15:] == [False] + [True] * 14


# -- one stored form on every field ---------------------------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(7), QQI], ids=["Q", "F7", "Qi"])
def test_every_producer_gives_the_stored_form(field):
    rng = random.Random(47)
    singular = mat(field, [[1, 2, 0], [2, 4, 0], [0, 0, 0]])
    system = BlockSystem(field)
    system.unknown("x", 2, 2)
    system.unknown("y", 1, 2)
    system.equation([(random_matrix(field, 2, 2, rng, 5), "x", None),
                     (None, "x", random_matrix(field, 2, 2, rng, 5))], random_matrix(field, 2, 2, rng, 5))
    system.equation([(random_matrix(field, 1, 2, rng, 5), "x", Mat.scalar(field, 2, 3)),
                     (None, "y", None)], Mat.zeros(field, 1, 2))
    out = [Mat(field, 1, 3, [0, 1, 2]), Mat.from_rows(field, [[1, 0], [0, 0]]), Mat.column(field, [0, 1]),
           Mat.zeros(field, 2, 3), Mat.zeros(field, 0, 2), Mat.identity(field, 3), Mat.identity(field, 0),
           Mat.scalar(field, 2, 0), Mat.scalar(field, 2, 5), *system.matrix(),
           singular, *kernel_basis(singular), rref(singular)[0],
           complete_to_basis(singular.submatrix(range(3), [0])), complete_to_basis(Mat.zeros(field, 2, 0))]
    # the kernel vectors of a zero map, and what sums and negations make of them
    ks = kernel_basis(Mat.zeros(field, 2, 2))
    units = hstack([ks[0] + ks[0] + ks[1], -ks[1]])
    doubled = BlockSystem(field)
    doubled.unknown("x", 1, 2)
    doubled.equation([(None, "x", None), (None, "x", None)], Mat.zeros(field, 1, 2))
    out += [*ks, ks[0] + ks[1], ks[0] - ks[1], -ks[0], ks[1].scale(3), units, rref(units)[0], inverse(units),
            complete_to_basis(ks[0]), complete_to_basis(ks[0] + ks[1]), *doubled.matrix()]
    for k in range(12):
        a = random_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng, 6)
        b = random_matrix(field, a.rows, a.cols, rng, 6)
        c = random_matrix(field, a.cols, rng.randint(0, 3), rng, 6)
        g = random_invertible(field, rng.randint(1, 4), rng, 6)
        sol = solve_right(a, a * c)
        out += [a, a + b, a - b, a - a, -a, a * c, 3 * a, a * 0, a.scale(2), a.transpose(),
                hstack([a, b]), vstack([a, b]), block([[a, b], [b, a]]), kron(a, c),
                a.submatrix([0], range(a.cols)), a.submatrix([], []), a.column_vec(a.cols - 1),
                rref(a)[0], *kernel_basis(a), sol.particular, *sol.homogeneous,
                g, inverse(g), complete_to_basis(g.submatrix(range(g.rows), range(k % g.rows)))]
        if field.has_conjugation:
            out.append(a.conj_transpose())
    for m in out:
        check_stored(m)
