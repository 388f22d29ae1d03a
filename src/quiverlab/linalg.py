"""Exact dense matrices over a pluggable scalar field.

Everything here is plain row-major lists plus field arithmetic.  The design
constraints, in order: exactness, determinism, and only then speed (the
matrices in this project are tiny, but there are many of them).

Kernels are pinned per field:
  * over Q, `rref` and matmul clear denominators (`_cleared`) and run on
    plain ints: `rref` is a fraction-free Gauss-Jordan that divides each
    updated row by its content, and matmul takes one integer dot product per
    entry; each result entry is built as one Fraction at the end;
  * over Q(i) and F_p, `rref` is Gauss-Jordan with exact field division
    (`_rref_field`), and matmul is the plain triple loop;
  * `det` is fraction-free Bareiss on ints wherever the field has an integer
    form: over Q on the cleared rows, over F_p on the residues (det is an
    integer polynomial in the entries, so it commutes with Z -> F_p).  Over
    Q(i) it is the signed pivot product that `_rref_field` returns.

Linear systems in matrix unknowns, sum L X R = C, are assembled by
`BlockSystem` entry by entry: the coefficient of X[p, q] in (L X R)[i, j] is
L[i, p] R[q, j], placed straight into its equation row.  With vec row-major
that is the matrix `vec(L X R) = kron(L, R^T) vec(X)`; `kron` remains as the
reference the assembly is tested against.

Zero-dimensional matrices (0 x k, k x 0) are legal everywhere; an empty
product is a zero matrix of the right shape and det of the 0 x 0 matrix is 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    NoSolution,
    NotSquare,
    ShapeMismatch,
    SingularMatrix,
    WrongField,
)


class Mat:
    __slots__ = ("field", "rows", "cols", "_d")

    def __init__(self, field, rows, cols, data):
        if len(data) != rows * cols:
            raise ShapeMismatch(
                f"need {rows * cols} entries for {rows}x{cols}, got {len(data)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self._d = data  # flat, row-major; treated as immutable

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        data = [z] * (n * n)
        for k in range(n):
            data[k * n + k] = o
        return cls(field, n, n, data)

    @classmethod
    def from_rows(cls, field, rows):
        """Build from a list of row lists; entries are coerced into the field."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        data = []
        for row in rows:
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            data.extend(field.coerce(x) for x in row)
        return cls(field, r, c, data)

    @classmethod
    def scalar(cls, field, n, value):
        """value * identity."""
        m = cls.zeros(field, n, n)
        v = field.coerce(value)
        for k in range(n):
            m._d[k * n + k] = v
        return m

    @classmethod
    def column(cls, field, entries):
        return cls.from_rows(field, [[x] for x in entries])

    # -- access --------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self._d[r * self.cols + c]

    def row_list(self, r):
        return self._d[r * self.cols : (r + 1) * self.cols]

    def col_list(self, c):
        return self._d[c :: self.cols] if self.cols else []

    def to_lists(self):
        return [self.row_list(r) for r in range(self.rows)]

    def column_vec(self, c):
        return Mat(self.field, self.rows, 1, self.col_list(c))

    def submatrix(self, row_ids, col_ids):
        data = [self._d[r * self.cols + c] for r in row_ids for c in col_ids]
        return Mat(self.field, len(row_ids), len(col_ids), data)

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        z = self.field.zero()
        return all(x == z for x in self._d)

    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field.name == other.field.name
            and self.rows == other.rows
            and self.cols == other.cols
            and self._d == other._d
        )

    __hash__ = None

    # -- arithmetic ------------------------------------------------------

    def _check_same(self, other):
        if self.field.name != other.field.name:
            raise WrongField(f"{self.field.name} vs {other.field.name}")

    def __add__(self, other):
        self._check_same(other)
        if self.shape() != other.shape():
            raise ShapeMismatch(f"add {self.shape()} vs {other.shape()}")
        return Mat(
            self.field,
            self.rows,
            self.cols,
            [a + b for a, b in zip(self._d, other._d)],
        )

    def __sub__(self, other):
        self._check_same(other)
        if self.shape() != other.shape():
            raise ShapeMismatch(f"sub {self.shape()} vs {other.shape()}")
        return Mat(
            self.field,
            self.rows,
            self.cols,
            [a - b for a, b in zip(self._d, other._d)],
        )

    def __neg__(self):
        return Mat(self.field, self.rows, self.cols, [-a for a in self._d])

    def __mul__(self, other):
        if isinstance(other, Mat):
            self._check_same(other)
            if self.cols != other.rows:
                raise ShapeMismatch(f"mul {self.shape()} by {other.shape()}")
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Mat):
            return NotImplemented
        return self.scale(other)

    def _matmul(self, other):
        n, k, m = self.rows, self.cols, other.cols
        if self.field.kind == "Q" and k and n * k * m > 1:
            rows = [_cleared(self._d[i * k : (i + 1) * k]) for i in range(n)]
            cols = [_cleared(other._d[j::m]) for j in range(m)]
            out = [
                _fraction(sum(map(mul, ar, bc)), la * lb)
                for ar, la in rows
                for bc, lb in cols
            ]
            return Mat(self.field, n, m, out)
        if not k:
            return Mat.zeros(self.field, n, m)
        out = []
        a, b = self._d, other._d
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = arow[0] * b[j]
                for t in range(1, k):
                    acc = acc + arow[t] * b[t * m + j]
                out.append(acc)
        return Mat(self.field, n, m, out)

    def scale(self, c):
        c = self.field.coerce(c)
        return Mat(self.field, self.rows, self.cols, [c * a for a in self._d])

    def transpose(self):
        data = [self._d[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)]
        return Mat(self.field, self.cols, self.rows, data)

    def conj_transpose(self):
        if not self.field.has_conjugation:
            raise WrongField("adjoint needs Q(i)")
        data = [
            self.field.conj(self._d[r * self.cols + c])
            for c in range(self.cols)
            for r in range(self.rows)
        ]
        return Mat(self.field, self.cols, self.rows, data)

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare(f"trace of {self.shape()}")
        acc = self.field.zero()
        for k in range(self.rows):
            acc = acc + self._d[k * self.cols + k]
        return acc

    def __repr__(self):
        return f"Mat({self.field.name}, {self.rows}x{self.cols}, {self.to_lists()!r})"


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ShapeMismatch("hstack of nothing")
    rows = mats[0].rows
    field = mats[0].field
    for m in mats:
        if m.rows != rows:
            raise ShapeMismatch("hstack row mismatch")
    data = []
    for r in range(rows):
        for m in mats:
            data.extend(m.row_list(r))
    return Mat(field, rows, sum(m.cols for m in mats), data)


def vstack(mats):
    mats = list(mats)
    if not mats:
        raise ShapeMismatch("vstack of nothing")
    cols = mats[0].cols
    field = mats[0].field
    data = []
    for m in mats:
        if m.cols != cols:
            raise ShapeMismatch("vstack col mismatch")
        data.extend(m._d)
    return Mat(field, sum(m.rows for m in mats), cols, data)


def block(grid):
    """Assemble a matrix from a 2d grid of blocks (lists of lists of Mat)."""
    return vstack([hstack(row) for row in grid])


_ZERO = Fraction(0)


def _fraction(x, den):
    return Fraction(x, den) if x else _ZERO


def _cleared(xs):
    """Rationals xs as (ints, l) with xs[k] == ints[k] / l, l the lcm of the
    denominators."""
    l = lcm(*{x.denominator for x in xs})
    return [x.numerator * (l // x.denominator) for x in xs], l


def _rref_int(m, ncols):
    """Fraction-free Gauss-Jordan on int rows (mutates m); returns the pivots.

    Each elimination scales the target row so that the pivot row's multiple
    is integral, subtracts that multiple on the pivot row's nonzero columns,
    then divides the row by its content.
    Scaling rows leaves the reduced echelon form unchanged, so on return row
    r divided by its entry at pivots[r] is row r of it; later rows are zero.
    """
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        g = gcd(*prow)
        if g > 1:
            prow[:] = [x // g for x in prow]
        pv = prow[c]
        support = [(j, x) for j, x in enumerate(prow) if x]
        for i in range(nrows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            row = m[i] if a == 1 else [x * a for x in m[i]]
            for j, x in support:
                row[j] -= b * x
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _rref_field(m, field):
    """Gauss-Jordan with exact field division (mutates m).

    Returns (pivots, d), d the product of the pivot values with one sign
    flip per row swap: det m when m is square and of full rank.
    """
    z = field.zero()
    d = field.one()
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if m[i][c] != z:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            d = -d
        pv = m[r][c]
        d = d * pv
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != z:
                f = m[i][c]
                m[i] = [xi - f * xr for xi, xr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots, d


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot column tuple)."""
    if a.field.kind == "Q":
        m = [_cleared(a.row_list(r))[0] for r in range(a.rows)]
        pivots = _rref_int(m, a.cols)
        data = []
        for r, row in enumerate(m):
            if r < len(pivots):
                pv = row[pivots[r]]
                data.extend(_fraction(x, pv) for x in row)
            else:
                data.extend([_ZERO] * a.cols)
    else:
        m = a.to_lists()
        pivots, _ = _rref_field(m, a.field)
        data = [x for row in m for x in row]
    return Mat(a.field, a.rows, a.cols, data), tuple(pivots)


def rank(a):
    return len(rref(a)[1])


def _kernel_from_rref(R, pivots, ncols):
    """Kernel basis of the first ncols columns of a reduced echelon form.

    Deterministic: one vector per free column, free coordinate set to 1,
    pivot coordinates read off R.
    """
    field = R.field
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for r, p in enumerate(pivots):
            vec[p] = -R[r, f]
        basis.append(Mat.column(field, vec))
    return basis


def kernel_basis(a):
    """Basis of {x : a x = 0} as a list of column vectors."""
    R, pivots = rref(a)
    return _kernel_from_rref(R, pivots, a.cols)


class SolveResult(NamedTuple):
    particular: Mat
    homogeneous: list  # kernel basis column vectors of the coefficient matrix


def solve_right(a, c):
    """Solve a x = c exactly.

    Raises NoSolution when inconsistent.  When underdetermined the particular
    solution has all free variables zero; `homogeneous` is a basis of
    ker(a), so the full solution set is particular + span(homogeneous) placed
    column by column.  One elimination serves both: the first a.cols columns
    of rref([a | c]) are rref(a), with the same pivots.
    """
    if a.rows != c.rows:
        raise ShapeMismatch(f"solve {a.shape()} with rhs {c.shape()}")
    aug = hstack([a, c])
    R, pivots = rref(aug)
    for p in pivots:
        if p >= a.cols:
            raise NoSolution("inconsistent linear system")
    field = a.field
    x = [[field.zero()] * c.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        for j in range(c.cols):
            x[p][j] = R[r, a.cols + j]
    part = Mat.from_rows(field, x) if a.cols else Mat.zeros(field, 0, c.cols)
    return SolveResult(part, _kernel_from_rref(R, pivots, a.cols))


def kron(a, b):
    """Kronecker product: entry (i p + k, j q + l) is a[i, j] b[k, l].

    With row-major flattening, vec(L X R) = kron(L, R^T) vec(X).
    """
    a._check_same(b)
    data = []
    for i in range(a.rows):
        arow = a.row_list(i)
        for k in range(b.rows):
            brow = b.row_list(k)
            for x in arow:
                data.extend(x * y for y in brow)
    return Mat(a.field, a.rows * b.rows, a.cols * b.cols, data)


class BlockSystem:
    """Linear equations sum_k L_k X_k R_k = C in matrix unknowns X_k.

    Unknowns are flattened row-major and stacked in declaration order;
    equations are stacked in the order they are added, each row-major over
    the entries of its C.  A term (L, key, R) contributes kron(L, R^T) in the
    equation's rows and the unknown's columns; L or R None is the identity.
    `matrix` fills these entries one by one, skipping zero entries of L's
    rows and R's columns, and builds no identity, transpose or kron.
    """

    def __init__(self, field):
        self.field = field
        self.blocks = {}  # key -> (first column, rows, cols), in declaration order
        self.cols = 0
        self._eqs = []    # (terms, C)

    def unknown(self, key, rows, cols):
        self.blocks[key] = (self.cols, rows, cols)
        self.cols += rows * cols

    def equation(self, terms, rhs):
        """Add the equation sum of L X_key R over (L, key, R) in terms = rhs."""
        for L, key, R in terms:
            _, xr, xc = self.blocks[key]
            left = (xr, xr) if L is None else L.shape()
            right = (xc, xc) if R is None else R.shape()
            if left != (rhs.rows, xr) or right != (xc, rhs.cols):
                raise ShapeMismatch(f"term in {key!r} does not give a {rhs.shape()} matrix")
        self._eqs.append((terms, rhs))

    def matrix(self):
        """The assembled coefficient matrix A and right-hand side column c."""
        field = self.field
        z, one = field.zero(), field.one()
        rows, rhs = [], []
        for terms, c in self._eqs:
            n = c.cols
            eq = [[z] * self.cols for _ in range(c.rows * n)]
            for L, key, R in terms:
                off, xr, xc = self.blocks[key]
                # entry (i, j) of L X R is the sum of L[i, p] R[q, j] X[p, q];
                # a None factor stands for the identity, with the one p = i
                # or q = j and no coefficient (None) of its own
                lrows = ([[(i, None)] for i in range(xr)] if L is None else
                         [[(p, x) for p, x in enumerate(L.row_list(i)) if x != z]
                          for i in range(L.rows)])
                rcols = ([[(j, None)] for j in range(xc)] if R is None else
                         [[(q, y) for q, y in enumerate(R.col_list(j)) if y != z]
                          for j in range(n)])
                for i, lrow in enumerate(lrows):
                    for j, rcol in enumerate(rcols):
                        row = eq[i * n + j]
                        for p, x in lrow:
                            base = off + p * xc
                            for q, y in rcol:
                                k = base + q
                                if x is None:
                                    coef = one if y is None else y
                                else:
                                    coef = x if y is None else x * y
                                row[k] = row[k] + coef
            rows.extend(eq)
            rhs.extend(c._d)
        return (
            Mat(field, len(rows), self.cols, [x for row in rows for x in row]),
            Mat(field, len(rhs), 1, rhs),
        )

    def _split(self, x):
        """A solution column as {key: block}."""
        return {
            key: Mat(self.field, r, c, x._d[off : off + r * c])
            for key, (off, r, c) in self.blocks.items()
        }

    def solve(self):
        """(particular, homogeneous basis), each solution as {key: block}.

        Raises NoSolution when the equations are inconsistent.
        """
        sol = solve_right(*self.matrix())
        return self._split(sol.particular), [self._split(h) for h in sol.homogeneous]


def _det_bareiss_int(m):
    """Fraction-free Bareiss determinant of a square int matrix (mutates m)."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            ri, rk = m[i], m[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - mik * rk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1]


def det(a):
    if a.rows != a.cols:
        raise NotSquare(f"det of {a.shape()}")
    n = a.rows
    if n == 0:
        return a.field.one()
    if n == 1:
        return a[0, 0]
    if a.field.kind == "Q":
        scale = 1
        m = []
        for r in range(n):
            row, l = _cleared(a.row_list(r))
            scale *= l
            m.append(row)
        return Fraction(_det_bareiss_int(m), scale)
    if a.field.kind == "Fp":
        m = [[x.val for x in a.row_list(r)] for r in range(n)]
        return a.field.from_int(_det_bareiss_int(m))
    pivots, d = _rref_field(a.to_lists(), a.field)
    return d if len(pivots) == n else a.field.zero()


def inverse(a):
    if a.rows != a.cols:
        raise NotSquare(f"inverse of {a.shape()}")
    try:
        sol = solve_right(a, Mat.identity(a.field, a.rows))
    except NoSolution:
        raise SingularMatrix("matrix is singular")
    if sol.homogeneous:
        raise SingularMatrix("matrix is singular")
    return sol.particular


def is_invertible(a):
    return a.rows == a.cols and rank(a) == a.rows


def column_space_basis(a):
    """The pivot columns of a, as one v x r matrix (r = rank)."""
    _, pivots = rref(a)
    return a.submatrix(range(a.rows), pivots)


def complete_to_basis(cols):
    """Extend the (independent) columns of `cols` to a square invertible matrix
    by appending standard basis vectors, greedily in index order.

    The pivots of rref([cols | I]) are the first columns, in order, that are
    independent of the ones before them, so one elimination picks them all.
    """
    n, k = cols.rows, cols.cols
    full = hstack([cols, Mat.identity(cols.field, n)])
    _, pivots = rref(full)
    if pivots[:k] != tuple(range(k)):
        raise ShapeMismatch("columns to complete are dependent")
    return full.submatrix(range(n), pivots)


def random_matrix(field, rows, cols, rng, height=10):
    return Mat(
        field, rows, cols, [field.random(rng, height) for _ in range(rows * cols)]
    )


# random draws before giving up on an invertible matrix
INVERTIBLE_TRIES = 64


def random_invertible(field, n, rng, height=10):
    return _random_invertible_pair(field, n, rng, height)[0]


def _random_invertible_pair(field, n, rng, height=10):
    """(m, m^{-1}) for the first random n x n draw that inverts; the
    inversion is the invertibility test, so each draw costs one elimination."""
    if n == 0:
        return Mat.identity(field, 0), Mat.identity(field, 0)
    for _ in range(INVERTIBLE_TRIES):
        m = random_matrix(field, n, n, rng, height)
        try:
            return m, inverse(m)
        except SingularMatrix:
            pass
    raise SingularMatrix("no invertible sample found")  # practically unreachable over Q
