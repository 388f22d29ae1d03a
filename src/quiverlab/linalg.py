"""Exact dense matrices over a pluggable scalar field.

Everything here is plain row-major lists plus field arithmetic.  The design
constraints, in order: exactness, determinism, and only then speed (the
matrices in this project are tiny, but there are many of them).

Every matrix stores its entries over one positive int denominator: entry k
is `_d[k] / _den`.  Over Q the ints are over the least one, gcd(_den, *_d)
== 1; over F_p they are residues in 0..p-1 over 1; over Q(i) `_d` holds
field elements or ints (the generic kernels write and combine ints), over 1.
Equal matrices store equal lists (2 == GaussianRational(2)).  A Mat is never
mutated, so it keeps its own elimination: `rref` memoizes (R, pivots) on the
matrix it reduced, and the rank, kernel and free columns of one Mat share
it.  The memo is no part of its value: ==, repr and the accessors ignore it.
A dimension is an int >= 0; anything else is a ShapeMismatch naming it.

Kernels are pinned per field:
  * over Q and F_p one int core builds no Fraction or FpScalar: matmul
    takes one integer dot product per entry over den_a den_b, `rref` is a
    fraction-free Gauss-Jordan on the stored rows (one denominator scales
    them all) that takes the rows fewest nonzeros first, to limit fill-in,
    and divides each updated row by its content, add and sub
    work over the lcm of the two denominators, `solve_right` reads its
    solution off the stored rref, and `det` is Bareiss over _den^n (over
    F_p on the residues: det is an integer polynomial in the entries, so it
    commutes with Z -> F_p).  Of the kernels only `_mat`, which reduces
    stored ints mod p and divides them by den mod p, and `_rref_int`, which
    reduces each updated row mod p, know about F_p.  The accessors (`m[r, c]`,
    `row_list`, `col_list`, `to_lists`, `trace`) and `det` hand out
    Fractions or FpScalars;
  * over Q(i) `rref` and `det` use Gauss-Jordan with exact field division
    (`_rref_field`); every other kernel is the generic one, over the
    denominator 1.  `_rref_field` is also the tests' reference elimination
    and takes the rows in their given order, so it checks that the int
    core's reordering changes no result: a row space has one reduced
    echelon form.

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
from operator import add, mul, sub
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    NoSolution,
    NotSquare,
    ShapeMismatch,
    SingularMatrix,
    WrongField,
)


class Mat:
    __slots__ = ("field", "rows", "cols", "_d", "_den", "_rref")

    def __init__(self, field, rows, cols, data):
        """data: the rows*cols entries, row-major: over Q ints or Fractions,
        elsewhere what `field.coerce` takes (WrongField otherwise)."""
        _check_dims("a matrix", rows, cols)
        if len(data) != rows * cols:
            raise ShapeMismatch(
                f"need {rows * cols} entries for {rows}x{cols}, got {len(data)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        if field.kind == "Q":
            for x in data:
                if not isinstance(x, (int, Fraction)):
                    raise WrongField(f"cannot hold {x!r} in a matrix over Q")
            den = lcm(*[x.denominator for x in data])
            self._d = [x.numerator * (den // x.denominator) for x in data]
            self._den = den
        elif field.kind == "Fp":
            p = field.p
            self._d = [x % p if type(x) is int else field.coerce(x).val for x in data]
            self._den = 1
        else:
            self._d = [field.coerce(x) for x in data]
            self._den = 1
        self._rref = None
        # _d is flat, row-major and treated as immutable

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        _check_dims("a matrix", rows, cols)
        return _wrap(field, rows, cols, [0] * (rows * cols), 1)

    @classmethod
    def identity(cls, field, n):
        return cls.scalar(field, n, 1)

    @classmethod
    def from_rows(cls, field, rows):
        """Build from a list of row lists; entries are coerced into the field."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        data = []
        for row in rows:
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            data.extend(row)
        return cls(field, r, c, data)

    @classmethod
    def scalar(cls, field, n, value):
        """value * identity."""
        _check_dims("a matrix", n, n)
        v, den = _stored(field, value)
        data = [0] * (n * n)
        data[:: n + 1] = [v] * n
        return _mat(field, n, n, data, den)

    @classmethod
    def column(cls, field, entries):
        return cls.from_rows(field, [[x] for x in entries])

    # -- access --------------------------------------------------------

    def _out(self, xs):
        """Stored entries xs as field elements."""
        return [_elem(self.field, x, self._den) for x in xs]

    def _check(self, what, ids, n):
        """IndexError naming the first of ids outside range(n), the rows or
        the columns; once per index, not per entry."""
        for i in ids:
            if not 0 <= i < n:
                raise IndexError(f"{what} {i} out of range for a {self.rows}x{self.cols} matrix")

    def _col(self, c):
        self._check("column", (c,), self.cols)
        return self._d[c :: self.cols]

    def _rows(self):
        """The stored rows, as new lists."""
        n = self.cols
        return [self._d[r * n : (r + 1) * n] for r in range(self.rows)]

    def __getitem__(self, rc):
        r, c = rc
        self._check("row", (r,), self.rows)
        self._check("column", (c,), self.cols)
        return _elem(self.field, self._d[r * self.cols + c], self._den)

    def row_list(self, r):
        self._check("row", (r,), self.rows)
        return self._out(self._d[r * self.cols : (r + 1) * self.cols])

    def col_list(self, c):
        return self._out(self._col(c))

    def to_lists(self):
        return [self.row_list(r) for r in range(self.rows)]

    def column_vec(self, c):
        return _mat(self.field, self.rows, 1, self._col(c), self._den)

    def submatrix(self, row_ids, col_ids):
        self._check("row", row_ids, self.rows)
        self._check("column", col_ids, self.cols)
        data = [self._d[r * self.cols + c] for r in row_ids for c in col_ids]
        return _mat(self.field, len(row_ids), len(col_ids), data, self._den)

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not any(self._d)

    def is_scalar(self, value):
        """self == value * identity, read off the stored diagonal and the
        zeros around it; no matrix is built."""
        v, den = _stored(self.field, value)
        n = self.rows
        if self.cols != n:
            return False
        if not n:
            return True
        d, step = self._d, n + 1
        return (self._den == den and d[::step] == [v] * n
                and not any(x for k in range(n - 1) for x in d[k * step + 1 : (k + 1) * step]))

    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field.name == other.field.name
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._d == other._d
        )

    __hash__ = None

    # -- arithmetic ------------------------------------------------------

    def _check_same(self, other):
        if self.field.name != other.field.name:
            raise WrongField(f"{self.field.name} vs {other.field.name}")

    def _entrywise(self, other, op, what):
        self._check_same(other)
        if self.shape() != other.shape():
            raise ShapeMismatch(f"{what} {self.shape()} vs {other.shape()}")
        a, b, den = self._d, other._d, self._den
        if other._den != den:
            (a, b), den = _common([self, other])
        return _mat(self.field, self.rows, self.cols, list(map(op, a, b)), den)

    def __add__(self, other):
        return self._entrywise(other, add, "add")

    def __sub__(self, other):
        return self._entrywise(other, sub, "sub")

    def __neg__(self):
        return _mat(self.field, self.rows, self.cols, [-a for a in self._d], self._den)

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
        m, b = other.cols, other._d
        cols = [b[j::m] for j in range(m)]
        out = [sum(map(mul, ar, bc)) for ar in self._rows() for bc in cols]
        return _mat(self.field, self.rows, m, out, self._den * other._den)

    def scale(self, c):
        c, den = _stored(self.field, c)
        return _mat(self.field, self.rows, self.cols, [c * a for a in self._d], den * self._den)

    def transpose(self):
        data = [self._d[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)]
        return _wrap(self.field, self.cols, self.rows, data, self._den)

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
        return _elem(self.field, sum(self._d[:: self.cols + 1]), self._den)

    def __repr__(self):
        return f"Mat({self.field.name}, {self.rows}x{self.cols}, {self.to_lists()!r})"


def _check_dims(what, rows, cols):
    """ShapeMismatch naming a row or column count of what that is not an int
    (a bool or a float is not) or is negative; checked once per
    construction, not per entry."""
    for n, name in ((rows, "rows"), (cols, "columns")):
        if type(n) is not int:
            raise ShapeMismatch(f"{what} cannot have {n!r} {name}; a dimension is an int")
        if n < 0:
            raise ShapeMismatch(f"{what} cannot have {n} {name}")


def _stored(field, value):
    """(value, den): value coerced into field, in stored form; over Q its
    numerator over its denominator, over F_p its residue over 1, over Q(i)
    the field element over 1.  Over Q an int or a Fraction is used as it
    is, so no Fraction is built."""
    if field.kind == "Q":
        v = value if isinstance(value, (int, Fraction)) else field.coerce(value)
        return v.numerator, v.denominator
    if field.kind == "Fp":
        return (value % field.p if type(value) is int else field.coerce(value).val), 1
    return field.coerce(value), 1


def _elem(field, x, den):
    """The field element x / den of a stored entry x; den is 1 off Q."""
    return field.coerce(x) if den == 1 else Fraction(x, den)


def _mat(field, rows, cols, data, den):
    """The Mat with stored entries data: over Q ints over den > 0, brought to
    lowest terms here; over F_p ints over den prime to p, brought to residues
    over 1 here; over Q(i) field elements or ints over 1."""
    if field.kind == "Fp":
        p = field.p
        s = 1 if den == 1 else pow(den, -1, p)
        data, den = [x * s % p for x in data], 1
    elif den > 1:
        g = gcd(den, *data)
        if g > 1:
            data = [x // g for x in data]
            den //= g
    return _wrap(field, rows, cols, data, den)


def _wrap(field, rows, cols, data, den):
    """The Mat whose stored form is data over den, taken as it is: zeros,
    transposes and stacks of stored forms are stored forms."""
    m = object.__new__(Mat)
    m.field = field
    m.rows = rows
    m.cols = cols
    m._d = data
    m._den = den
    m._rref = None
    return m


def _common(mats):
    """The stored entries of mats (one field) over one denominator: (list of
    entry lists, den); den is the lcm of theirs, which is 1 over F_p and
    Q(i)."""
    name = mats[0].field.name
    for m in mats:
        if m.field.name != name:
            raise WrongField(f"{name} vs {m.field.name}")
    den = lcm(*[m._den for m in mats])
    return [m._d if m._den == den else [x * (den // m._den) for x in m._d]
            for m in mats], den


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ShapeMismatch("hstack of nothing")
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise ShapeMismatch("hstack row mismatch")
    ds, den = _common(mats)
    data = []
    for r in range(rows):
        for m, d in zip(mats, ds):
            data.extend(d[r * m.cols : (r + 1) * m.cols])
    return _wrap(mats[0].field, rows, sum(m.cols for m in mats), data, den)


def vstack(mats):
    mats = list(mats)
    if not mats:
        raise ShapeMismatch("vstack of nothing")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise ShapeMismatch("vstack col mismatch")
    ds, den = _common(mats)
    data = []
    for d in ds:
        data.extend(d)
    return _wrap(mats[0].field, sum(m.rows for m in mats), cols, data, den)


def block(grid):
    """Assemble a matrix from a 2d grid of blocks (lists of lists of Mat)."""
    return vstack([hstack(row) for row in grid])


def _rref_int(m, ncols, p=0):
    """Fraction-free Gauss-Jordan on int rows (mutates m); returns the pivots.

    The rows are first stable-sorted by their number of nonzero entries,
    fewest first (Markowitz's heuristic): a column then pivots on the first
    of the sparsest rows that reach it, and its updates fill in fewer
    entries.  `_rref_field` keeps the rows in their given order, so the tests
    compare this core against an elimination that does not reorder.  Each
    elimination scales the target row so that the pivot row's multiple
    is integral, subtracts that multiple on the pivot row's nonzero columns,
    reduces the row mod p when p is a prime (the rows are residues over
    F_p), then divides the row by its content.
    Permuting and scaling rows leaves the reduced echelon form unchanged, so
    on return row r divided by its entry at pivots[r] is row r of it; later
    rows are zero.
    """
    m.sort(key=lambda row: len(row) - row.count(0))
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
            if p:
                row = [x % p for x in row]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _rref_field(m, field):
    """Gauss-Jordan with exact field division (mutates m): the Q(i) kernel,
    and the reference elimination the int core is tested against.

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
        pv = field.coerce(m[r][c])  # over Q(i) a stored int, too
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
    """Reduced row echelon form.  Returns (R, pivot column tuple).

    The pair is memoized on a (`Mat._rref`): a Mat is never mutated, and
    no caller changes R, so the rank, kernel and free columns of one matrix
    come from one elimination."""
    if a._rref is None:
        a._rref = _eliminate(a)
    return a._rref


def _eliminate(a):
    """(R, pivots) of a, from one elimination: the body of `rref`."""
    m = a._rows()
    n = a.cols
    if a.field.kind == "Qi":
        pivots, _ = _rref_field(m, a.field)
        return Mat(a.field, a.rows, n, [x for row in m for x in row]), tuple(pivots)
    # the stored rows are the rows of a times _den, with the same rref; row r
    # of it is m[r] / m[r][pivots[r]], put over the lcm of the pivots (over
    # F_p each pivot is below p, so the lcm is a unit)
    pivots = _rref_int(m, n, a.field.p if a.field.kind == "Fp" else 0)
    den = lcm(*[m[r][p] for r, p in enumerate(pivots)])
    data = []
    for r, row in enumerate(m):
        if r < len(pivots):
            s = den // row[pivots[r]]
            data.extend([x * s for x in row])
        else:
            data.extend([0] * n)
    return _mat(a.field, a.rows, n, data, den), tuple(pivots)


def rank(a):
    return len(rref(a)[1])


def _kernel_from_rref(R, pivots, ncols):
    """Kernel basis of the first ncols columns of a reduced echelon form.

    Deterministic: one vector per free column, free coordinate set to 1,
    pivot coordinates read off R.  The vectors are stored over R's
    denominator, where 1 is R._den.
    """
    den = R._den
    d, n = R._d, R.cols
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        vec = [0] * ncols
        vec[f] = den
        for r, p in enumerate(pivots):
            vec[p] = -d[r * n + f]
        basis.append(_mat(R.field, ncols, 1, vec, den))
    return basis


def kernel_basis(a):
    """Basis of {x : a x = 0} as a list of column vectors."""
    return _kernel_and_free(a)[0]


def _kernel_and_free(a):
    """kernel_basis(a) and the free columns of rref(a), from one elimination;
    basis vector k is 1 at free column k and 0 at the other free columns."""
    R, pivots = rref(a)
    free = [c for c in range(a.cols) if c not in pivots]
    return _kernel_from_rref(R, pivots, a.cols), free


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
    n, k, w = a.cols, c.cols, R.cols
    x = [0] * (n * k)
    for r, p in enumerate(pivots):
        x[p * k : (p + 1) * k] = R._d[r * w + n : (r + 1) * w]
    part = _mat(a.field, n, k, x, R._den)
    return SolveResult(part, _kernel_from_rref(R, pivots, n))


def kron(a, b):
    """Kronecker product: entry (i p + k, j q + l) is a[i, j] b[k, l].

    With row-major flattening, vec(L X R) = kron(L, R^T) vec(X).
    """
    a._check_same(b)
    data = []
    for i in range(a.rows):
        arow = a._d[i * a.cols : (i + 1) * a.cols]
        for k in range(b.rows):
            brow = b._d[k * b.cols : (k + 1) * b.cols]
            for x in arow:
                data.extend(x * y for y in brow)
    return _mat(a.field, a.rows * b.rows, a.cols * b.cols, data, a._den * b._den)


# BlockSystem.matrix refuses a system with more coefficients than this
MAX_SYSTEM_ENTRIES = 1_000_000


class BlockSystem:
    """Linear equations sum_k L_k X_k R_k = C in matrix unknowns X_k.

    Unknowns are flattened row-major and stacked in declaration order;
    equations are stacked in the order they are added, each row-major over
    the entries of its C.  A term (L, key, R) contributes kron(L, R^T) in the
    equation's rows and the unknown's columns; L or R None is the identity.
    `matrix` adds L[i, p] R[q, j] for each pair of nonzero entries, in one
    flat loop, and builds no identity, transpose or kron.  It works on the
    stored entries: the system is put over the lcm of every term's den(L)
    den(R) and every C's denominator.
    """

    def __init__(self, field):
        self.field = field
        self.blocks = {}  # key -> (first column, rows, cols), in declaration order
        self.cols = 0
        self._eqs = []    # (terms, C)

    def unknown(self, key, rows, cols):
        """Declare the rows x cols unknown key; a key is declared once."""
        if key in self.blocks:
            raise ShapeMismatch(f"unknown {key!r} is already declared")
        _check_dims(f"unknown {key!r}", rows, cols)
        self.blocks[key] = (self.cols, rows, cols)
        self.cols += rows * cols

    def equation(self, terms, rhs):
        """Add the equation sum of L X_key R over (L, key, R) in terms = rhs."""
        name = self.field.name
        if rhs.field.name != name:
            raise WrongField(f"right-hand side over {rhs.field.name} in a system over {name}")
        for L, key, R in terms:
            if key not in self.blocks:
                raise ShapeMismatch(f"term in {key!r}, which is not a declared unknown")
            if (L is not None and L.field.name != name) or (R is not None and R.field.name != name):
                raise WrongField(f"term in {key!r} has a factor over another field than {name}")
            _, xr, xc = self.blocks[key]
            left = (xr, xr) if L is None else L.shape()
            right = (xc, xc) if R is None else R.shape()
            if left != (rhs.rows, xr) or right != (xc, rhs.cols):
                raise ShapeMismatch(f"term in {key!r} does not give a {rhs.shape()} matrix")
        self._eqs.append((terms, rhs))

    def matrix(self):
        """The assembled coefficient matrix A and right-hand side column c;
        BudgetExceeded, before any is allocated, when A would have more than
        MAX_SYSTEM_ENTRIES entries."""
        field = self.field
        rows = sum(c.rows * c.cols for _, c in self._eqs)
        if rows * self.cols > MAX_SYSTEM_ENTRIES:
            raise BudgetExceeded(f"linear system of {rows} x {self.cols} = {rows * self.cols} "
                                 f"coefficients exceeds the limit {MAX_SYSTEM_ENTRIES}")
        den = lcm(*[c._den for _, c in self._eqs],
                  *[(1 if L is None else L._den) * (1 if R is None else R._den)
                    for terms, _ in self._eqs for L, _, R in terms])
        width = self.cols
        data, rhs = [], []
        for terms, c in self._eqs:
            n = c.cols
            eq = [0] * (c.rows * n * width)
            for L, key, R in terms:
                off, xr, xc = self.blocks[key]
                # t brings this term's products of stored entries to den
                t = den // ((1 if L is None else L._den) * (1 if R is None else R._den))
                # entry (i, j) of L X R is the sum of L[i, p] R[q, j] X[p, q]
                # over the nonzero (i, p, x) of L and (q, j, y) of R; a None
                # factor is the identity
                ls = ([(i, i, t) for i in range(xr)] if L is None else
                      [(k // xr, k % xr, x * t) for k, x in enumerate(L._d) if x])
                rs = ([(j, j, 1) for j in range(xc)] if R is None else
                      [(k // n, k % n, y) for k, y in enumerate(R._d) if y])
                for i, p, x in ls:
                    base = i * n * width + off + p * xc
                    for q, j, y in rs:
                        k = base + j * width + q
                        eq[k] += x * y
            data.extend(eq)
            rhs.extend([y * (den // c._den) for y in c._d])
        return (
            _mat(field, len(rhs), width, data, den),
            _mat(field, len(rhs), 1, rhs, den),
        )

    def _split(self, x):
        """A solution column as {key: block}."""
        return {
            key: _mat(self.field, r, c, x._d[off : off + r * c], x._den)
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
    m = a._rows()
    if a.field.kind == "Qi":
        pivots, d = _rref_field(m, a.field)
        return d if len(pivots) == n else a.field.zero()
    return _elem(a.field, _det_bareiss_int(m), a._den ** n)


def inverse(a):
    """The right block of rref([a | I]), from one elimination."""
    if a.rows != a.cols:
        raise NotSquare(f"inverse of {a.shape()}")
    try:
        return _completion_and_inverse(a)[1]
    except ShapeMismatch:
        raise SingularMatrix("matrix is singular") from None


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
    return _completion_and_inverse(cols)[0]


def _completion_and_inverse(cols):
    """(P, P^-1) for P = complete_to_basis(cols), from one elimination;
    ShapeMismatch when the columns are dependent."""
    basis, inv, r = _span_completion(cols)
    if r < cols.cols:
        raise ShapeMismatch("columns to complete are dependent")
    return basis, inv


def _span_completion(cols):
    """(P, P^-1, r) from one elimination of [cols | I].  Its pivots are the
    r pivot columns of cols, a basis of their span, then the unit vectors
    that complete them, greedily in index order; P is those columns.
    rref([cols | I]) is E [cols | I] and the identity on P, so E, its right
    block, is P^-1."""
    n, k = cols.rows, cols.cols
    full = hstack([cols, Mat.identity(cols.field, n)])
    R, pivots = rref(full)
    r = sum(p < k for p in pivots)
    return full.submatrix(range(n), pivots), R.submatrix(range(n), range(k, k + n)), r


def random_matrix(field, rows, cols, rng, height=10):
    if field.kind == "Fp":  # the residues PrimeField.random draws, unboxed
        data = [rng.randrange(field.p) for _ in range(rows * cols)]
    else:
        data = [field.random(rng, height) for _ in range(rows * cols)]
    return Mat(field, rows, cols, data)


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
