"""Shared builders for the test suite."""

import itertools
import os
import random
from fractions import Fraction
from math import gcd

import quiverlab as ql


def mat(field, rows):
    """Matrix from nested lists of ints / Fractions (coerced into `field`)."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    data = [field.coerce(x) for row in rows for x in row]
    return ql.Mat(field, nr, nc, data)


def check_stored(m):
    """Assert that m is in the one stored form: rows * cols entries over an
    int denominator >= 1; over Q ints in lowest terms, over F_p residues
    over 1, over Q(i) field elements or ints over 1."""
    assert len(m._d) == m.rows * m.cols
    assert type(m._den) is int and m._den >= 1
    kind = m.field.kind
    if kind == "Q":
        assert all(type(x) is int for x in m._d) and gcd(m._den, *m._d) == 1
    elif kind == "Fp":
        assert m._den == 1 and all(type(x) is int and 0 <= x < m.field.p for x in m._d)
    else:
        assert m._den == 1
        assert all(type(x) in (ql.GaussianRational, int) for x in m._d)


def entries(m):
    """The entries of m as field elements, flat and row-major."""
    return [x for r in range(m.rows) for x in m.row_list(r)]


def frac(a, b=1):
    return Fraction(a, b)


def a1_setup(d=2, v=1, field=ql.QQ):
    q = ql.dynkin_quiver("A1")
    dims = ql.DimData(ql.WeightVec((d,)), ql.RootVec((v,)))
    return q, dims


def a1_point(gamma=(1, 0), delta=(1, 0), field=ql.QQ):
    """The standing single-vertex example: d = (2), v = (1)."""
    q, dims = a1_setup(field=field)
    g = {1: mat(field, [list(gamma)])}
    dl = {1: mat(field, [[x] for x in delta])}
    return ql.FramedPoint(q, dims, field, {}, g, dl)


def a2_setup(d=(1, 1), v=(1, 1)):
    q = ql.dynkin_quiver("A2")
    dims = ql.DimData(ql.WeightVec(tuple(d)), ql.RootVec(tuple(v)))
    return q, dims


def renamed_arrows(q):
    """The quiver q read back from JSON with its arrows renamed a, b, c, ...
    in order: the same graph, but a different quiver."""
    name = {a.id: chr(ord("a") + k) for k, a in enumerate(q.arrows)}
    obj = q.to_json()
    for arrow in obj["arrows"]:
        arrow["id"], arrow["bar"] = name[arrow["id"]], name[arrow["bar"]]
    return ql.Quiver.from_json(obj)


# a three-vertex line read from JSON, its arrows listed out of id order
UNSORTED_QUIVER = ql.Quiver.from_json({
    "vertices": [1, 2, 3],
    "arrows": [
        {"id": "y", "from": 2, "to": 3, "eps": 1, "bar": "yb"},
        {"id": "xb", "from": 2, "to": 1, "eps": -1, "bar": "x"},
        {"id": "yb", "from": 3, "to": 2, "eps": -1, "bar": "y"},
        {"id": "x", "from": 1, "to": 2, "eps": 1, "bar": "xb"},
    ],
})


def quiver(name):
    """A Dynkin quiver by name, or UNSORTED_QUIVER for "unsorted"."""
    return UNSORTED_QUIVER if name == "unsorted" else ql.dynkin_quiver(name)


# (quiver, d, v, field, seed): random points, off the fiber, for the moment
# map and the vertex (a, b) packaging; each "v0" case has a vertex with
# v_i = 0 and each "d0" case one with d_i = 0
MOMENT_POINTS = {
    "A1-Q": ("A1", (2,), (2,), ql.QQ, 51),
    "A1-F7-v0": ("A1", (1,), (0,), ql.PrimeField(7), 52),
    "A2-Qi": ("A2", (1, 2), (2, 1), ql.QQI, 53),
    "A2-F7-d0": ("A2", (0, 1), (2, 2), ql.PrimeField(7), 54),
    "A3-Q-v0-d0": ("A3", (1, 0, 2), (2, 1, 0), ql.QQ, 55),
    "A3-Qi-v0-d0": ("A3", (0, 2, 1), (1, 0, 2), ql.QQI, 56),
    "D4-Q-v0-d0": ("D4", (1, 0, 2, 1), (2, 2, 0, 1), ql.QQ, 57),
    "D4-F7": ("D4", (1, 1, 1, 2), (1, 2, 1, 2), ql.PrimeField(7), 58),
    "unsorted-Q-v0-d0": ("unsorted", (0, 1, 2), (1, 0, 2), ql.QQ, 59),
    "unsorted-F7": ("unsorted", (2, 1, 0), (1, 2, 1), ql.PrimeField(7), 60),
    "unsorted-Qi": ("unsorted", (1, 1, 1), (2, 1, 1), ql.QQI, 61),
}


def moment_points(case, count=3):
    """`count` random points of the MOMENT_POINTS case, drawn in order."""
    name, d, v, field, seed = MOMENT_POINTS[case]
    q = quiver(name)
    dims = ql.DimData(ql.WeightVec(d), ql.RootVec(v))
    rng = random.Random(seed)
    return [ql.FramedPoint.random(q, dims, field, rng) for _ in range(count)]


def finite_type_by_minors(cd):
    """Positive definiteness of a Cartan matrix from one Bareiss
    determinant per leading principal minor: the reference for
    `is_finite_type`."""
    from quiverlab.linalg import _det_bareiss_int

    return all(_det_bareiss_int([list(row[:k]) for row in cd.cartan[:k]]) > 0
               for k in range(1, cd.n + 1))


def brute_force_count(q, dims, lam, p):
    """The fiber mu = lambda over F_p, stratum by stratum, found by testing
    every one of the p^dim points of the representation space: the oracle
    that `count_points_Fq` is checked against."""
    field = ql.PrimeField(p)
    space_dim = dims.space_dimension(q)

    def take(blk, r, c):  # the next r * c entries of the current point
        return ql.Mat(field, r, c, list(itertools.islice(entries, r * c)))

    counts = {}
    for flat in itertools.product(range(p), repeat=space_dim):
        entries = map(field.from_int, flat)
        s = ql.FramedPoint.build(q, dims, field, take)
        if ql.moment_matches(s, lam):
            label = ql.reachable_dims(s)
            counts[label] = counts.get(label, 0) + 1
    return ql.CountResult(p, space_dim, sum(counts.values()), tuple(sorted(counts.items())))


def stratum_dimension_oracle(q, d, v, v_prime):
    """dim S - sum v_i^2 - (u.d - u^T C v) - u^T C u / 2 with u = v - v',
    read off q's arrows alone: dim S = sum over arrows of v_h0 v_h1 plus
    2 sum d_i v_i, and c_ij = 2 [i = j] minus the arrows i -> j.  The
    oracle that `stratum_dimension` and `codim_report` are checked
    against."""
    n, at = len(q.vertices), q.vertex_index
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for a in q.arrows:
        cartan[at(a.h0)][at(a.h1)] -= 1

    def form(x, y):  # x^T C y
        return sum(x[i] * cartan[i][j] * y[j] for i in range(n) for j in range(n))

    u = [a - b for a, b in zip(v, v_prime)]
    dim_s = sum(v[at(a.h0)] * v[at(a.h1)] for a in q.arrows)
    dim_s += 2 * sum(a * b for a, b in zip(d, v))
    ud = sum(a * b for a, b in zip(u, d))
    return dim_s - sum(x * x for x in v) - (ud - form(u, v)) - form(u, u) // 2


def phi_ab_oracle(field, fam, phi, alpha=None, beta=None):
    """The value of `eval_phi_ab(fam, phi, alpha, beta)` over field, written
    from its docstring entry by entry: rows Y_1..Y_n, then the border row B~
    when beta has rows; columns X_1..X_m, then the border column A~ when
    alpha has columns.  Interior entry (r, c) of block (i, j) is the sum of
    phi[(i, j)][q] A^{ij,q}[r, c] over the q <= r_ij that have a matrix; the
    border column is A^{i0} alpha, the border row beta A^{0j}, the corner
    zero.  sympy takes the determinant: over F_p of the integer residues,
    reduced mod p, over Q(i) with I.  A non-square matrix gives the message
    of eval_phi_ab's ShapeMismatch instead."""
    import sympy

    def rat(x):
        return sympy.Rational(x.numerator, x.denominator)

    def sym(x):
        if field.kind == "Fp":
            return sympy.Integer(x.val)
        return rat(x.re) + sympy.I * rat(x.im) if field.kind == "Qi" else rat(x)

    a_cols = alpha.cols if alpha is not None else 0
    b_rows = beta.rows if beta is not None else 0
    row_at = list(itertools.accumulate(fam.y_dims, initial=0))  # row_at[-1]: B~'s first row
    col_at = list(itertools.accumulate(fam.x_dims, initial=0))  # col_at[-1]: A~'s first column
    rows, cols = row_at[-1] + b_rows, col_at[-1] + a_cols
    if rows != cols:
        return f"assembled matrix is {rows}x{cols}, not square"
    m = sympy.zeros(rows, cols)
    for i, y in enumerate(fam.y_dims, 1):
        for j, x in enumerate(fam.x_dims, 1):
            for q, c in enumerate(phi.get((i, j), ())[: fam.mult(i, j)], 1):
                a = fam.mats.get((i, j, q))
                if a is None:
                    continue
                for r, k in itertools.product(range(y), range(x)):
                    m[row_at[i - 1] + r, col_at[j - 1] + k] += sym(c) * sym(a[r, k])
        if i in fam.border_in:
            a = fam.border_in[i]
            for r, k in itertools.product(range(y), range(a_cols)):
                m[row_at[i - 1] + r, col_at[-1] + k] = sum(
                    sym(a[r, t]) * sym(alpha[t, k]) for t in range(a.cols))
    for j, x in enumerate(fam.x_dims, 1):
        if j in fam.border_out:
            a = fam.border_out[j]
            for r, k in itertools.product(range(b_rows), range(x)):
                m[row_at[-1] + r, col_at[j - 1] + k] = sum(
                    sym(beta[r, t]) * sym(a[t, k]) for t in range(a.rows))
    d = sympy.expand(m.det())
    if field.kind == "Fp":
        return field.coerce(int(d))
    re, im = (Fraction(int(z.p), int(z.q)) for z in d.as_real_imag())
    return ql.GaussianRational(re, im) if field.kind == "Qi" else re


def cli_env():
    """Environment for `python -m quiverlab.cli` children.

    PYTHONPATH starts with the directory holding the quiverlab this process
    imported, as an absolute path, so a child started in any working
    directory runs the same code.  Existing PYTHONPATH entries follow it.
    """
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(ql.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def _key(src, tgt):
    """Entry key of the block src -> tgt; a summand is ("V", vertex, copy),
    ("A", l) or ("B", l)."""
    return ((src[0] + tgt[0]).lower(),) + src[1:] + tgt[1:]


def random_chi_data(q, dims, rng, balanced=True):
    """A random ChiData on q with small copy counts: each block gets an entry
    with probability 0.7, a path between the right vertices of length <= 3;
    about one entry in ten is a framed word with a gamma delta loop, and one
    in a hundred runs between the wrong vertices.  Balanced for `dims` unless
    `balanced` is False."""
    paths = {}
    for p in list(ql.enumerate_paths(q, 3)) + [ql.empty_path(q, vert) for vert in q.vertices]:
        paths.setdefault((p.source, p.target), []).append(p)
    framed = [vert for vert in q.vertices if dims.d_of(q, vert) > 0]

    def framing():
        vert = rng.choice(framed)
        return (vert, rng.randrange(dims.d_of(q, vert)))

    target = [rng.randrange(3) for _ in q.vertices]
    source = [rng.randrange(3) for _ in q.vertices]
    vectors = [framing() for _ in range(rng.randrange(3))]
    covectors = [framing() for _ in range(rng.randrange(3))]
    gap = sum((s - t) * dims.v_of(q, vert) for s, t, vert in zip(source, target, q.vertices))
    gap += len(vectors) - len(covectors)
    if balanced:
        covectors += [framing() for _ in range(gap)]
        vectors += [framing() for _ in range(-gap)]
    sources = [("V", vert, h) for vert, c in zip(q.vertices, source) for h in range(1, c + 1)]
    sources += [("A", l) for l in range(1, len(vectors) + 1)]
    targets = [("V", vert, k) for vert, c in zip(q.vertices, target) for k in range(1, c + 1)]
    targets += [("B", l) for l in range(1, len(covectors) + 1)]

    def vertex(summand, framing):
        return summand[1] if summand[0] == "V" else framing[summand[1] - 1][0]

    entries = {}
    for tgt in targets:
        for src in sources:
            if rng.random() < 0.3:
                continue
            a, b = vertex(src, vectors), vertex(tgt, covectors)
            roll = rng.random()
            if roll < 0.01:
                b = rng.choice([vert for vert in q.vertices if vert != b])
            p = rng.choice(paths[a, b])
            if 0.01 <= roll < 0.11:
                p = ql.BPathExpr(q, (a, b), (rng.randrange(2), 1), (p,))
            entries[_key(src, tgt)] = p
    return ql.ChiData(tuple(target), tuple(source), tuple(vectors), tuple(covectors), entries)
