"""Determinant covariants, semistability certificates, and the block-matrix
basis bookkeeping behind them.

A covariant datum assembles one big square matrix out of path evaluations,
framing vectors a_l in D_i and framing covectors b_l in D_i^*; its
determinant transforms under the fiber group with weight prod det(g_i)^{w_i},
w_i = (number of target copies of V_i) - (number of source copies).  A
nonzero value at a point certifies semistability for the matching character.

The standalone block-matrix part (contingency shapes S, the matrices Phi_S
and their determinants f_S) is the generic-multiplicity case used to span
the degree-one piece of the covariant ring; `basis_rank_check` probes its
linear independence numerically but exactly.

Every determinant here, of a covariant, of Phi_S or of a bordered Phi, is
taken of one `_assemble`d block matrix: the blocks given, zero elsewhere.
"""

from __future__ import annotations

from collections import Counter

from .errors import BalanceViolated, QuiverLabError, RangeViolation, ShapeMismatch
from .fields import QQ
from .linalg import Mat, _mat, block, column_space_basis, det, hstack, random_matrix, rank
from .paths import BPathExpr, PathExpr, evaluate, format_bpath, format_path, parse_expr
from .quiver import WeightVec, _check_len, _json_entry, _json_path, _Record
from .repspace import FramedPoint


# -- covariant data ----------------------------------------------------------


class ChiData(_Record):
    """Recipe for one determinant covariant.

    target_copies / source_copies: per-vertex counts (aligned with
    quiver.vertices) of V_i summands on the target / source side.
    vectors: tuple of (vertex, basis_index), one framing vector a_l in D_i
    per extra source summand.  covectors: same for the extra target
    summands (b_l in D_i^*).  entries: sparse map from block keys to path
    expressions; absent means zero.  A key names the block's source and
    target summand (all indices 1-based):

      key                  source     target    summands
      ("vv", i, h, j, k)   V_i^(h) -> V_j^[k]   ("V", i, h) -> ("V", j, k)
      ("vb", i, h, l)      V_i^(h) -> C_{b_l}   ("V", i, h) -> ("B", l)
      ("av", l, j, k)      C_{a_l} -> V_j^[k]   ("A", l)    -> ("V", j, k)
      ("ab", l, lp)        C_{a_l} -> C_{b_lp}  ("A", l)    -> ("B", lp)
    """

    _fields = ("target_copies", "source_copies", "vectors", "covectors", "entries")

    def __init__(self, target_copies, source_copies, vectors, covectors, entries):
        super().__init__(target_copies, source_copies, vectors, covectors, entries)

    def weight(self):
        """Exponent of det(g_i) in the transformation law, per vertex."""
        return tuple(p - m for p, m in zip(self.target_copies, self.source_copies))

    @staticmethod
    def ends(key):
        """(source summand, target summand) of the block an entry key fills."""
        sides = _KEY_SIDES.get(key[0]) if isinstance(key, tuple) and key else None
        if sides is None:
            raise QuiverLabError(f"chi entry {key!r} is not of kind vv, vb, av or ab")
        width = [2 if side == "V" else 1 for side in sides]
        if len(key) != 1 + sum(width):
            raise QuiverLabError(f"chi entry {key!r} needs {sum(width)} indices")
        return (sides[0], *key[1 : 1 + width[0]]), (sides[1], *key[1 + width[0] :])

    def summands(self, q):
        """(sources, targets) in block order: ("V", i, h) for each copy of V_i,
        vertex by vertex, then ("A", l) per vector / ("B", l) per covector.
        Checks the copy counts against q, and that every entry key names a
        source and a target summand among these."""
        for name in ("target_copies", "source_copies"):
            copies = getattr(self, name)
            if not (isinstance(copies, (tuple, list)) and all(type(c) is int for c in copies)):
                raise ShapeMismatch(f"chi {name} must be a tuple of integers, not {copies!r}")
            _check_len(q, copies, f"chi {name}")
        sources = [("V", vert, h) for vert, c in zip(q.vertices, self.source_copies)
                   for h in range(1, c + 1)]
        targets = [("V", vert, k) for vert, c in zip(q.vertices, self.target_copies)
                   for k in range(1, c + 1)]
        sources += [("A", l) for l in range(1, len(self.vectors) + 1)]
        targets += [("B", l) for l in range(1, len(self.covectors) + 1)]
        for key in self.entries:
            for end, side, kind in zip(self.ends(key), (sources, targets), ("source", "target")):
                if end not in side:
                    raise QuiverLabError(f"chi entry {key!r} names the {kind} summand {end}, "
                                         f"which the copy counts and framing lists do not have")
        return sources, targets

    def to_json(self):
        ent = []
        for key in sorted(self.entries, key=repr):
            e = self.entries[key]
            lit = format_bpath(e) if isinstance(e, BPathExpr) else format_path(e)
            ent.append({"key": list(key), "expr": lit})
        return {
            "target_copies": list(self.target_copies),
            "source_copies": list(self.source_copies),
            "vectors": [list(x) for x in self.vectors],
            "covectors": [list(x) for x in self.covectors],
            "entries": ent,
        }

    @classmethod
    def from_json(cls, q, obj):
        """The ChiData of a chi JSON object, checked as summands(q) checks
        it; a malformed or repeated entry is a QuiverLabError naming it."""
        entries = {}
        for k in range(len(_json_entry(obj, "chi", "entries", kind="list"))):
            key = tuple(_json_entry(obj, "chi", "entries", k, "key", kind="key"))
            if key in entries:
                raise QuiverLabError(f"chi JSON entry {_json_path(('entries', k, 'key'))} "
                                     f"repeats the key {list(key)}")
            entries[key] = parse_expr(q, _json_entry(obj, "chi", "entries", k, "expr", kind="str"))
        copies = (tuple(_json_entry(obj, "chi", name, kind="ints"))
                  for name in ("target_copies", "source_copies"))
        framing = (tuple(map(tuple, _json_entry(obj, "chi", name, kind="pairs")))
                   for name in ("vectors", "covectors"))
        chi = cls(*copies, *framing, entries)
        chi.summands(q)
        return chi


# entry kind -> (source side, target side)
_KEY_SIDES = {"vv": ("V", "V"), "vb": ("V", "B"), "av": ("A", "V"), "ab": ("A", "B")}


def _summand_dims(delta: ChiData, dims, q):
    """(sources, targets, size, source dim, target dim) of delta's block
    matrix, where size(summand) is v_i for ("V", i, h) and 1 otherwise.
    Every framing vector and covector must be (vertex of q, basis index of
    D_i); a bool, equal to 0 or 1, names no vertex."""
    sources, targets = delta.summands(q)
    for name in ("vectors", "covectors"):
        for k, x in enumerate(getattr(delta, name)):
            if not (isinstance(x, (tuple, list)) and len(x) == 2
                    and type(x[0]) is not bool and x[0] in q.vertices):
                raise RangeViolation(f"chi {name}[{k}] = {x!r} is not a pair (vertex of the quiver, basis index)")
            di = dims.d_of(q, x[0])
            if type(x[1]) is not int or not 0 <= x[1] < di:
                raise RangeViolation(f"chi {name}[{k}] = {x!r} needs a basis index 0 <= index < d_{x[0]} = {di}")

    def size(summand):
        return dims.v_of(q, summand[1]) if summand[0] == "V" else 1

    src, tgt = (sum(map(size, side)) for side in (sources, targets))
    return sources, targets, size, src, tgt


def _assemble(field, heights, widths, blocks):
    """The sum(heights) x sum(widths) matrix whose block (r, c) is
    blocks[r, c], 0-based, and zero where blocks has no entry."""
    if not (heights and widths):
        return Mat.zeros(field, sum(heights), sum(widths))
    return block([[blocks[r, c] if (r, c) in blocks else Mat.zeros(field, h, w)
                   for c, w in enumerate(widths)] for r, h in enumerate(heights)])


def eval_covariant(delta: ChiData, s: FramedPoint):
    """det of the assembled block matrix; BalanceViolated when not square.

    Block (t, u) is zero unless an entry e ends there; then it is e at s,
    times the gamma column of a_l when u = ("A", l), read through the delta
    row of b_l when t = ("B", l)."""
    q, field = s.quiver, s.field
    sources, targets, size, src, tgt = _summand_dims(delta, s.dims, q)
    if src != tgt:
        raise BalanceViolated(f"source dim {src} != target dim {tgt}")

    def framing(x):
        """(vertex, basis index) of a_l for ("A", l), of b_l for ("B", l)."""
        return (delta.vectors if x[0] == "A" else delta.covectors)[x[1] - 1]

    blocks = {}
    for key, e in delta.entries.items():
        u, t = delta.ends(key)
        want = tuple(x[1] if x[0] == "V" else framing(x)[0] for x in (u, t))
        if (e.source, e.target) != want:
            raise ShapeMismatch(
                f"entry {key} runs {e.source}->{e.target}, block wants {want[0]}->{want[1]}"
            )
        m = evaluate(e, s)
        if u[0] == "A":
            vert, idx = framing(u)
            m = m * s.gamma[vert].column_vec(idx)
        if t[0] == "B":
            vert, idx = framing(t)
            m = (s.delta[vert] * m).submatrix([idx], range(m.cols))
        blocks[targets.index(t), sources.index(u)] = m
    return det(_assemble(field, list(map(size, targets)), list(map(size, sources)), blocks))


def validate_chi_data(delta: ChiData, m: WeightVec, dims, q) -> list:
    """Violation messages against the goodness conditions; empty list = good.

    Condition numbers follow the usual statement: (1) copy counts split |m_i|;
    (2) no direct framing-to-framing blocks; (3) entries lie in the path
    algebra (no gamma delta insertions); (4)/(5) at most v_i nonzero entries
    in each source column / target row group; (6)/(7) each framing summand
    links to at most one fiber summand.
    """
    dims.check(q)
    _check_len(q, m, "m")
    out = []
    sources, targets, size, src, tgt = _summand_dims(delta, dims, q)
    if src != tgt:
        out.append(f"balance: source dim {src} != target dim {tgt}")
    for i, vert in enumerate(q.vertices):
        mi = m[i]
        if delta.target_copies[i] - delta.source_copies[i] != mi:
            out.append(f"weight: copies at vertex {vert} do not realize m_i = {mi}")
        if delta.target_copies[i] + delta.source_copies[i] != abs(mi):
            out.append(f"condition1: copies at vertex {vert} exceed |m_i|")
    links = Counter()  # (side, summand) -> entries there, framing-to-framing ones aside
    for key in delta.entries:
        u, t = delta.ends(key)
        if u[0] == "A" and t[0] == "B":
            out.append(f"condition2: direct framing block {key}")
        else:
            links["source", u] += 1
            links["target", t] += 1
    for key, e in delta.entries.items():
        pure = isinstance(e, PathExpr) or (
            isinstance(e, BPathExpr) and e.is_path_algebra_element
        )
        if not pure:
            out.append(f"condition3: entry {key} uses framing loops")
    for side, summands, kind, rule in (
        ("source", sources, "V", "condition4: column group ({},{}) has {} entries"),
        ("target", targets, "V", "condition5: row group ({},{}) has {} entries"),
        ("target", targets, "B", "condition6: covector {} linked to {} source summands"),
        ("source", sources, "A", "condition7: vector {} linked to {} target summands"),
    ):
        for x in summands:
            cnt = links[side, x]
            if x[0] == kind and cnt > size(x):
                out.append(rule.format(*x[1:], cnt))
    return out


# -- semistability ------------------------------------------------------------


def is_semistable_mplus(s: FramedPoint) -> bool:
    """Semistability for the all-positive character: the framing images must
    generate everything under the arrows (least fixpoint reaches full dims)."""
    return reachable_dims(s) == tuple(
        s.dims.v_of(s.quiver, vert) for vert in s.quiver.vertices
    )


def reachable_dims(s: FramedPoint):
    """Dims of the smallest arrow-stable family of subspaces containing Im gamma."""
    q = s.quiver
    w = {vert: column_space_basis(s.gamma[vert]) for vert in q.vertices}
    changed = True
    while changed:
        changed = False
        for a in q.arrows:
            cand = hstack([w[a.h1], s.B[a.id] * w[a.h0]])
            newbasis = column_space_basis(cand)
            if newbasis.cols > w[a.h1].cols:
                w[a.h1] = newbasis
                changed = True
    return tuple(w[vert].cols for vert in q.vertices)


def certify_semistable(s: FramedPoint, delta: ChiData, m: WeightVec) -> bool:
    """Nonvanishing of a weight-m covariant at s certifies chi_m-semistability."""
    m = _check_len(s.quiver, m, "m")
    delta.summands(s.quiver)
    if delta.weight() != m.coords:
        raise BalanceViolated("covariant weight does not match the character")
    return eval_covariant(delta, s) != s.field.zero()


# -- contingency shapes and block determinants --------------------------------


class ContingencyMatrix(_Record):
    """Nonnegative integer matrix; rows are target factors, columns source."""

    _fields = ("entries",)

    def __init__(self, entries):
        super().__init__(tuple(tuple(r) for r in entries))

    def row_sums(self):
        return tuple(sum(r) for r in self.entries)

    def col_sums(self):
        if not self.entries:
            return ()
        return tuple(sum(col) for col in zip(*self.entries))


def enumerate_S_XY(y_dims, x_dims):
    """All nonnegative integer matrices with row sums y_dims and column sums
    x_dims, ordered lexicographically by flattened rows."""
    y_dims = tuple(y_dims)
    x_dims = tuple(x_dims)
    if sum(y_dims) != sum(x_dims):
        return []

    out = []

    def rows_with_sum(total, caps):
        if not caps:
            if total == 0:
                yield ()
            return
        for first in range(0, min(total, caps[0]) + 1):
            for rest in rows_with_sum(total - first, caps[1:]):
                yield (first,) + rest

    def rec(k, remaining, acc):
        if k == len(y_dims):
            if all(r == 0 for r in remaining):
                out.append(ContingencyMatrix(acc))
            return
        for row in rows_with_sum(y_dims[k], remaining):
            rec(
                k + 1,
                tuple(r - x for r, x in zip(remaining, row)),
                acc + (row,),
            )

    rec(0, x_dims, ())
    return out


class BlockFamily(_Record):
    """A point of the block-matrix space: matrices A^{ij,q}: X_j -> Y_i, with
    multiplicity r_ij per slot, plus optional border blocks through X_0/Y_0.

    mats: (i, j, q) -> Mat, 1-based i, j, q; r: (i, j) -> multiplicity,
    default 1; border_in: i -> Mat X_0 -> Y_i; border_out: j -> Mat
    X_j -> Y_0.  An omitted dict is empty."""

    _fields = ("y_dims", "x_dims", "mats", "r", "y0_dim", "x0_dim", "border_in", "border_out")

    def __init__(self, y_dims, x_dims, mats, r=None, y0_dim=0, x0_dim=0, border_in=None,
                 border_out=None):
        super().__init__(y_dims, x_dims, mats, r or {}, y0_dim, x0_dim, border_in or {},
                         border_out or {})

    def mult(self, i, j):
        return self.r.get((i, j), 1)


def random_block_family(y_dims, x_dims, rng, field=QQ, height=10):
    mats = {
        (i, j, 1): random_matrix(field, y_dims[i - 1], x_dims[j - 1], rng, height)
        for i in range(1, len(y_dims) + 1)
        for j in range(1, len(x_dims) + 1)
    }
    return BlockFamily(tuple(y_dims), tuple(x_dims), mats)


def _family_field(fam: BlockFamily, *more):
    """The field of the first matrix among fam's slot and border matrices
    and `more` (None entries skipped); Q when there is none."""
    mats = (*fam.mats.values(), *fam.border_in.values(), *fam.border_out.values(), *more)
    return next((m.field for m in mats if m is not None), QQ)


def eval_fS(shape: ContingencyMatrix, fam: BlockFamily):
    """det of the block matrix whose (i, j) block is s_ij A^{ij}."""
    if shape.row_sums() != tuple(fam.y_dims) or shape.col_sums() != tuple(fam.x_dims):
        raise ShapeMismatch("contingency margins do not match the block dims")
    return _fS_values([shape], fam, _family_field(fam))[0]


def _fS_values(shapes, fam: BlockFamily, field):
    """f_S at fam over `field` for each shape S, from one assembly: the
    block matrix of the slots' first matrices (zero where a slot has none)
    is stored once, and the matrix of f_S is it with block (i, j) scaled by
    s_ij."""
    whole = _assemble(field, fam.y_dims, fam.x_dims,
                      {(i - 1, j - 1): m for (i, j, qd), m in fam.mats.items() if qd == 1})
    # the (row block, column block) of each stored entry, row-major
    cell = [(i, j) for i, y in enumerate(fam.y_dims) for _ in range(y)
            for j, x in enumerate(fam.x_dims) for _ in range(x)]
    n = whole.rows
    return [det(_mat(field, n, n, [x * s[i][j] for x, (i, j) in zip(whole._d, cell)], whole._den))
            for s in (shape.entries for shape in shapes)]


def eval_phi_ab(fam: BlockFamily, phi: dict, alpha: Mat | None = None, beta: Mat | None = None):
    """General bordered evaluation:

        interior block (i, j) = sum_q phi[(i, j)][q] * A^{ij, q}
        extra source column  = A^{i0} . alpha      (alpha: A~ -> X_0)
        extra target row     = beta . A^{0j}       (beta:  Y_0 -> B~)

    and det of the assembled square matrix.
    """
    field = _family_field(fam, alpha, beta)
    heights, widths, blocks = list(fam.y_dims), list(fam.x_dims), {}
    for i in range(1, len(fam.y_dims) + 1):
        for j in range(1, len(fam.x_dims) + 1):
            terms = [fam.mats[i, j, qd].scale(c)
                     for qd, c in zip(range(1, fam.mult(i, j) + 1), phi.get((i, j), ()))
                     if (i, j, qd) in fam.mats]
            if terms:  # the sum starts at its first term: no zero matrix to add to
                blocks[i - 1, j - 1] = sum(terms[1:], terms[0])
    if alpha is not None and alpha.cols:
        widths.append(alpha.cols)
        blocks.update(((i, len(fam.x_dims)), fam.border_in[i + 1] * alpha)
                      for i in range(len(fam.y_dims)) if i + 1 in fam.border_in)
    if beta is not None and beta.rows:
        heights.append(beta.rows)
        blocks.update(((len(fam.y_dims), j), beta * fam.border_out[j + 1])
                      for j in range(len(fam.x_dims)) if j + 1 in fam.border_out)
    m = _assemble(field, heights, widths, blocks)
    if m.rows != m.cols:
        raise ShapeMismatch(f"assembled matrix is {m.rows}x{m.cols}, not square")
    return det(m)


def basis_rank_check(y_dims, x_dims, samples, seed=0, field=QQ, height=10) -> int:
    """Rank of (evaluations of every f_S at `samples` random block points).

    Equals |S^{XY}| exactly when the f_S are linearly independent and the
    sample count is at least that cardinality.
    """
    import random as _random

    shapes = enumerate_S_XY(y_dims, x_dims)
    if not shapes:
        return 0
    rng = _random.Random(seed)
    rows = [_fS_values(shapes, random_block_family(y_dims, x_dims, rng, field, height), field)
            for _ in range(samples)]
    return rank(Mat.from_rows(field, rows))
