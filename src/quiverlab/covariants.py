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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import BalanceViolated, ShapeMismatch
from .fields import QQ
from .linalg import Mat, block, column_space_basis, det, hstack, random_matrix, rank
from .paths import BPathExpr, PathExpr, evaluate, format_bpath, format_path, parse_expr
from .quiver import WeightVec, _json_entry
from .repspace import FramedPoint


# -- covariant data ----------------------------------------------------------


@dataclass(frozen=True)
class ChiData:
    """Recipe for one determinant covariant.

    target_copies / source_copies: per-vertex counts (aligned with
    quiver.vertices) of V_i summands on the target / source side.
    vectors: tuple of (vertex, basis_index), one framing vector a_l in D_i
    per extra source summand.  covectors: same for the extra target
    summands (b_l in D_i^*).  entries: sparse map from block keys to path
    expressions; absent means zero.  Keys (all indices 1-based):

      ("vv", i, h, j, k)   V_i^(h) -> V_j^[k]
      ("vb", i, h, l)      V_i^(h) -> C_{b_l}
      ("av", l, j, k)      C_{a_l} -> V_j^[k]
      ("ab", l, lp)        C_{a_l} -> C_{b_lp}
    """

    target_copies: tuple
    source_copies: tuple
    vectors: tuple
    covectors: tuple
    entries: dict

    def weight(self):
        """Exponent of det(g_i) in the transformation law, per vertex."""
        return tuple(p - m for p, m in zip(self.target_copies, self.source_copies))

    def source_summands(self, q):
        out = []
        for i, vert in enumerate(q.vertices):
            for h in range(1, self.source_copies[i] + 1):
                out.append(("V", vert, h))
        for l in range(1, len(self.vectors) + 1):
            out.append(("A", l))
        return out

    def target_summands(self, q):
        out = []
        for i, vert in enumerate(q.vertices):
            for k in range(1, self.target_copies[i] + 1):
                out.append(("V", vert, k))
        for l in range(1, len(self.covectors) + 1):
            out.append(("B", l))
        return out

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
        def entry(*keys):
            return _json_entry(obj, "chi", *keys)

        entries = {}
        for k in range(len(entry("entries"))):
            raw = entry("entries", k, "key")
            key = tuple(raw[:1] + [int(x) if not isinstance(x, str) else x for x in raw[1:]])
            entries[key] = parse_expr(q, entry("entries", k, "expr"))
        return cls(
            tuple(entry("target_copies")),
            tuple(entry("source_copies")),
            tuple(tuple(x) for x in entry("vectors")),
            tuple(tuple(x) for x in entry("covectors")),
            entries,
        )


def _balance(delta: ChiData, dims, q):
    src = sum(
        c * dims.v_of(q, vert) for c, vert in zip(delta.source_copies, q.vertices)
    ) + len(delta.vectors)
    tgt = sum(
        c * dims.v_of(q, vert) for c, vert in zip(delta.target_copies, q.vertices)
    ) + len(delta.covectors)
    return src, tgt


def eval_covariant(delta: ChiData, s: FramedPoint):
    """det of the assembled block matrix; BalanceViolated when not square."""
    q = s.quiver
    src, tgt = _balance(delta, s.dims, q)
    if src != tgt:
        raise BalanceViolated(f"source dim {src} != target dim {tgt}")
    field = s.field

    def expr_mat(key, want_src, want_tgt):
        e = delta.entries.get(key)
        if e is None:
            return None
        if e.source != want_src or e.target != want_tgt:
            raise ShapeMismatch(
                f"entry {key} runs {e.source}->{e.target}, block wants {want_src}->{want_tgt}"
            )
        return evaluate(e, s)

    rows = []
    for tgt_sum in delta.target_summands(q):
        row = []
        for src_sum in delta.source_summands(q):
            if src_sum[0] == "V" and tgt_sum[0] == "V":
                _, i, h = src_sum
                _, j, k = tgt_sum
                m = expr_mat(("vv", i, h, j, k), i, j)
                blockm = (
                    m
                    if m is not None
                    else Mat.zeros(field, s.dims.v_of(q, j), s.dims.v_of(q, i))
                )
            elif src_sum[0] == "V" and tgt_sum[0] == "B":
                _, i, h = src_sum
                l = tgt_sum[1]
                bvert, bidx = delta.covectors[l - 1]
                m = expr_mat(("vb", i, h, l), i, bvert)
                if m is None:
                    blockm = Mat.zeros(field, 1, s.dims.v_of(q, i))
                else:
                    full = s.delta[bvert] * m  # D-valued row family
                    blockm = full.submatrix([bidx], range(full.cols))
            elif src_sum[0] == "A" and tgt_sum[0] == "V":
                l = src_sum[1]
                _, j, k = tgt_sum
                avert, aidx = delta.vectors[l - 1]
                m = expr_mat(("av", l, j, k), avert, j)
                if m is None:
                    blockm = Mat.zeros(field, s.dims.v_of(q, j), 1)
                else:
                    blockm = m * s.gamma[avert].column_vec(aidx)
            else:  # A -> B
                l = src_sum[1]
                lp = tgt_sum[1]
                avert, aidx = delta.vectors[l - 1]
                bvert, bidx = delta.covectors[lp - 1]
                m = expr_mat(("ab", l, lp), avert, bvert)
                if m is None:
                    blockm = Mat.zeros(field, 1, 1)
                else:
                    col = m * s.gamma[avert].column_vec(aidx)
                    blockm = (s.delta[bvert] * col).submatrix([bidx], [0])
            row.append(blockm)
        rows.append(row)
    return det(block(rows)) if rows else field.one()


def validate_chi_data(delta: ChiData, m: WeightVec, dims, q) -> list:
    """Violation messages against the goodness conditions; empty list = good.

    Condition numbers follow the usual statement: (1) copy counts split |m_i|;
    (2) no direct framing-to-framing blocks; (3) entries lie in the path
    algebra (no gamma delta insertions); (4)/(5) at most v_i nonzero entries
    in each source column / target row group; (6)/(7) each framing summand
    links to at most one fiber summand.
    """
    dims.check(q)
    out = []
    src, tgt = _balance(delta, dims, q)
    if src != tgt:
        out.append(f"balance: source dim {src} != target dim {tgt}")
    for i, vert in enumerate(q.vertices):
        mi = m[i]
        if delta.target_copies[i] - delta.source_copies[i] != mi:
            out.append(f"weight: copies at vertex {vert} do not realize m_i = {mi}")
        if delta.target_copies[i] + delta.source_copies[i] != abs(mi):
            out.append(f"condition1: copies at vertex {vert} exceed |m_i|")
    for key in delta.entries:
        if key[0] == "ab":
            out.append(f"condition2: direct framing block {key}")
    for key, e in delta.entries.items():
        pure = isinstance(e, PathExpr) or (
            isinstance(e, BPathExpr) and e.is_path_algebra_element
        )
        if not pure:
            out.append(f"condition3: entry {key} uses framing loops")
    for i, vert in enumerate(q.vertices):
        for h in range(1, delta.source_copies[i] + 1):
            cnt = sum(
                1
                for key in delta.entries
                if (key[0] == "vv" and key[1] == vert and key[2] == h)
                or (key[0] == "vb" and key[1] == vert and key[2] == h)
            )
            if cnt > dims.v_of(q, vert):
                out.append(f"condition4: column group ({vert},{h}) has {cnt} entries")
    for j, vert in enumerate(q.vertices):
        for k in range(1, delta.target_copies[j] + 1):
            cnt = sum(
                1
                for key in delta.entries
                if (key[0] == "vv" and key[3] == vert and key[4] == k)
                or (key[0] == "av" and key[2] == vert and key[3] == k)
            )
            if cnt > dims.v_of(q, vert):
                out.append(f"condition5: row group ({vert},{k}) has {cnt} entries")
    for l in range(1, len(delta.covectors) + 1):
        cnt = sum(1 for key in delta.entries if key[0] == "vb" and key[3] == l)
        if cnt > 1:
            out.append(f"condition6: covector {l} linked to {cnt} source summands")
    for l in range(1, len(delta.vectors) + 1):
        cnt = sum(1 for key in delta.entries if key[0] == "av" and key[1] == l)
        if cnt > 1:
            out.append(f"condition7: vector {l} linked to {cnt} target summands")
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
    for i, _vert in enumerate(s.quiver.vertices):
        if delta.target_copies[i] - delta.source_copies[i] != m[i]:
            raise BalanceViolated("covariant weight does not match the character")
    return eval_covariant(delta, s) != s.field.zero()


# -- contingency shapes and block determinants --------------------------------


@dataclass(frozen=True)
class ContingencyMatrix:
    """Nonnegative integer matrix; rows are target factors, columns source."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(r) for r in self.entries))

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


@dataclass(frozen=True)
class BlockFamily:
    """A point of the block-matrix space: matrices A^{ij,q}: X_j -> Y_i, with
    multiplicity r_ij per slot, plus optional border blocks through X_0/Y_0."""

    y_dims: tuple
    x_dims: tuple
    mats: dict                      # (i, j, q) -> Mat, 1-based i, j, q
    r: dict = dc_field(default_factory=dict)  # (i, j) -> multiplicity, default 1
    y0_dim: int = 0
    x0_dim: int = 0
    border_in: dict = dc_field(default_factory=dict)   # i -> Mat: X_0 -> Y_i
    border_out: dict = dc_field(default_factory=dict)  # j -> Mat: X_j -> Y_0

    def mult(self, i, j):
        return self.r.get((i, j), 1)


def random_block_family(y_dims, x_dims, rng, field=QQ, height=10):
    mats = {
        (i, j, 1): random_matrix(field, y_dims[i - 1], x_dims[j - 1], rng, height)
        for i in range(1, len(y_dims) + 1)
        for j in range(1, len(x_dims) + 1)
    }
    return BlockFamily(tuple(y_dims), tuple(x_dims), mats)


def eval_fS(shape: ContingencyMatrix, fam: BlockFamily):
    """det of the block matrix whose (i, j) block is s_ij A^{ij}."""
    if shape.row_sums() != tuple(fam.y_dims) or shape.col_sums() != tuple(fam.x_dims):
        raise ShapeMismatch("contingency margins do not match the block dims")
    field = next(iter(fam.mats.values())).field if fam.mats else QQ
    if not fam.y_dims:
        return field.one()
    rows = []
    for i in range(1, len(fam.y_dims) + 1):
        row = []
        for j in range(1, len(fam.x_dims) + 1):
            row.append(fam.mats[(i, j, 1)].scale(shape.entries[i - 1][j - 1]))
        rows.append(row)
    return det(block(rows))


def eval_phi_ab(fam: BlockFamily, phi: dict, alpha: Mat | None = None, beta: Mat | None = None):
    """General bordered evaluation:

        interior block (i, j) = sum_q phi[(i, j)][q] * A^{ij, q}
        extra source column  = A^{i0} . alpha      (alpha: A~ -> X_0)
        extra target row     = beta . A^{0j}       (beta:  Y_0 -> B~)

    and det of the assembled square matrix.
    """
    field = None
    for m in fam.mats.values():
        field = m.field
        break
    if field is None and alpha is not None:
        field = alpha.field
    if field is None:
        field = QQ
    a_cols = alpha.cols if alpha is not None else 0
    b_rows = beta.rows if beta is not None else 0
    ny, nx = len(fam.y_dims), len(fam.x_dims)
    rows = []
    for i in range(1, ny + 1):
        row = []
        for j in range(1, nx + 1):
            acc = Mat.zeros(field, fam.y_dims[i - 1], fam.x_dims[j - 1])
            coeffs = phi.get((i, j), ())
            for qd in range(1, fam.mult(i, j) + 1):
                if qd <= len(coeffs) and (i, j, qd) in fam.mats:
                    acc = acc + fam.mats[(i, j, qd)].scale(coeffs[qd - 1])
            row.append(acc)
        if a_cols:
            if i in fam.border_in and alpha is not None:
                row.append(fam.border_in[i] * alpha)
            else:
                row.append(Mat.zeros(field, fam.y_dims[i - 1], a_cols))
        rows.append(row)
    if b_rows:
        row = []
        for j in range(1, nx + 1):
            if j in fam.border_out and beta is not None:
                row.append(beta * fam.border_out[j])
            else:
                row.append(Mat.zeros(field, b_rows, fam.x_dims[j - 1]))
        if a_cols:
            row.append(Mat.zeros(field, b_rows, a_cols))
        rows.append(row)
    m = block(rows)
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
    rows = []
    for _ in range(samples):
        fam = random_block_family(y_dims, x_dims, rng, field, height)
        rows.append([eval_fS(sh, fam) for sh in shapes])
    return rank(Mat.from_rows(field, rows))
