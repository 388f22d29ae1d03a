"""Framed representation points, moment maps, group actions, fiber sampling.

A point assigns a matrix B_h to every arrow of the double and a framing pair
gamma_i : D_i -> V_i, delta_i : V_i -> D_i to every vertex.  `q.layout`
(`Quiver.layout`, built once per quiver) lists these blocks once, each with
the two spaces ("V", i) or ("D", i) it maps between; `DimData.sizes` gives
the dimension of every space, and `FramedPoint.build` makes a point block
by block in layout order.  Every constructor, the shape check, the group
action and the moves that resize a point go through these three.

The two derived maps at a vertex, a_i : V_i -> T_i (the `out` blocks of
`q.star[i]`, stacked) and b_i : T_i -> V_i (the `into` blocks times their
signs, side by side), are packaged as a `VertexAB` whose `layout` names the
summands of T_i.  `Quiver.star` alone fixes their order and the signs of the
moment map mu_i = b_i a_i; `assemble_ab`, `split_ab`, `moment_map` and the
equations of `sample_fiber` all read it.  Each `VertexAB` is assembled at
most once per point and memoized on it, as mu_i is; a move through
`split_ab` seeds it at the moved vertex and carries it where the blocks of
T_j are the same objects.  A point also keeps each reflection of it
(`reflection`) under (vertex, lambda, m, side), once that result has passed
its moment check; a reflected point starts with none.  `DimData.sizes` is
memoized on the quiver.  No memo enters a point's value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    FiberSampleFailed,
    NoSolution,
    NotSquare,
    RangeViolation,
    ShapeMismatch,
    SingularBlock,
    SingularMatrix,
    WrongField,
)
from .fields import QQ, field_from_name
from .linalg import (
    BlockSystem,
    Mat,
    _random_invertible_pair,
    hstack,
    inverse,
    random_matrix,
    solve_right,
    vstack,
)
from .quiver import Block, Quiver, RootVec, WeightVec, _check_len, _json_entry, _json_path, _Record


class DimData(NamedTuple("DimData", [("d", WeightVec), ("v", RootVec)])):
    """Dimension bookkeeping: framing spaces d (weight), fiber spaces v
    (root), each kept as that type when given as a sequence of coordinates."""

    __slots__ = ()

    def __new__(cls, d, v):
        if type(d) is not WeightVec:
            d = WeightVec(d)
        if type(v) is not RootVec:
            v = RootVec(v)
        return tuple.__new__(cls, (d, v))

    def d_of(self, q, vertex):
        return self.d[q.vertex_index(vertex)]

    def v_of(self, q, vertex):
        return self.v[q.vertex_index(vertex)]

    def sizes(self, q):
        """space -> dim for the spaces ("V", i) and ("D", i) of q, after
        self.check(q).  Built once per quiver and dims, and memoized on the
        quiver (`Quiver._sizes`) under the coordinates of d and v: the dict
        is shared, and no caller changes it.  Only dims whose entries are
        all ints are looked up, so that 1.0 or True, equal to 1, is still
        checked and refused."""
        memo, key = q._sizes, (self.d.coords, self.v.coords)
        exact = all(type(x) is int for x in key[0] + key[1])
        size = memo.get(key) if exact else None
        if size is None:
            self.check(q)
            size = memo[key] = {}
            for i, v, d in zip(q.vertices, self.v.coords, self.d.coords):
                size["V", i], size["D", i] = v, d
        return size

    def with_v(self, q, vertex, n):
        """The same d and v, except v_i = n at `vertex`."""
        v = list(self.v.coords)
        v[q.vertex_index(vertex)] = n
        return DimData(self.d, RootVec(tuple(v)))

    def check(self, q):
        """ShapeMismatch unless d and v have one entry per vertex of q;
        RangeViolation if an entry is not an integer or is negative."""
        for vec, nm in ((self.d, "d"), (self.v, "v")):
            _check_len(q, vec, nm)
            for k, x in enumerate(vec.coords):
                if type(x) is not int:
                    raise RangeViolation(f"{nm}[{k}] is {x!r}; dimensions must be integers")
                if x < 0:
                    raise RangeViolation(f"{nm}[{k}] is {x}; dimensions must be >= 0")

    def space_dimension(self, q):
        """dim of the whole representation space: the sum of the block sizes."""
        size = self.sizes(q)
        return sum(size[blk.row] * size[blk.col] for blk in q.layout)


class FramedPoint(_Record):
    """quiver: Quiver, dims: DimData, field, and the blocks B (arrow id ->
    Mat, v_{h1} x v_{h0}), gamma (vertex -> Mat, v_i x d_i) and delta
    (vertex -> Mat, d_i x v_i)."""

    _fields = ("quiver", "dims", "field", "B", "gamma", "delta")

    def __init__(self, quiver, dims, field, B, gamma, delta):
        super().__init__(quiver, dims, field, B, gamma, delta)
        # vertex -> mu_i (moment_map), vertex -> VertexAB (assemble_ab) and
        # (vertex, lambda, m, side), the weights by their coordinates ->
        # ReflectionResult (reflection functors); memos, no part of the
        # point's value
        vars(self).update(_mu={}, _ab={}, _refl={})
        size = self.dims.sizes(self.quiver)
        name = self.field.name
        for part, key, row, col in self.quiver.layout:
            m = getattr(self, part).get(key)
            if m is None or m.rows != size[row] or m.cols != size[col]:
                raise ShapeMismatch(f"{part}[{key}] must be {(size[row], size[col])}")
            if m.field.name != name:
                raise WrongField(f"{part}[{key}] over {m.field.name}")

    def block(self, blk: Block) -> Mat:
        return getattr(self, blk.part)[blk.key]

    # -- constructors ---------------------------------------------------

    @classmethod
    def build(cls, q, dims, field, make):
        """The point whose block `blk` is make(blk, rows, cols), called once
        per block in layout order."""
        size = dims.sizes(q)
        parts = {"B": {}, "gamma": {}, "delta": {}}
        for blk in q.layout:
            parts[blk.part][blk.key] = make(blk, size[blk.row], size[blk.col])
        return cls(q, dims, field, parts["B"], parts["gamma"], parts["delta"])

    @classmethod
    def zero(cls, q, dims, field=QQ):
        return cls.build(q, dims, field, lambda blk, r, c: Mat.zeros(field, r, c))

    @classmethod
    def random(cls, q, dims, field, rng, height=10):
        """Uniform garbage in the ambient space; no moment condition."""
        return cls.build(q, dims, field, lambda blk, r, c: random_matrix(field, r, c, rng, height))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        f = self.field
        dump_mat = lambda m: [[f.dump(x) for x in m.row_list(r)] for r in range(m.rows)]
        return {
            "field": f.name,
            "quiver": self.quiver.to_json(),
            "d": list(self.dims.d.coords),
            "v": list(self.dims.v.coords),
            "B": {a: dump_mat(m) for a, m in sorted(self.B.items())},
            "gamma": {str(vert): dump_mat(m) for vert, m in sorted(self.gamma.items())},
            "delta": {str(vert): dump_mat(m) for vert, m in sorted(self.delta.items())},
        }

    @classmethod
    def from_json(cls, obj, quiver=None):
        """Inverse of `to_json`; a missing or malformed entry is a
        QuiverLabError that names it."""
        q = quiver if quiver is not None else Quiver.from_json(_json_entry(obj, "point", "quiver"))
        try:
            f = field_from_name(_json_entry(obj, "point", "field"))
        except WrongField as e:
            raise WrongField(f"point JSON entry ['field'] is not a field: {e}") from None
        dims = DimData(*(_json_entry(obj, "point", key, kind="ints", error=ShapeMismatch)
                         for key in ("d", "v")))

        def load_mat(blk, r, c):
            keys = (blk.part, str(blk.key))
            rows = _json_entry(obj, "point", *keys, kind="rows", error=ShapeMismatch)
            try:
                data = [f.parse(x) for row in rows for x in row]
            except (WrongField, ValueError, ZeroDivisionError) as e:
                raise WrongField(f"point JSON entry {_json_path(keys)} has an entry that is "
                                 f"not in {f.name}: {e}") from None
            if len(data) != r * c:
                raise ShapeMismatch(f"point JSON entry {_json_path(keys)} has {len(data)} "
                                    f"entries, a {r}x{c} block needs {r * c}")
            return Mat(f, r, c, data)

        return cls.build(q, dims, f, load_mat)


def _signed(eps, m: Mat) -> Mat:
    """eps * m for an arrow sign eps = +1 or -1 (`Quiver` checks that it is
    one of the two).  A Mat is never mutated, so m itself serves for +1."""
    return m if eps == 1 else -m


class VertexAB(NamedTuple):
    vertex: object
    layout: tuple  # per summand of T_i, in Quiver.star order: ("D", i) or ("V", arrow id, source)
    a: Mat         # V_i -> T_i
    b: Mat         # T_i -> V_i


def assemble_ab(s: FramedPoint, vertex) -> VertexAB:
    """a_i stacks the `out` blocks of q.star[vertex]; b_i lays their
    eps-scaled `into` blocks side by side.  InvalidQuiver for a vertex not
    in the quiver.  Assembled at most once per point and vertex, and
    memoized on the point (`FramedPoint._ab`)."""
    ab = s._ab.get(vertex)
    if ab is not None:
        return ab
    q = s.quiver
    q.vertex_index(vertex)  # names an unknown vertex
    star = q.star[vertex]
    layout = tuple(into.col if into.part == "gamma" else ("V", into.key, into.col[1])
                   for _, into, _ in star)
    a = vstack([s.block(out) for _, _, out in star])
    b = hstack([_signed(eps, s.block(into)) for eps, into, _ in star])
    ab = s._ab[vertex] = VertexAB(vertex, layout, a, b)
    return ab


def split_ab(s: FramedPoint, ab: VertexAB, a2: Mat, b2: Mat) -> FramedPoint:
    """Inverse of `assemble_ab`: the point s with the blocks at ab.vertex
    read off a2 : V'_i -> T_i and b2 : T_i -> V'_i along q.star, and
    v_i = a2.cols.  Every other block is s's.

    The new point's (a_i, b_i) at ab.vertex is seeded with (a2, b2), which
    is what assembling it gives, as T_i does not change; its other memos
    are carried over from s by `_carry_memos`."""
    q = s.quiver
    q.vertex_index(ab.vertex)  # names an unknown vertex
    size = s.dims.sizes(q)
    parts = {"B": dict(s.B), "gamma": dict(s.gamma), "delta": dict(s.delta)}
    start = 0
    for eps, into, out in q.star[ab.vertex]:
        stop = start + size[into.col]
        parts[out.part][out.key] = a2.submatrix(range(start, stop), range(a2.cols))
        parts[into.part][into.key] = _signed(eps, b2.submatrix(range(b2.rows), range(start, stop)))
        start = stop
    t = FramedPoint(q, s.dims.with_v(q, ab.vertex, a2.cols), s.field, **parts)
    _carry_memos(s, t)
    t._ab[ab.vertex] = VertexAB(ab.vertex, ab.layout, a2, b2)
    return t


def _carry_memos(s: FramedPoint, t: FramedPoint):
    """Copy into t each mu_j and VertexAB memoized on s whose q.star[j]
    blocks are the same objects in s and t; so a move at vertex i leaves
    both to be recomputed at i and at the neighbours j of i."""
    for vert in s._mu.keys() | s._ab.keys():
        if all(s.block(into) is t.block(into) and s.block(out) is t.block(out)
               for _, into, out in s.quiver.star[vert]):
            for src, dst in ((s._mu, t._mu), (s._ab, t._ab)):
                if vert in src:
                    dst[vert] = src[vert]


def moment_map(s: FramedPoint) -> dict:
    """mu_i = b_i a_i at every vertex i (the summands are `Quiver.star`'s),
    as a new dict.

    Each mu_i is computed at most once per point and memoized on it
    (`FramedPoint._mu`), from the (a_i, b_i) that `assemble_ab` memoizes
    (`FramedPoint._ab`).  That is sound because a point is frozen and no Mat
    is mutated after construction; `split_ab` seeds (a_i, b_i) at the moved
    vertex and carries a memoized mu_j and (a_j, b_j) over to the new point
    only where every block of q.star[j] is the same object in both."""
    memo = s._mu
    for vert in s.quiver.vertices:
        if vert not in memo:
            ab = assemble_ab(s, vert)
            memo[vert] = ab.b * ab.a
    return {vert: memo[vert] for vert in s.quiver.vertices}


def moment_map_real(s: FramedPoint) -> dict:
    """Imaginary-part moment map (i/2)(b b* - a* a); needs Gaussian rationals."""
    if s.field.kind != "Qi":
        raise WrongField("real moment map needs the Gaussian rational field")
    half_i = s.field.i() * Fraction(1, 2)
    out = {}
    for vert in s.quiver.vertices:
        ab = assemble_ab(s, vert)
        m = ab.b * ab.b.conj_transpose() - ab.a.conj_transpose() * ab.a
        out[vert] = m.scale(half_i)
    return out


def moment_matches(s: FramedPoint, lam: WeightVec) -> bool:
    """Exact test of mu(s) = lambda Id, vertex by vertex; ShapeMismatch
    unless lambda has one entry per vertex."""
    q = s.quiver
    _check_len(q, lam, "lambda")
    mu = moment_map(s)
    return all(mu[vert].is_scalar(lam[q.vertex_index(vert)]) for vert in q.vertices)


def _block_inverse(m, what):
    """inverse(m); SingularBlock naming `what` when m is not invertible."""
    try:
        return inverse(m)
    except (NotSquare, SingularMatrix):
        raise SingularBlock(f"{what} is singular") from None


class GroupElement(_Record):
    """Block-diagonal change of basis: invertible g_i on V_i, and an optional
    invertible block per framing space D_i.  A space without a block is
    acted on by the identity.

    The constructor inverts each block once; that inversion is also the
    invertibility check, and `group_act` reuses the inverses.  A caller that
    already holds the inverse of blocks[i] passes it in `_inverses[i]`; that
    block is then neither inverted nor checked."""

    _fields = ("blocks", "framing_blocks")  # vertex -> Mat on V_i; the same on D_i, or None

    def __init__(self, blocks, framing_blocks=None, _inverses=None):
        super().__init__(blocks, framing_blocks)
        known = _inverses or {}
        act = {}
        for vert, m in self.blocks.items():
            if vert in known:
                act["V", vert] = (m, known[vert])
                continue
            if m.rows != m.cols:
                raise SingularBlock(f"block at {vert} is not square")
            act["V", vert] = (m, _block_inverse(m, f"block at {vert}"))
        for vert, m in (self.framing_blocks or {}).items():
            act["D", vert] = (m, _block_inverse(m, f"framing block at {vert}"))
        vars(self).update(_inverses=_inverses, _act=act)  # _act: space -> (block, inverse)


def identity_group(q, dims, field=QQ) -> GroupElement:
    return GroupElement(
        {vert: Mat.identity(field, dims.v_of(q, vert)) for vert in q.vertices}
    )


def random_group(q, dims, field, rng, height=5) -> GroupElement:
    pairs = {
        vert: _random_invertible_pair(field, dims.v_of(q, vert), rng, height)
        for vert in q.vertices
    }
    return GroupElement({vert: m for vert, (m, _) in pairs.items()},
                        _inverses={vert: inv for vert, (_, inv) in pairs.items()})


def group_act(g: GroupElement, s: FramedPoint) -> FramedPoint:
    """Each block M : col -> row goes to g_row M g_col^{-1}, where g acts on
    V_i by g_i and on D_i by its framing block f_i, if any:
    (B, gamma, delta) -> (g_{h1} B g_{h0}^{-1}, g gamma f^{-1}, f delta g^{-1})."""
    return FramedPoint.build(s.quiver, s.dims, s.field, lambda blk, r, c: _moved_block(g, s, blk))


def _moved_block(g: GroupElement, s: FramedPoint, blk: Block) -> Mat:
    """The block blk of group_act(g, s), alone."""
    act, m = g._act, s.block(blk)
    if blk.row in act:
        m = act[blk.row][0] * m
    if blk.col in act:
        m = m * act[blk.col][1]
    return m


# -- fiber sampling ----------------------------------------------------------


def sample_fiber(
    q,
    dims: DimData,
    lam: WeightVec,
    seed=None,
    rng=None,
    field=QQ,
    height=10,
    retries=25,
):
    """Random point with mu(s) = lambda Id, exactly.

    Draws the eps = +1 half of the arrows and all gamma blocks at random,
    then solves the moment equations, which are linear in the remaining
    blocks, and randomizes along the solution space.  Retries with a fresh
    draw when the linear system happens to be inconsistent; raises
    FiberSampleFailed once the budget is exhausted (e.g. the fiber is empty,
    as for a single vertex with d = 0, v = 1, lambda != 0).
    """
    import random as _random

    size = dims.sizes(q)
    _check_len(q, lam, "lambda")
    if retries < 1:
        raise RangeViolation(f"retries is {retries}; it must be >= 1")
    if field.kind != "Fp" and height < 1:  # F_p draws ignore the height
        raise RangeViolation(f"height is {height}; it must be >= 1")
    if rng is None:
        rng = _random.Random(seed)
    last_err = None
    for _ in range(retries):
        # draws: the eps = +1 arrows in q.arrows order, then every gamma
        known = {
            (blk.part, blk.key): random_matrix(field, size[blk.row], size[blk.col], rng, height)
            for blk in q.layout
            if blk.part == "gamma" or blk.part == "B" and q.arrow(blk.key).eps == 1
        }

        # unknowns: the eps = -1 arrows by id, then every delta block
        system = BlockSystem(field)
        for a in sorted(q.arrows, key=lambda a: a.id):
            if a.eps == -1:
                system.unknown(("B", a.id), dims.v_of(q, a.h1), dims.v_of(q, a.h0))
        for vert in q.vertices:
            system.unknown(("delta", vert), dims.d_of(q, vert), dims.v_of(q, vert))
        # mu_i = sum of eps * into * out over q.star[i]; each product has one
        # drawn factor, which times eps is the coefficient of the other
        for vert in q.vertices:
            terms = []
            for eps, into, out in q.star[vert]:
                if into[:2] in known:  # (part, key)
                    terms.append((_signed(eps, known[into[:2]]), out[:2], None))
                else:
                    terms.append((None, into[:2], _signed(eps, known[out[:2]])))
            vi = dims.v_of(q, vert)
            system.equation(terms, Mat.scalar(field, vi, lam[q.vertex_index(vert)]))
        try:
            sol = solve_right(*system.matrix())
        except NoSolution as e:
            last_err = e
            continue
        # particular + sum of c_k h_k on the whole solution column, one
        # draw per direction, then split into the unknown blocks once
        x = sol.particular
        for h in sol.homogeneous:
            x = x + h.scale(field.random(rng, height))

        known.update(system._split(x))
        point = FramedPoint.build(q, dims, field, lambda blk, r, c: known[blk.part, blk.key])
        if not moment_matches(point, lam):
            raise AssertionError("sampler produced a point off the fiber")
        return point
    raise FiberSampleFailed(f"no fiber point found in {retries} draws ({last_err})")
