"""Framed representation points, moment maps, group actions, fiber sampling.

A point assigns a matrix B_h to every arrow of the double and a framing pair
gamma_i : D_i -> V_i, delta_i : V_i -> D_i to every vertex.  The two derived
maps at a vertex,

    a_i = (delta_i, (B_{bar h})_{h1 = i}) : V_i -> T_i   (stacked)
    b_i = (gamma_i, (eps(h) B_h)_{h1 = i}) : T_i -> V_i  (side by side)

with T_i = D_i + sum of V_{h0} over incoming arrows, are packaged as a
`VertexAB` whose `layout` records the summand order (framing block first,
then incoming arrows ascending by id).  Consumers must read the layout, not
assume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FiberSampleFailed,
    NoSolution,
    RangeViolation,
    ShapeMismatch,
    SingularBlock,
    WrongField,
)
from .fields import QQ, field_from_name
from .linalg import (
    BlockSystem,
    Mat,
    hstack,
    inverse,
    is_invertible,
    random_matrix,
    random_invertible,
    vstack,
)
from .quiver import Quiver, RootVec, WeightVec, _check_len, _json_entry


@dataclass(frozen=True)
class DimData:
    """Dimension bookkeeping: framing spaces d (weight), fiber spaces v (root)."""

    d: WeightVec
    v: RootVec

    def d_of(self, q, vertex):
        return self.d[q.vertex_index(vertex)]

    def v_of(self, q, vertex):
        return self.v[q.vertex_index(vertex)]

    def check(self, q):
        """ShapeMismatch unless d and v have one entry per vertex of q;
        RangeViolation if an entry is negative."""
        for vec, nm in ((self.d, "d"), (self.v, "v")):
            _check_len(q, vec, nm)
            for k, x in enumerate(vec):
                if x < 0:
                    raise RangeViolation(f"{nm}[{k}] is {x}; dimensions must be >= 0")

    def space_dimension(self, q):
        """dim of the whole representation space: arrows + two framing blocks."""
        self.check(q)
        vi = {vert: self.v_of(q, vert) for vert in q.vertices}
        arrows = sum(vi[a.h1] * vi[a.h0] for a in q.arrows)
        framing = sum(
            2 * self.d_of(q, vert) * self.v_of(q, vert) for vert in q.vertices
        )
        return arrows + framing


@dataclass(frozen=True)
class FramedPoint:
    quiver: Quiver
    dims: DimData
    field: object
    B: dict       # arrow id -> Mat (v_{h1} x v_{h0})
    gamma: dict   # vertex -> Mat (v_i x d_i)
    delta: dict   # vertex -> Mat (d_i x v_i)

    def __post_init__(self):
        q = self.quiver
        self.dims.check(q)
        for a in q.arrows:
            m = self.B.get(a.id)
            want = (self.dims.v_of(q, a.h1), self.dims.v_of(q, a.h0))
            if m is None or m.shape() != want:
                raise ShapeMismatch(f"B[{a.id}] must be {want}")
            if m.field.name != self.field.name:
                raise WrongField(f"B[{a.id}] over {m.field.name}")
        for vert in q.vertices:
            vi, di = self.dims.v_of(q, vert), self.dims.d_of(q, vert)
            g = self.gamma.get(vert)
            if g is None or g.shape() != (vi, di):
                raise ShapeMismatch(f"gamma[{vert}] must be {(vi, di)}")
            dl = self.delta.get(vert)
            if dl is None or dl.shape() != (di, vi):
                raise ShapeMismatch(f"delta[{vert}] must be {(di, vi)}")
            if g.field.name != self.field.name or dl.field.name != self.field.name:
                raise WrongField(f"framing at {vert} over wrong field")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, q, dims, field=QQ):
        dims.check(q)
        B = {
            a.id: Mat.zeros(field, dims.v_of(q, a.h1), dims.v_of(q, a.h0))
            for a in q.arrows
        }
        gamma = {
            vert: Mat.zeros(field, dims.v_of(q, vert), dims.d_of(q, vert))
            for vert in q.vertices
        }
        delta = {
            vert: Mat.zeros(field, dims.d_of(q, vert), dims.v_of(q, vert))
            for vert in q.vertices
        }
        return cls(q, dims, field, B, gamma, delta)

    @classmethod
    def random(cls, q, dims, field, rng, height=10):
        """Uniform garbage in the ambient space; no moment condition."""
        dims.check(q)
        B = {
            a.id: random_matrix(field, dims.v_of(q, a.h1), dims.v_of(q, a.h0), rng, height)
            for a in q.arrows
        }
        gamma = {
            vert: random_matrix(field, dims.v_of(q, vert), dims.d_of(q, vert), rng, height)
            for vert in q.vertices
        }
        delta = {
            vert: random_matrix(field, dims.d_of(q, vert), dims.v_of(q, vert), rng, height)
            for vert in q.vertices
        }
        return cls(q, dims, field, B, gamma, delta)

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
        def entry(*keys):
            return _json_entry(obj, "point", *keys)

        q = quiver if quiver is not None else Quiver.from_json(entry("quiver"))
        f = field_from_name(entry("field"))
        dims = DimData(WeightVec(tuple(entry("d"))), RootVec(tuple(entry("v"))))
        dims.check(q)

        def load_mat(rows_json, r, c):
            data = [f.parse(x) for row in rows_json for x in row]
            if len(data) != r * c:
                raise ShapeMismatch("matrix entry count mismatch in JSON")
            return Mat(f, r, c, data)

        B = {
            a.id: load_mat(entry("B", a.id), dims.v_of(q, a.h1), dims.v_of(q, a.h0))
            for a in q.arrows
        }
        gamma = {
            vert: load_mat(entry("gamma", str(vert)), dims.v_of(q, vert), dims.d_of(q, vert))
            for vert in q.vertices
        }
        delta = {
            vert: load_mat(entry("delta", str(vert)), dims.d_of(q, vert), dims.v_of(q, vert))
            for vert in q.vertices
        }
        return cls(q, dims, f, B, gamma, delta)


@dataclass(frozen=True)
class VertexAB:
    vertex: object
    layout: tuple  # ("D", vertex) then ("V", arrow_id, source_vertex) ascending by id
    a: Mat         # V_i -> T_i
    b: Mat         # T_i -> V_i


def assemble_ab(s: FramedPoint, vertex) -> VertexAB:
    q = s.quiver
    incoming = q.arrows_into(vertex)
    layout = (("D", vertex),) + tuple(("V", a.id, a.h0) for a in incoming)
    a_blocks = [s.delta[vertex]]
    b_blocks = [s.gamma[vertex]]
    for arr in incoming:
        a_blocks.append(s.B[arr.bar])           # B_{bar h} : V_i -> V_{h0}
        b_blocks.append(s.B[arr.id].scale(arr.eps))  # eps(h) B_h : V_{h0} -> V_i
    return VertexAB(vertex, layout, vstack(a_blocks), hstack(b_blocks))


def moment_map(s: FramedPoint) -> dict:
    """mu_i = sum over incoming h of eps(h) B_h B_{bar h} + gamma_i delta_i.

    Computed both from that sum and as b_i a_i; the two must agree exactly
    (they do by construction, the assertion guards the packing code).
    """
    q = s.quiver
    out = {}
    for vert in q.vertices:
        vi = s.dims.v_of(q, vert)
        acc = s.gamma[vert] * s.delta[vert]
        for arr in q.arrows_into(vert):
            acc = acc + (s.B[arr.id] * s.B[arr.bar]).scale(arr.eps)
        ab = assemble_ab(s, vert)
        cross = ab.b * ab.a
        if acc != cross:
            raise AssertionError(f"moment cross-check failed at vertex {vert}")
        out[vert] = acc if vi else Mat.zeros(s.field, 0, 0)
    return out


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
    """Exact test of mu(s) = lambda Id, vertex by vertex."""
    q = s.quiver
    mu = moment_map(s)
    for vert in q.vertices:
        vi = s.dims.v_of(q, vert)
        want = Mat.scalar(s.field, vi, s.field.coerce(lam[q.vertex_index(vert)]))
        if mu[vert] != want:
            return False
    return True


@dataclass(frozen=True)
class GroupElement:
    """Block-diagonal change of basis: invertible g_i on each V_i, and an
    optional invertible block per framing space D_i."""

    blocks: dict  # vertex -> Mat on V_i
    framing_blocks: dict | None = None

    def __post_init__(self):
        for vert, m in self.blocks.items():
            if m.rows != m.cols:
                raise SingularBlock(f"block at {vert} is not square")
            if not is_invertible(m):
                raise SingularBlock(f"block at {vert} is singular")
        if self.framing_blocks:
            for vert, m in self.framing_blocks.items():
                if m.rows != m.cols or not is_invertible(m):
                    raise SingularBlock(f"framing block at {vert} is singular")


def identity_group(q, dims, field=QQ) -> GroupElement:
    return GroupElement(
        {vert: Mat.identity(field, dims.v_of(q, vert)) for vert in q.vertices}
    )


def random_group(q, dims, field, rng, height=5) -> GroupElement:
    return GroupElement(
        {
            vert: random_invertible(field, dims.v_of(q, vert), rng, height)
            for vert in q.vertices
        }
    )


def group_act(g: GroupElement, s: FramedPoint) -> FramedPoint:
    """(B, gamma, delta) -> (g_{h1} B g_{h0}^{-1}, g gamma, delta g^{-1}) on the
    fiber side, and (B, gamma g^{-1}, g delta) for the optional framing side."""
    q = s.quiver
    inv = {vert: inverse(m) for vert, m in g.blocks.items()}
    B = {
        a.id: g.blocks[a.h1] * s.B[a.id] * inv[a.h0]
        for a in q.arrows
    }
    gamma = {vert: g.blocks[vert] * s.gamma[vert] for vert in q.vertices}
    delta = {vert: s.delta[vert] * inv[vert] for vert in q.vertices}
    if g.framing_blocks:
        finv = {vert: inverse(m) for vert, m in g.framing_blocks.items()}
        gamma = {vert: gamma[vert] * finv[vert] for vert in q.vertices}
        delta = {vert: g.framing_blocks[vert] * delta[vert] for vert in q.vertices}
    return FramedPoint(q, s.dims, s.field, B, gamma, delta)


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

    dims.check(q)
    _check_len(q, lam, "lambda")
    if rng is None:
        rng = _random.Random(seed)
    last_err = None
    for _ in range(retries):
        known_B = {
            a.id: random_matrix(field, dims.v_of(q, a.h1), dims.v_of(q, a.h0), rng, height)
            for a in q.arrows
            if a.eps == 1
        }
        gamma = {
            vert: random_matrix(
                field, dims.v_of(q, vert), dims.d_of(q, vert), rng, height
            )
            for vert in q.vertices
        }

        # unknowns: the eps = -1 arrows by id, then every delta block
        system = BlockSystem(field)
        for a in sorted(q.arrows, key=lambda a: a.id):
            if a.eps == -1:
                system.unknown(("B", a.id), dims.v_of(q, a.h1), dims.v_of(q, a.h0))
        for vert in q.vertices:
            system.unknown(("delta", vert), dims.d_of(q, vert), dims.v_of(q, vert))
        for vert in q.vertices:
            terms = []
            for arr in q.arrows_into(vert):
                if arr.eps == 1:  # + B_h U(bar h)
                    terms.append((known_B[arr.id], ("B", arr.bar), None))
                else:             # - U(h) B_{bar h}
                    terms.append((None, ("B", arr.id), -known_B[arr.bar]))
            terms.append((gamma[vert], ("delta", vert), None))
            vi = dims.v_of(q, vert)
            system.equation(terms, Mat.scalar(field, vi, lam[q.vertex_index(vert)]))
        try:
            x, homogeneous = system.solve()
        except NoSolution as e:
            last_err = e
            continue
        for h in homogeneous:
            c = field.random(rng, height)
            x = {key: m + h[key].scale(c) for key, m in x.items()}

        B = dict(known_B)
        B.update({key: m for (kind, key), m in x.items() if kind == "B"})
        delta = {key: m for (kind, key), m in x.items() if kind == "delta"}
        point = FramedPoint(q, dims, field, B, gamma, delta)
        if not moment_matches(point, lam):
            raise AssertionError("sampler produced a point off the fiber")
        return point
    raise FiberSampleFailed(f"no fiber point found in {retries} draws ({last_err})")
