"""Paths in the double, framed loop words, invariants, intertwiners.

Path literals: arrow ids joined by dots in composition order, so "h3.h1"
applies h1 first, then h3; "e1" is the empty path at vertex 1.  Framed loop
words (paths decorated with powers of gamma delta at intermediate vertices)
are written in brackets with the rightmost factor applied first:
"[2^1 h3.h1 1^2]" means (gamma_2 delta_2)^1 . (h3 h1) . (gamma_1 delta_1)^2.

The empty path evaluates to the identity.  (Some sources read it as zero;
that makes every framing invariant collapse.)
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import InvalidQuiver, NoSolution, RangeViolation, ShapeMismatch, SingularBlock
from .linalg import BlockSystem, Mat
from .quiver import Quiver, _Record
from .repspace import FramedPoint, GroupElement, _moved_block, identity_group


class PathExpr(_Record):
    """A composable word of arrows; `arrow_ids` in application order."""

    _fields = ("quiver", "arrow_ids", "base_vertex")  # base_vertex only when arrow_ids is empty

    def __init__(self, quiver, arrow_ids, base_vertex=None):
        super().__init__(quiver, tuple(arrow_ids), base_vertex)
        q = self.quiver
        if not self.arrow_ids:
            if self.base_vertex is None or self.base_vertex not in q.vertices:
                raise InvalidQuiver("empty path needs a valid base vertex")
            return
        prev = None
        for aid in self.arrow_ids:
            arr = q.arrow(aid)
            if prev is not None and prev != arr.h0:
                raise InvalidQuiver(f"path breaks at {aid}: {prev} != {arr.h0}")
            prev = arr.h1

    @property
    def source(self):
        if not self.arrow_ids:
            return self.base_vertex
        return self.quiver.arrow(self.arrow_ids[0]).h0

    @property
    def target(self):
        if not self.arrow_ids:
            return self.base_vertex
        return self.quiver.arrow(self.arrow_ids[-1]).h1

    def __len__(self):
        return len(self.arrow_ids)

    @property
    def is_closed(self):
        return self.source == self.target

    def __mul__(self, other):
        """self after other (matrix-style composition)."""
        if not isinstance(other, PathExpr):
            return NotImplemented
        if other.target != self.source:
            raise InvalidQuiver("paths do not compose")
        if not self.arrow_ids and not other.arrow_ids:
            return PathExpr(self.quiver, (), self.base_vertex)
        return PathExpr(self.quiver, other.arrow_ids + self.arrow_ids)


def empty_path(q, vertex):
    return PathExpr(q, (), vertex)


class BPathExpr(_Record):
    """Alternating word (gamma delta)^{r_{m+1}} . path_m . ... . path_1 . (gamma delta)^{r_1}.

    `vertices` is the chain i_1 .. i_{m+1}; `paths` has length m and
    paths[j] runs from vertices[j] to vertices[j+1]; `loop_exponents` has
    length m+1.
    """

    _fields = ("quiver", "vertices", "loop_exponents", "paths")

    def __init__(self, quiver, vertices, loop_exponents, paths):
        super().__init__(quiver, tuple(vertices), tuple(loop_exponents), tuple(paths))
        if len(self.vertices) != len(self.paths) + 1:
            raise ShapeMismatch("vertex chain length must be #paths + 1")
        if len(self.loop_exponents) != len(self.vertices):
            raise ShapeMismatch("need one loop exponent per chain vertex")
        if any(r < 0 for r in self.loop_exponents):
            raise RangeViolation("loop exponents must be >= 0")
        for v in self.vertices:
            if v not in self.quiver.vertices:
                raise InvalidQuiver(f"unknown vertex {v}")
        for j, p in enumerate(self.paths):
            if p.source != self.vertices[j] or p.target != self.vertices[j + 1]:
                raise InvalidQuiver(f"segment {j} does not match the vertex chain")

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    @property
    def is_path_algebra_element(self):
        return all(r == 0 for r in self.loop_exponents)


# -- literals ---------------------------------------------------------------

_LOOP_TOKEN = re.compile(r"^(-?\d+)\^(\d+)$")
_EMPTY_TOKEN = re.compile(r"^e(-?\d+)$")


def format_path(p: PathExpr) -> str:
    if not p.arrow_ids:
        return f"e{p.base_vertex}"
    return ".".join(reversed(p.arrow_ids))


def parse_path(q: Quiver, text: str) -> PathExpr:
    text = text.strip()
    m = _EMPTY_TOKEN.match(text)
    if m:
        return empty_path(q, int(m.group(1)))
    ids = tuple(reversed([t for t in text.split(".") if t]))
    return PathExpr(q, ids)


def format_bpath(b: BPathExpr) -> str:
    toks = []
    for j in range(len(b.vertices) - 1, -1, -1):
        toks.append(f"{b.vertices[j]}^{b.loop_exponents[j]}")
        if j > 0:
            toks.append(format_path(b.paths[j - 1]))
    return "[" + " ".join(toks) + "]"


def parse_bpath(q: Quiver, text: str) -> BPathExpr:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InvalidQuiver(f"framed word literal must be bracketed: {text!r}")
    toks = text[1:-1].split()
    if len(toks) % 2 == 0 or not toks:
        raise InvalidQuiver("framed word literal must alternate loops and paths")
    toks = list(reversed(toks))  # now in application order
    vertices, exps, paths = [], [], []
    for k, tok in enumerate(toks):
        if k % 2 == 0:
            m = _LOOP_TOKEN.match(tok)
            if not m:
                raise InvalidQuiver(f"expected vertex^exponent, got {tok!r}")
            vertices.append(int(m.group(1)))
            exps.append(int(m.group(2)))
        else:
            paths.append(parse_path(q, tok))
    return BPathExpr(q, tuple(vertices), tuple(exps), tuple(paths))


def parse_expr(q: Quiver, text: str):
    """Either a path literal or a bracketed framed-word literal."""
    text = text.strip()
    if text.startswith("["):
        return parse_bpath(q, text)
    return parse_path(q, text)


# -- evaluation ----------------------------------------------------------------------


def evaluate(expr, s: FramedPoint) -> Mat:
    """Evaluate a path or framed word at a point; a (v_target x v_source) matrix.

    The empty path gives the identity on V_i.
    """
    if expr.quiver != s.quiver:
        raise ShapeMismatch("expression and point live on different quivers")
    q = s.quiver
    if isinstance(expr, PathExpr):
        vi = s.dims.v_of(q, expr.source)
        if not expr.arrow_ids:
            return Mat.identity(s.field, vi)
        acc = s.B[expr.arrow_ids[0]]
        for aid in expr.arrow_ids[1:]:
            acc = s.B[aid] * acc
        return acc
    if isinstance(expr, BPathExpr):
        def loop_power(vertex, r):
            vi = s.dims.v_of(q, vertex)
            m = Mat.identity(s.field, vi)
            gd = s.gamma[vertex] * s.delta[vertex]
            for _ in range(r):
                m = gd * m
            return m

        acc = loop_power(expr.vertices[0], expr.loop_exponents[0])
        for j, p in enumerate(expr.paths):
            acc = evaluate(p, s) * acc
            acc = loop_power(expr.vertices[j + 1], expr.loop_exponents[j + 1]) * acc
        return acc
    raise ShapeMismatch(f"cannot evaluate {type(expr).__name__}")


def enumerate_paths(q: Quiver, max_len: int):
    """All nonempty paths of length <= max_len, shortest first, arrows in id
    order; deterministic, so invariant lists line up between points."""
    if max_len < 0:
        raise RangeViolation(f"max_len is {max_len}; it must be >= 0")
    arrows = sorted(q.arrows, key=lambda a: a.id)
    out_of = {vert: [a for a in arrows if a.h0 == vert] for vert in q.vertices}
    level = [PathExpr(q, (a.id,)) for a in arrows] if max_len else []
    for p in level:
        yield p
    for _ in range(max_len - 1):
        nxt = []
        for p in level:
            for a in out_of[p.target]:
                ext = PathExpr(q, p.arrow_ids + (a.id,))
                nxt.append(ext)
                yield ext
        level = nxt


def lusztig_invariants(s: FramedPoint, max_len: int):
    """The classical generating invariants, exactly evaluated:

      * Tr(path) for every closed path of length 1..max_len,
      * every entry of delta_target . path . gamma_source for every path of
        length 0..max_len (length 0 gives the delta_i gamma_i blocks).

    Returned as (descriptor, value) pairs in a deterministic order.  Constant
    traces of empty paths are omitted: they only encode v_i and would differ
    across points with different fiber dimensions, which is exactly the
    comparison the projection tools need.
    """
    q = s.quiver
    traces, framing = [], []

    def framing_entries(lit, m):
        for r in range(m.rows):
            for c in range(m.cols):
                framing.append((("fr", lit, r, c), m[r, c]))

    for vert in q.vertices:
        framing_entries(format_path(empty_path(q, vert)), s.delta[vert] * s.gamma[vert])
    # every prefix is enumerated before its extensions
    mats = {}
    for p in enumerate_paths(q, max_len):
        ids = p.arrow_ids
        m = s.B[ids[-1]]
        if len(ids) > 1:
            m = m * mats[ids[:-1]]
        mats[ids] = m
        lit = format_path(p)
        if p.is_closed:
            traces.append((("tr", lit), m.trace()))
        framing_entries(lit, s.delta[p.target] * m * s.gamma[p.source])
    return traces + framing


# -- intertwiners ----------------------------------------------------------


class Intertwiner(NamedTuple):
    """Vertex-wise maps V_i(s) -> V_i(t) commuting with all the data, with the
    framing identification on D fixed to the identity."""

    blocks: dict  # vertex -> Mat


def is_intertwiner(g: Intertwiner, s: FramedPoint, t: FramedPoint) -> bool:
    q = s.quiver
    for a in q.arrows:
        if g.blocks[a.h1] * s.B[a.id] != t.B[a.id] * g.blocks[a.h0]:
            return False
    for vert in q.vertices:
        if g.blocks[vert] * s.gamma[vert] != t.gamma[vert]:
            return False
        if t.delta[vert] * g.blocks[vert] != s.delta[vert]:
            return False
    return True


class HomSolution(NamedTuple):
    """The solution set of the intertwiner equations from s to t.

    The gamma/delta conditions have constant right-hand sides, so the set is
    affine: particular + span(basis).  `exists` is False when the system is
    inconsistent (then both other fields are empty)."""

    exists: bool
    particular: Intertwiner | None
    basis: tuple

    @property
    def dimension(self):
        return len(self.basis) if self.exists else None

    def element(self, coeffs):
        blocks = {v: m for v, m in self.particular.blocks.items()}
        for c, b in zip(coeffs, self.basis):
            for v in blocks:
                blocks[v] = blocks[v] + b.blocks[v].scale(c)
        return Intertwiner(blocks)


def hom_space(s: FramedPoint, t: FramedPoint) -> HomSolution:
    """Exact solution set of the intertwiner equations (framing fixed to Id)."""
    if s.quiver != t.quiver:
        raise ShapeMismatch("points live on different quivers")
    if s.field.name != t.field.name:
        raise ShapeMismatch("points live over different fields")
    q = s.quiver
    system = BlockSystem(s.field)
    for vert in q.vertices:
        system.unknown(vert, t.dims.v_of(q, vert), s.dims.v_of(q, vert))
    for a in q.arrows:  # g_{h1} B_h(s) - B_h(t) g_{h0} = 0
        zero = Mat.zeros(s.field, t.dims.v_of(q, a.h1), s.dims.v_of(q, a.h0))
        system.equation([(None, a.h1, s.B[a.id]), (-t.B[a.id], a.h0, None)], zero)
    for vert in q.vertices:
        system.equation([(None, vert, s.gamma[vert])], t.gamma[vert])  # g gamma(s) = gamma(t)
        system.equation([(t.delta[vert], vert, None)], s.delta[vert])  # delta(t) g = delta(s)
    try:
        particular, basis = system.solve()
    except NoSolution:
        return HomSolution(False, None, ())
    return HomSolution(
        True, Intertwiner(particular), tuple(Intertwiner(b) for b in basis)
    )


class OrbitDecision(NamedTuple):
    kind: str  # "yes" | "no" | "unknown"
    witness: GroupElement | None = None
    reason: str = ""


# orbit_equivalent compares the Lusztig invariants of paths up to this
# length only on the way to a "no": equal invariants never prove a "yes".
# It then tries this many random combinations of a hom-set basis.
ORBIT_INVARIANT_LEN = 4
ORBIT_TRIALS = 24


def _invariant_mismatch(s: FramedPoint, t: FramedPoint):
    """A "no" naming the first Lusztig invariant that differs, else None."""
    inv_s = lusztig_invariants(s, ORBIT_INVARIANT_LEN)
    inv_t = lusztig_invariants(t, ORBIT_INVARIANT_LEN)
    for (ds_, vs_), (_, vt_) in zip(inv_s, inv_t):
        if vs_ != vt_:
            return OrbitDecision("no", reason=f"invariant mismatch at {ds_}")
    return None


def orbit_equivalent(s: FramedPoint, t: FramedPoint, seed=0) -> OrbitDecision:
    """Decide whether t = g . s for some invertible block tuple g.

    Yes always comes with a verified witness.  hom(s, t) is solved first,
    and an invertible particular solution that moves s to t answers yes.
    Only then are the Lusztig invariants compared; they can certify only a
    no, and a mismatch is reported before any hom-set reason.  No is
    otherwise certified by an empty or dimension-mismatched hom set, or by a
    zero-dimensional hom set whose single point is singular.  When the hom
    set is positive-dimensional and every tried combination is singular the
    answer stays Unknown: random evaluation cannot soundly prove that the
    determinant vanishes on the whole affine set.  When every fiber is zero
    the invariants are compared and no hom set is solved.
    """
    import random as _random

    if s.dims != t.dims:
        raise ShapeMismatch("orbit comparison needs equal dimension data")
    q = s.quiver
    if all(s.dims.v_of(q, vert) == 0 for vert in q.vertices):
        return _invariant_mismatch(s, t) or OrbitDecision(
            "yes", identity_group(q, s.dims, s.field), "all fibers are zero")

    def try_candidate(g: Intertwiner):
        """g as a GroupElement when it is invertible and moves s to t; the
        moved blocks are compared with t's one at a time, up to the first
        that differs, and no moved point is built."""
        try:
            ge = GroupElement(dict(g.blocks))
        except SingularBlock:
            return None
        if all(_moved_block(ge, s, blk) == t.block(blk) for blk in q.layout):
            return ge
        return None  # cannot happen for true intertwiners; guards the solver

    fwd = hom_space(s, t)
    w = try_candidate(fwd.particular) if fwd.exists else None
    if w is not None:
        # w^{-1} lies in hom(t, s), and the linear parts of both hom sets are
        # isomorphic to that of hom(s, s): the backward checks cannot fail
        return OrbitDecision("yes", w, "particular solution is invertible")
    mismatch = _invariant_mismatch(s, t)
    if mismatch is not None:
        return mismatch
    if not fwd.exists:
        return OrbitDecision("no", reason="no intertwiner in one direction")
    bwd = hom_space(t, s)
    if not bwd.exists:
        return OrbitDecision("no", reason="no intertwiner in one direction")
    if fwd.dimension != bwd.dimension:
        return OrbitDecision("no", reason="hom dimensions differ between directions")
    r = fwd.dimension
    if r == 0:
        return OrbitDecision("no", reason="hom set is a single singular point")

    n_total = sum(s.dims.v_of(q, vert) for vert in q.vertices)
    for tv in range(1, n_total * r + 2):
        w = try_candidate(fwd.element([tv**j for j in range(1, r + 1)]))
        if w is not None:
            return OrbitDecision("yes", w, "deterministic scan")
    rng = _random.Random(seed)
    for _ in range(ORBIT_TRIALS):
        coeffs = [s.field.random(rng, 7) for _ in range(r)]
        w = try_candidate(fwd.element(coeffs))
        if w is not None:
            return OrbitDecision("yes", w, "random combination")
    return OrbitDecision(
        "unknown", reason="positive-dimensional hom set, all tried combinations singular"
    )

