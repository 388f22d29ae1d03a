"""Doubled quivers with framing, Cartan bookkeeping, and Weyl group actions.

A quiver here is always the double: arrows come in pairs h, bar(h) running in
opposite directions, no arrow is a loop, and a sign eps with eps(bar h) =
-eps(h) splits the arrow set into two halves.  Vertices are integers; the
order of the `vertices` tuple fixes the coordinate order of every vector.

Three coordinate systems coexist and are kept as distinct types on purpose:
weights (framing dimensions d, stability/deformation parameters m, lambda),
roots (dimension vectors v), and coroots (the test directions u of the
genericity walls).  Mixing them up compiles fine in untyped code and produces
silently wrong reflections, hence the wrappers.

A quiver is frozen, so what it fixes is built once and kept on it: its
block layout, the summands of each T_i, its Cartan data, and the space
dimensions `DimData.sizes` gives for each dims it meets (`_sizes`), each
checked once.  None of these enters its value.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import InvalidQuiver, NotFiniteType, QuiverLabError, RangeViolation, ShapeMismatch

# a quiver has at most this many vertices, as its Cartan tables are n x n;
# `info --quiver A120 --weyl` takes about 0.9 s (2 cores, Python 3.11)
MAX_VERTICES = 120


class _Record:
    """Base of the records that check or normalise their input or hold a
    memo.  A subclass names its value in `_fields` and passes it, in that
    order, to `_Record.__init__`.  Equality (same class, equal fields),
    hashing and repr read those fields alone, and every attribute is read
    only, as on a frozen dataclass."""

    _fields = ()

    def __init__(self, *values):
        vars(self).update(zip(self._fields, values))

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__  # called with the name alone


class Arrow(NamedTuple):
    id: str
    h0: int  # source vertex
    h1: int  # target vertex
    eps: int
    bar: str  # id of the reversed partner


class Block(NamedTuple):
    """One summand of a framed point: the matrix FramedPoint.<part>[key], a
    map from the space `col` to the space `row`; a space is ("V", i) or
    ("D", i)."""

    part: str    # "B", "gamma" or "delta"
    key: object  # arrow id for "B", vertex otherwise
    row: tuple
    col: tuple


class Quiver(_Record):
    _fields = ("vertices", "arrows")

    def __init__(self, vertices, arrows):
        super().__init__(tuple(vertices), tuple(arrows))
        self._validate()

    def _validate(self):
        if self.n > MAX_VERTICES:
            raise InvalidQuiver(f"quiver has {self.n} vertices, more than the limit {MAX_VERTICES}")
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise InvalidQuiver("duplicate vertices")
        ids = {}
        for a in self.arrows:
            if a.id in ids:
                raise InvalidQuiver(f"duplicate arrow id {a.id}")
            ids[a.id] = a
        for a in self.arrows:
            if a.h0 not in vs or a.h1 not in vs:
                raise InvalidQuiver(f"arrow {a.id} touches unknown vertex")
            if a.h0 == a.h1:
                raise InvalidQuiver(f"arrow {a.id} is a loop")
            if a.eps not in (1, -1):
                raise InvalidQuiver(f"arrow {a.id} has sign {a.eps}")
            if a.bar not in ids:
                raise InvalidQuiver(f"arrow {a.id} has unknown partner {a.bar}")
            b = ids[a.bar]
            if b.bar != a.id or b.id == a.id:
                raise InvalidQuiver(f"bar is not a fixed-point-free involution at {a.id}")
            if (b.h0, b.h1) != (a.h1, a.h0):
                raise InvalidQuiver(f"partner of {a.id} does not reverse it")
            if b.eps != -a.eps:
                raise InvalidQuiver(f"signs of {a.id}/{b.id} do not alternate")

    @cached_property
    def _by_id(self):
        return {a.id: a for a in self.arrows}

    @cached_property
    def _index(self):
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def layout(self):
        """Every block of a framed point on this quiver once: the arrows in
        `arrows` order, then gamma at every vertex, then delta at every
        vertex.  Built once per quiver."""
        return (
            tuple(Block("B", a.id, ("V", a.h1), ("V", a.h0)) for a in self.arrows)
            + tuple(Block("gamma", i, ("V", i), ("D", i)) for i in self.vertices)
            + tuple(Block("delta", i, ("D", i), ("V", i)) for i in self.vertices)
        )

    @cached_property
    def star(self):
        """vertex i -> the summands of T_i = D_i + sum of V_{h0} over the
        arrows h into i, in order, each as (eps, into, out): the layout
        blocks into : summand -> V_i and out : V_i -> summand.  First
        (1, gamma_i, delta_i), then (eps(h), B_h, B_{bar h}) for each arrow
        h into i, ascending by id.  The moment map is
        mu_i = sum of eps * into * out = b_i a_i.  Built once per quiver."""
        blk = {(b.part, b.key): b for b in self.layout}
        return {
            i: ((1, blk["gamma", i], blk["delta", i]),)
            + tuple((a.eps, blk["B", a.id], blk["B", a.bar]) for a in self.arrows_into(i))
            for i in self.vertices
        }

    @cached_property
    def _sizes(self):
        """(d, v) coordinates -> the `DimData.sizes` of those dims on this
        quiver, each built and checked once; read it through
        `DimData.sizes`."""
        return {}

    @cached_property
    def _cartan(self):
        """This quiver's `CartanData`, built once per quiver; read it
        through `cartan_data`."""
        n = self.n
        a = [[0] * n for _ in range(n)]
        for arr in self.arrows:
            a[self.vertex_index(arr.h0)][self.vertex_index(arr.h1)] += 1
        for i in range(n):
            for j in range(n):
                if a[i][j] != a[j][i]:
                    raise InvalidQuiver("adjacency is not symmetric")  # unreachable for valid doubles
        c = [[(2 if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        return CartanData(tuple(map(tuple, a)), tuple(map(tuple, c)))

    @property
    def n(self):
        return len(self.vertices)

    def vertex_index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise InvalidQuiver(f"unknown vertex {v!r}")

    def arrow(self, arrow_id):
        try:
            return self._by_id[arrow_id]
        except KeyError:
            raise InvalidQuiver(f"unknown arrow {arrow_id}")

    def arrows_into(self, v):
        """Arrows with target v, ascending by id."""
        return sorted((a for a in self.arrows if a.h1 == v), key=lambda a: a.id)

    def arrows_out_of(self, v):
        return sorted((a for a in self.arrows if a.h0 == v), key=lambda a: a.id)

    def omega(self):
        """The chosen half: arrows with eps = +1."""
        return [a for a in self.arrows if a.eps == 1]

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {"id": a.id, "from": a.h0, "to": a.h1, "eps": a.eps, "bar": a.bar}
                for a in self.arrows
            ],
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of `to_json`; a missing or malformed entry is a
        QuiverLabError that names it."""
        vertices = tuple(_json_entry(obj, "quiver", "vertices", kind="ints", error=InvalidQuiver))
        n_arrows = len(_json_entry(obj, "quiver", "arrows", kind="list", error=InvalidQuiver))
        arrows = tuple(
            Arrow(*(_json_entry(obj, "quiver", "arrows", k, f, kind=kind, error=InvalidQuiver)
                    for f, kind in _ARROW_KINDS))
            for k in range(n_arrows)
        )
        return cls(vertices, arrows)


def _ints_or_strs(x):
    return type(x) is list and all(type(c) in (int, str) for c in x)


# what a JSON entry of a quiver, point or chi-data file must be:
# kind -> (description, test)
_JSON_KINDS = {
    "int": ("an integer", lambda x: type(x) is int),
    "str": ("a string", lambda x: type(x) is str),
    "list": ("a list", lambda x: type(x) is list),
    "ints": ("a list of integers", lambda x: type(x) is list and all(type(v) is int for v in x)),
    "rows": ("a list of rows", lambda x: type(x) is list and all(type(r) is list for r in x)),
    "pairs": ("a list of [vertex, basis index] pairs",
              lambda x: type(x) is list and all(type(p) is list and len(p) == 2 for p in x)),
    "key": ("a list of a kind and indices", _ints_or_strs),
    "weight": ("a list of integers or fractions", _ints_or_strs),
}
_ARROW_KINDS = (("id", "str"), ("from", "int"), ("to", "int"), ("eps", "int"), ("bar", "str"))


def _json_path(keys):
    return "".join(f"[{k!r}]" for k in keys)


def _json_entry(obj, what, *keys, kind=None, error=QuiverLabError):
    """obj[k1][k2]..., read from `what` JSON (point, quiver, chi); a missing
    entry is a QuiverLabError that names it.  With a `kind` of _JSON_KINDS
    ("int", "str", "list", "ints", "rows", "pairs", "key" or "weight"), an
    entry of another shape is an `error` that names it."""
    for n, key in enumerate(keys, 1):
        try:
            obj = obj[key]
        except (KeyError, IndexError, TypeError):
            raise QuiverLabError(f"{what} JSON has no entry {_json_path(keys[:n])}") from None
    if kind is not None:
        want, ok = _JSON_KINDS[kind]
        if not ok(obj):
            raise error(f"{what} JSON entry {_json_path(keys)} must be {want}, not {obj!r}")
    return obj


def doubled_quiver(vertices, edges):
    """Double of an undirected multigraph.

    Each edge (u, w) becomes the pair h{k}: u -> w with eps +1 and
    h{k}b: w -> u with eps -1 (k = 1-based edge index).
    """
    arrows = []
    for k, (u, w) in enumerate(edges, start=1):
        arrows.append(Arrow(f"h{k}", u, w, 1, f"h{k}b"))
        arrows.append(Arrow(f"h{k}b", w, u, -1, f"h{k}"))
    return Quiver(tuple(vertices), tuple(arrows))


def dynkin_quiver(name):
    """Dynkin graphs by the usual names: "A1", "A2", ..., "D4", "D5", ...

    A_n is the line 1 - 2 - ... - n; D_n is the line 1 - ... - (n-2) with both
    (n-1) and n attached to (n-2).
    """
    kind, num = name[:1].upper(), name[1:]
    num = int(num) if num.isdecimal() else 0
    if num > MAX_VERTICES:  # before the O(num) edge list
        raise InvalidQuiver(f"quiver has {num} vertices, more than the limit {MAX_VERTICES}")
    if kind == "A" and num >= 1:
        return doubled_quiver(range(1, num + 1), [(k, k + 1) for k in range(1, num)])
    if kind == "D" and num >= 4:
        edges = [(k, k + 1) for k in range(1, num - 2)]
        edges += [(num - 2, num - 1), (num - 2, num)]
        return doubled_quiver(range(1, num + 1), edges)
    raise InvalidQuiver(f"unsupported Dynkin name {name!r}")


# -- vectors ---------------------------------------------------------------


class _Coords(_Record):
    """A coordinate tuple; each coordinate system is its own subclass."""

    _fields = ("coords",)

    def __init__(self, coords):
        super().__init__(tuple(coords))

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, k):
        return self.coords[k]


class WeightVec(_Coords):
    """Coordinates x_i = <x, alpha_i^vee> (framing dims d, parameters m, lambda)."""


class _IntCoords(_Coords):
    """Integer coordinates; anything else is a RangeViolation naming it."""

    def __init__(self, coords):
        super().__init__(coords)
        for k, c in enumerate(self.coords):
            if type(c) is not int:
                raise RangeViolation(f"{type(self).__name__}[{k}] is {c!r}; coordinates must be integers")


class RootVec(_IntCoords):
    """Coordinates in the simple-root basis (dimension vectors v)."""


class CorootVec(_IntCoords):
    """Coordinates in the simple-coroot basis (wall test directions u)."""


def pair(x: WeightVec, u: CorootVec):
    """<x, u^vee> = sum_i x_i u_i in the chosen coordinates."""
    if len(x) != len(u):
        raise ShapeMismatch("pairing length mismatch")
    acc = 0
    for a, b in zip(x.coords, u.coords):
        acc = acc + b * a
    return acc


class CartanData(NamedTuple):
    adjacency: tuple  # a_ij = number of arrows i -> j (symmetric, zero diagonal)
    cartan: tuple     # c_ij = 2 delta_ij - a_ij

    @property
    def n(self):
        return len(self.cartan)


def cartan_data(q: Quiver) -> CartanData:
    """q's adjacency and Cartan matrices, built once per quiver."""
    return q._cartan


def _as_cartan(qc) -> CartanData:
    if isinstance(qc, CartanData):
        return qc
    return cartan_data(qc)


def _check_len(qc, vec, nm, cls=WeightVec):
    """vec, a `cls` or a sequence of its coordinates, as a `cls`;
    ShapeMismatch naming nm unless it has one entry per vertex of qc, a
    Quiver or its CartanData."""
    if len(vec) != qc.n:
        raise ShapeMismatch(f"{nm} has length {len(vec)}, quiver has {qc.n} vertices")
    return vec if type(vec) is cls else cls(vec)


def reflect_weight(qc, i, x: WeightVec) -> WeightVec:
    """Simple reflection s_i on weight coordinates: x_j -> x_j - c_ij x_i."""
    cd = _as_cartan(qc)
    _check_vertex(cd, i)
    x = _check_len(cd, x, "weight")
    ci = cd.cartan[i]
    xi = x.coords[i]
    return WeightVec(tuple(xj - cij * xi for xj, cij in zip(x.coords, ci)))


def reflect_coroot(qc, i, u: CorootVec) -> CorootVec:
    """s_i on coroot coordinates: u -> u - (C u)_i alpha_i^vee."""
    cd = _as_cartan(qc)
    _check_vertex(cd, i)
    u = _check_len(cd, u, "coroot", CorootVec)
    t = sum(cij * uj for cij, uj in zip(cd.cartan[i], u.coords))
    new = list(u.coords)
    new[i] -= t
    return CorootVec(tuple(new))


def _check_vertex(cd, i):
    if not 0 <= i < cd.n:
        raise RangeViolation(f"vertex index {i} out of range")


def _dot_once(cd, d, v, i):
    ai = cd.adjacency[i]
    vi_new = d[i] - v[i] + sum(aij * vj for aij, vj in zip(ai, v))
    new = list(v)
    new[i] = vi_new
    return new


def dot_action(qc, word, d: WeightVec, v: RootVec) -> RootVec:
    """Affine dot action of the word on a dimension vector.

    `word` is a sequence of vertex indices; the rightmost letter acts first,
    matching the convention that a word spells a product of reflections.
    """
    cd = _as_cartan(qc)
    d, v = _check_len(cd, d, "d"), _check_len(cd, v, "v", RootVec)
    cur = list(v.coords)
    for i in reversed(list(word)):
        _check_vertex(cd, i)
        cur = _dot_once(cd, d.coords, cur, i)
    return RootVec(tuple(cur))


def variety_dimension(qc, d: WeightVec, v: RootVec):
    """Expected dimension 2 <d, v> - (v, v) = sum_i 2 d_i v_i - v^T C v."""
    cd = _as_cartan(qc)
    d, v = _check_len(cd, d, "d"), _check_len(cd, v, "v", RootVec)
    lin = sum(2 * di * vi for di, vi in zip(d.coords, v.coords))
    quad = sum(
        v[i] * cd.cartan[i][j] * v[j] for i in range(cd.n) for j in range(cd.n)
    )
    return lin - quad


class Dominance(NamedTuple):
    dominant: bool
    regular: bool
    slacks: tuple  # (d - C v)_i per vertex


def dominance(qc, d: WeightVec, v: RootVec) -> Dominance:
    cd = _as_cartan(qc)
    d, v = _check_len(cd, d, "d"), _check_len(cd, v, "v", RootVec)
    slacks = tuple(
        d[i] - sum(cij * vj for cij, vj in zip(cd.cartan[i], v.coords))
        for i in range(cd.n)
    )
    return Dominance(
        dominant=all(s >= 0 for s in slacks),
        regular=all(s > 0 for s in slacks),
        slacks=slacks,
    )


# -- Weyl group --------------------------------------------------------------


def is_finite_type(qc) -> bool:
    """Positive definiteness of the Cartan matrix (Sylvester's criterion).

    One fraction-free (Bareiss) elimination without row swaps: its k-th
    pivot is the k-th leading principal minor, so the first pivot <= 0
    answers no."""
    a = [list(row) for row in _as_cartan(qc).cartan]
    prev = 1
    for k, row in enumerate(a):
        pivot = row[k]
        if pivot <= 0:
            return False
        for below in a[k + 1:]:
            f = below[k]
            for j in range(k + 1, len(row)):
                below[j] = (pivot * below[j] - f * row[j]) // prev  # exact
        prev = pivot
    return True


def _orbit(start, moves):
    """The orbit of `start` under the maps `moves`, breadth first, as
    {image: word} in the order the images are first reached.  The moves are
    tried in index order, and an image first reached by move i from x gets
    the word (i,) + word(x): the rightmost letter acts first, as in
    `WeylElement.word`.  A move that fixes x may return x itself, which is
    then skipped without hashing."""
    words = {start: ()}
    queue = [start]
    for x in queue:  # the loop reaches what it appends
        w = words[x]
        for i, move in enumerate(moves):
            y = move(x)
            if y is not x and y not in words:
                words[y] = (i,) + w
                queue.append(y)
    return words


class WeylElement(NamedTuple):
    """Canonical form: the integer action matrix on root coordinates.

    The word is provenance only (a shortest word found by the BFS closure);
    two elements are the same iff their matrices agree.
    """

    matrix: tuple  # tuple of row tuples, v -> M v on root coordinates
    word: tuple

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.matrix)


def _generator_matrix(cd, i):
    n = cd.n
    rows = []
    for r in range(n):
        if r != i:
            rows.append(tuple(1 if c == r else 0 for c in range(n)))
        else:
            rows.append(tuple((1 if c == i else 0) - cd.cartan[i][c] for c in range(n)))
    return tuple(rows)


def _matmul_int(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def enumerate_weyl(qc):
    """All Weyl group elements by breadth-first closure over the generators,
    as a new list; the closures of the last few Cartan matrices are kept.

    Raises NotFiniteType when the Cartan matrix is not positive definite
    (the closure would not terminate).
    """
    return list(_weyl_elements(_as_cartan(qc)))


@lru_cache(maxsize=8)
def _weyl_elements(cd):
    if not is_finite_type(cd):
        raise NotFiniteType("Weyl group is infinite")
    n = cd.n
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # s_i acting after m: word (i, *word(m))
    moves = [lambda m, g=_generator_matrix(cd, i): _matmul_int(g, m) for i in range(n)]
    return tuple(WeylElement(m, w) for m, w in _orbit(ident, moves).items())


def _weyl_order(cd):
    """|W| for a Cartan matrix of finite type, without listing W: the
    product of m_j + 1 over the exponents m_j, which are the parts of the
    partition dual to (r_1, r_2, ...), r_k the number of positive roots of
    height k (Kostant).  The coroot orbits list the roots up to sign, so
    |sum u| is the height.  A disjoint union needs no split, as the dual of
    a sum of partitions is the union of their duals."""
    r = Counter(abs(sum(u)) for u in _coroot_orbits(cd))  # height k -> r_k
    order = 1
    for j in range(1, cd.n + 1):  # r_1 = n, so there are n exponents
        order *= 1 + sum(rk >= j for rk in r.values())
    return order


class GenericityResult(NamedTuple):
    ok: bool
    witness_u: CorootVec | None = None
    witness_sigma: tuple | None = None


def _iter_box(caps):
    """All nonzero integer vectors 0 <= u <= caps; empty if any cap < 0."""
    if any(c < 0 for c in caps):
        return
    for u in itertools.product(*(range(c + 1) for c in caps)):
        if any(u):
            yield u


def _coroot_orbits(cd):
    """The Weyl orbits of the simple coroots as plain tuples, each coroot
    once up to sign, in the order `_orbit` reaches them.  An orbit holds
    -alpha_i = s_i alpha_i, so it is closed under sign, and a simple coroot
    already listed has its orbit listed."""
    n = cd.n

    def reflect(i, row):  # s_i: u_i -> u_i - (C u)_i, over row's nonzero (j, c_ij)
        def move(u):
            t = u[i]
            for j, c in row:
                t -= c * u[j]
            return u if t == u[i] else u[:i] + (t,) + u[i + 1:]
        return move

    moves = [reflect(i, [(j, c) for j, c in enumerate(row) if c])
             for i, row in enumerate(cd.cartan)]
    seen = set()  # both signs of each coroot listed
    for i in range(n):
        alpha = tuple(int(j == i) for j in range(n))
        if alpha in seen:
            continue
        for u in _orbit(alpha, moves):
            if u not in seen:
                seen.update((u, tuple(-c for c in u)))
                yield u


def _k_constant(cd):
    best = 1
    for i in range(cd.n):
        for j in range(cd.n):
            if i != j:
                best = max(best, cd.adjacency[i][j] ** 2)
    return best


def genericity(qc, m: WeightVec, lam: WeightVec, v: RootVec, mode="Uv", d: WeightVec | None = None):
    """Check (m, lambda) against the walls {<u, m> = <u, lambda> = 0}.

    Modes:
      "Uv"      test u in the box 0 < u <= v;
      "UvTilde" test the enlarged box 0 < u <= K v, K = max(1, a_ij^2);
      "Gv"      require, for every Weyl element sigma, that sigma(m, lambda)
                clears the enlarged box of sigma . v (dot action, needs d);
      "Hinf"    test every coroot in the Weyl orbits of the simple coroots.

    Returns a GenericityResult; on failure the violating u (and sigma's word
    for mode Gv) is reported.
    """
    cd = _as_cartan(qc)
    m, lam = _check_len(cd, m, "m"), _check_len(cd, lam, "lambda")
    v = _check_len(cd, v, "v", RootVec)
    if mode == "Gv" and d is None:
        raise RangeViolation("mode Gv needs the framing vector d")
    if mode not in ("Uv", "UvTilde", "Gv", "Hinf"):
        raise RangeViolation(f"unknown genericity mode {mode!r}")
    k = 1 if mode == "Uv" else _k_constant(cd)
    if mode in ("Gv", "Hinf") and not is_finite_type(cd):
        raise NotFiniteType("Weyl group is infinite")
    if mode == "Gv":
        d = _check_len(cd, d, "d").coords
        moves = [lambda t, i=i: (reflect_weight(cd, i, t[0]).coords,
                                 reflect_weight(cd, i, t[1]).coords,
                                 tuple(_dot_once(cd, d, t[2], i)))
                 for i in range(cd.n)]
        orbit = _orbit((m.coords, lam.coords, v.coords), moves)
        # each chamber sigma (m, lambda, v) once, with the first word reaching
        # it; RootVec names an image of v that is not integral (d is not)
        chambers = ((sigma, WeightVec(ms), WeightVec(ls),
                     _iter_box(tuple(k * c for c in RootVec(vs).coords)))
                    for (ms, ls, vs), sigma in orbit.items())
    elif mode == "Hinf":
        chambers = [(None, m, lam, _coroot_orbits(cd))]
    else:
        chambers = [(None, m, lam, _iter_box(tuple(k * c for c in v.coords)))]
    for sigma, ms, ls, us in chambers:
        for u in map(CorootVec, us):
            if pair(ms, u) == 0 and pair(ls, u) == 0:
                return GenericityResult(False, u, sigma)
    return GenericityResult(True)
