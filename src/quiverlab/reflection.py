"""Point-level reflection functors, Coxeter relation checks, dominance
reduction, and the zero-padding / projection moves between fiber dimensions.

The reflection at a vertex replaces V_i by either ker(b_i) (when b_i is
surjective) or a complement of Im(a_i) (when a_i is injective); both choices
satisfy the same defining identities

    a'_i b'_i = a_i b_i - lambda_i Id_{T_i},
    everything away from i unchanged,
    mu(s') = (s_i lambda) Id,

and when lambda_i != 0 they land in the same orbit.  All arithmetic is exact,
so the verifier below is a decision procedure, not a tolerance check.
"""

from __future__ import annotations

import itertools
import random as _random
from typing import NamedTuple

from .errors import (
    MomentMismatch,
    RangeViolation,
    RankTooLarge,
    ReflectionUndefined,
    ShapeMismatch,
)
from .linalg import (
    Mat,
    _completion_and_inverse,
    _kernel_and_free,
    _span_completion,
    hstack,
    kernel_basis,
    rank,
    vstack,
)
from .paths import orbit_equivalent
from .quiver import (
    RootVec,
    WeightVec,
    _check_len,
    cartan_data,
    dominance,
    dot_action,
    genericity,
    reflect_weight,
)
from .repspace import (
    DimData,
    FramedPoint,
    assemble_ab,
    moment_matches,
    sample_fiber,
    split_ab,
)


class ReflectionResult(NamedTuple):
    point: FramedPoint
    vertex: object
    side: str            # "kernel" or "cokernel"
    lam: WeightVec       # reflected deformation parameter
    m: WeightVec | None  # reflected stability parameter, when given
    a_prime: Mat
    b_prime: Mat
    section: Mat         # kernel basis of b_i, or the complement of Im a_i
    layout: tuple


def reflect_point(s: FramedPoint, vertex, lam: WeightVec, m: WeightVec | None = None, side="auto") -> ReflectionResult:
    """Reflect a moment-fiber point at one vertex.

    Preconditions: mu(s) = lambda Id exactly.  side "auto" takes the kernel
    construction when b_i is surjective, otherwise the cokernel construction
    when a_i is injective, and fails with ReflectionUndefined when neither
    applies (possible only when lambda_i = 0).
    """
    if side not in ("auto", "kernel", "cokernel"):
        raise RangeViolation(f"unknown side {side!r}")
    s.quiver.vertex_index(vertex)  # names an unknown vertex
    lam, m = _check_weights(s.quiver, lam, m)
    if not moment_matches(s, lam):
        raise MomentMismatch("point is not on the lambda fiber")
    return _reflect_on_fiber(s, vertex, lam, m, side)


def _check_weights(qc, lam, m):
    """(lambda, m) as WeightVecs, m None when not given; names lambda or m
    when its length is not the quiver's vertex count."""
    return _check_len(qc, lam, "lambda"), None if m is None else _check_len(qc, m, "m")


def _reflect_on_fiber(s: FramedPoint, vertex, lam: WeightVec, m, side) -> ReflectionResult:
    """The body of `reflect_point` for a point already known to satisfy
    mu(s) = lambda Id; it still checks that the result lies on the reflected
    fiber.  lambda and m are WeightVecs (m may be None).

    Each result is memoized on s (`FramedPoint._refl`) under (vertex,
    lambda, m, side), the weights by their coordinates, once it has passed
    that check: s is frozen, so the key fixes the result.  A word whose
    first letter is the vertex just reflected at reads it from there."""
    key = (vertex, lam.coords, None if m is None else m.coords, side)
    res = s._refl.get(key)
    if res is not None:
        return res
    q = s.quiver
    idx = q.vertex_index(vertex)
    ab = assemble_ab(s, vertex)
    vi = s.dims.v_of(q, vertex)
    t_dim = ab.a.rows
    lam_i = s.field.coerce(lam[idx])
    field = s.field

    # b_i is onto exactly when dim ker b_i = t - v_i
    ker, free = _kernel_and_free(ab.b) if side != "cokernel" else (None, None)
    b_epi = ker is not None and len(ker) == t_dim - vi
    if side == "kernel" and not b_epi:
        raise ReflectionUndefined(f"kernel side needs b_i surjective at {vertex}")
    if side == "auto":
        side = "kernel" if b_epi else "cokernel"
        not_injective = f"at vertex {vertex}: b_i not surjective and a_i not injective"
    else:
        not_injective = f"cokernel side needs a_i injective at {vertex}"

    rhs = ab.a * ab.b - Mat.scalar(field, t_dim, lam_i)
    if side == "kernel":
        a2 = hstack(ker) if ker else Mat.zeros(field, t_dim, 0)
        # a' b' = a b - lambda_i: the columns of a2 span ker b, which contains
        # Im(rhs) as b rhs = (mu_i - lambda_i) b = 0, and a2 is the identity on
        # the free rows of rref b, so b' is rhs read at those rows.
        b2 = rhs.submatrix(free, range(t_dim))
        section = a2
    else:
        try:
            basis, inv = _completion_and_inverse(ab.a)  # first vi columns = a
        except ShapeMismatch:  # the columns of a_i are dependent
            raise ReflectionUndefined(not_injective) from None
        compl = basis.submatrix(range(t_dim), range(vi, t_dim))
        proj = inv.submatrix(range(vi, t_dim), range(t_dim))
        a2 = rhs * compl
        b2 = proj
        section = compl

    s2 = split_ab(s, ab, a2, b2)

    lam2 = reflect_weight(q, idx, lam)
    m2 = reflect_weight(q, idx, m) if m is not None else None
    if not moment_matches(s2, lam2):
        raise AssertionError("reflected point is off the reflected fiber")
    res = s._refl[key] = ReflectionResult(s2, vertex, side, lam2, m2, a2, b2, section, ab.layout)
    return res


class ZReport(NamedTuple):
    away_arrows: bool      # (1) arrows not touching i unchanged
    away_gamma: bool       # (2)
    away_delta: bool       # (3)
    exact_sequence: bool   # (4) 0 -> V'_i -> T_i -> V_i -> 0
    ab_identity: bool      # (5) a' b' = a b - lambda_i
    moments: bool          # (6) mu = lambda Id on both sides
    messages: tuple

    @property
    def all_pass(self):
        return (
            self.away_arrows
            and self.away_gamma
            and self.away_delta
            and self.exact_sequence
            and self.ab_identity
            and self.moments
        )


def verify_Z_conditions(s: FramedPoint, s2, vertex, lam: WeightVec) -> ZReport:
    """Check the six defining conditions of the reflection correspondence for
    the ordered pair (s, s2) at `vertex`, recomputing a/b from both points.
    Accepts the reflected FramedPoint or a whole ReflectionResult."""
    if isinstance(s2, ReflectionResult):
        s2 = s2.point
    if s.quiver != s2.quiver:
        raise ShapeMismatch("points live on different quivers")
    q = s.quiver
    lam = _check_len(q, lam, "lambda")
    idx = q.vertex_index(vertex)
    msgs = []

    # (1)-(3): every block away from V_i is unchanged
    at = ("V", vertex)
    changed = {"B": False, "gamma": False, "delta": False}
    for blk in q.layout:
        if at not in (blk.row, blk.col) and s.block(blk) != s2.block(blk):
            changed[blk.part] = True
            msgs.append(f"arrow {blk.key} changed" if blk.part == "B"
                        else f"{blk.part}[{blk.key}] changed")
    c1, c2, c3 = (not changed[part] for part in ("B", "gamma", "delta"))

    ab = assemble_ab(s, vertex)
    ab2 = assemble_ab(s2, vertex)
    vi = s.dims.v_of(q, vertex)
    vi2 = s2.dims.v_of(q, vertex)
    t_dim = ab.a.rows
    t_ok = ab2.a.rows == t_dim  # differs when away-from-i dims were tampered with

    c4 = True
    if rank(ab2.a) != vi2:
        c4 = False
        msgs.append("a' not injective")
    if rank(ab.b) != vi:
        c4 = False
        msgs.append("b not surjective")
    if not t_ok:
        c4 = False
        msgs.append(f"T_i dims differ: {ab2.a.rows} vs {t_dim}")
    elif not (ab.b * ab2.a).is_zero():
        c4 = False
        msgs.append("b . a' != 0")
    if vi + vi2 != t_dim:
        c4 = False
        msgs.append(f"dims {vi} + {vi2} != {t_dim}")

    lam_i = s.field.coerce(lam[idx])
    want = ab.a * ab.b - Mat.scalar(s.field, t_dim, lam_i)
    c5 = t_ok and ab2.a * ab2.b == want
    if not c5:
        msgs.append("a' b' != a b - lambda_i")

    lam2 = reflect_weight(q, idx, lam)
    c6 = moment_matches(s, lam) and moment_matches(s2, lam2)
    if not c6:
        msgs.append("moment equations fail")

    return ZReport(c1, c2, c3, c4, c5, c6, tuple(msgs))


class WordResult(NamedTuple):
    point: FramedPoint
    lam: WeightVec
    m: WeightVec | None
    steps: tuple  # (vertex, side) per letter, in execution order


def reflect_word(s: FramedPoint, word, lam: WeightVec, m: WeightVec | None = None) -> WordResult:
    """Apply reflections along the word, leftmost letter first, updating
    (lambda, m) at every step.  Each step needs (lambda_i, m_i) != (0, 0).

    The start point's moment is checked once, and each intermediate point
    once: the post-check of letter k, which puts it on the reflected fiber,
    stands in for letter k+1's pre-check."""
    q = s.quiver
    cur, (cl, cm) = s, _check_weights(q, lam, m)
    steps = []
    for k, vertex in enumerate(word):
        idx = q.vertex_index(vertex)
        mi = cm[idx] if cm is not None else 0
        if cl[idx] == 0 and mi == 0:
            raise ReflectionUndefined(
                f"(lambda_i, m_i) = (0, 0) at step {k} (prefix {list(word[: k + 1])})"
            )
        try:
            reflect = reflect_point if k == 0 else _reflect_on_fiber
            res = reflect(cur, vertex, cl, cm, "auto")
        except ReflectionUndefined as e:
            raise ReflectionUndefined(f"step {k} (prefix {list(word[: k + 1])}): {e}")
        cur, cl, cm = res.point, res.lam, res.m
        steps.append((vertex, res.side))
    return WordResult(cur, cl, cm, tuple(steps))


class RelationCheck(NamedTuple):
    kind: str        # "involution" | "commutation" | "braid" | "sides"
    vertices: tuple
    trials: int
    passes: int
    skipped: str = ""

    @property
    def ok(self):
        return bool(self.skipped) or self.passes == self.trials


class CoxeterReport(NamedTuple):
    checks: tuple
    generic: bool

    @property
    def all_pass(self):
        return all(c.ok for c in self.checks)


def check_coxeter(q, d: WeightVec, v: RootVec, lam: WeightVec, m: WeightVec | None = None,
                  trials=50, seed=0) -> CoxeterReport:
    """Sample fiber points and test the Coxeter relations of the reflections
    up to orbit equivalence: involutions at each vertex, commutation for
    non-adjacent pairs, the braid relation for single-edge pairs (multi-edge
    pairs are skipped), plus kernel/cokernel side agreement where
    lambda_i != 0.  Results are informational when (m, lambda) is not generic.
    """
    if trials < 0:
        raise RangeViolation(f"trials is {trials}; it must be >= 0")
    rng = _random.Random(seed)
    cd = cartan_data(q)
    dims = DimData(d, v)
    lam, m = _check_weights(q, lam, m)
    m_eff = m if m is not None else WeightVec((0,) * cd.n)
    gen = genericity(cd, m_eff, lam, v, mode="Uv").ok
    checks = []

    def trial(kind, vertices, pair):
        """Sample, map the sample to two points by `pair`, compare them up to
        orbit; a sample where a reflection is undefined is not attempted, and
        a check that attempted none of its trials says so."""
        attempted = passes = 0
        for _ in range(trials):
            s = sample_fiber(q, dims, lam, rng=rng)
            try:
                x, y = pair(s)
            except ReflectionUndefined:
                continue
            attempted += 1
            passes += orbit_equivalent(x, y, seed=rng.randrange(2**30)).kind == "yes"
        skipped = "reflection undefined on every sample" if trials and not attempted else ""
        checks.append(RelationCheck(kind, vertices, attempted, passes, skipped))

    def words(w1, w2):
        return lambda s: tuple(reflect_word(s, w, lam, m_eff).point for w in (w1, w2))

    for idx, vertex in enumerate(q.vertices):
        if lam[idx] == 0 and m_eff[idx] == 0:
            checks.append(RelationCheck("involution", (vertex,), 0, 0, "lambda_i = m_i = 0"))
        else:
            trial("involution", (vertex,), words([vertex, vertex], []))
        if lam[idx] != 0:
            # lambda_i != 0 forces b_i epi and a_i mono, so both sides exist.
            trial("sides", (vertex,), lambda s: tuple(reflect_point(s, vertex, lam, m_eff, side).point
                                                      for side in ("kernel", "cokernel")))

    for i, j in itertools.combinations(range(cd.n), 2):
        vi_, vj_ = q.vertices[i], q.vertices[j]
        aij = cd.adjacency[i][j]
        if aij == 0:
            trial("commutation", (vi_, vj_), words([vi_, vj_], [vj_, vi_]))
        elif aij == 1:
            trial("braid", (vi_, vj_), words([vi_, vj_, vi_], [vj_, vi_, vj_]))
        else:
            checks.append(RelationCheck("braid", (vi_, vj_), 0, 0, f"a_ij = {aij} >= 2"))

    return CoxeterReport(tuple(checks), gen)


# -- dominance reduction -------------------------------------------------------


class ReductionStep(NamedTuple):
    vertex: object
    kind: str  # "reflect" | "drop"
    v_after: tuple


class ReductionTrace(NamedTuple):
    steps: tuple
    v: RootVec
    lam: WeightVec
    m: WeightVec | None
    word: tuple  # vertices of the reflect steps, execution order
    dominant: bool
    empty: bool


def reduce_to_dominant(q, d: WeightVec, v: RootVec, lam: WeightVec,
                       m: WeightVec | None = None) -> ReductionTrace:
    """Drive (v, lambda, m) to the dominant chamber of d - C v.

    At the smallest vertex index violating dominance: reflect (dot action on
    v, reflections on lambda and m) when lambda_i != 0, otherwise drop one
    from v_i.  Reflection strictly lowers v_i and drops lower sum(v), so the
    loop terminates; a negative coordinate after a reflection flags the empty
    case and stops.
    """
    cd = cartan_data(q)
    cur_l, cur_m = _check_weights(cd, lam, m)
    d, cur_v = _check_len(cd, d, "d"), _check_len(cd, v, "v", RootVec)
    steps, word = [], []
    for _ in range(100000):
        dom = dominance(cd, d, cur_v)
        empty = any(c < 0 for c in cur_v.coords)
        if empty or dom.dominant:
            return ReductionTrace(tuple(steps), cur_v, cur_l, cur_m, tuple(word),
                                  dominant=not empty, empty=empty)
        bad = next(k for k, slack in enumerate(dom.slacks) if slack < 0)
        vertex = q.vertices[bad]
        if cur_l[bad] != 0:
            cur_v = dot_action(cd, [bad], d, cur_v)
            cur_l = reflect_weight(cd, bad, cur_l)
            if cur_m is not None:
                cur_m = reflect_weight(cd, bad, cur_m)
            word.append(vertex)
            steps.append(ReductionStep(vertex, "reflect", cur_v.coords))
        else:
            coords = list(cur_v.coords)
            coords[bad] -= 1
            cur_v = RootVec(tuple(coords))
            steps.append(ReductionStep(vertex, "drop", cur_v.coords))
    raise AssertionError("dominance reduction did not terminate")


# -- change of fiber dimensions -------------------------------------------------


def j_embed(s: FramedPoint, v_target: RootVec) -> FramedPoint:
    """Zero-pad a point up to larger fiber dimensions (closed immersion)."""
    q = s.quiver
    v_target = _check_len(q, v_target, "v_target", RootVec)
    for k in range(q.n):
        if v_target[k] < s.dims.v[k]:
            raise RangeViolation("target dims must dominate the current dims")
    field = s.field

    def pad(blk, r, c):
        mat = s.block(blk)
        right = hstack([mat, Mat.zeros(field, mat.rows, c - mat.cols)])
        return vstack([right, Mat.zeros(field, r - mat.rows, c)])

    return FramedPoint.build(q, DimData(s.dims.d, v_target), field, pad)


def limit_project(s: FramedPoint, vertex) -> FramedPoint:
    """Drop one dimension at `vertex` along the one-parameter degeneration.

    Needs mu_i(s) = 0 and either b_i not surjective (then a hyperplane
    containing Im b_i is split off) or a_i not injective (then a kernel line
    is).  Lusztig invariants are preserved exactly: the output is the limit
    of a group orbit and every invariant is constant on orbits and continuous.
    """
    q = s.quiver
    vi = s.dims.v_of(q, vertex)
    if vi == 0:
        raise RangeViolation(f"v = 0 at {vertex}, nothing to drop")
    ab = assemble_ab(s, vertex)
    if not (ab.b * ab.a).is_zero():
        raise MomentMismatch(f"mu != 0 at {vertex}")

    # change basis at the vertex by P, whose last column is split off:
    # a_i -> a_i P and b_i -> P^-1 b_i.  One elimination of [b_i | I] gives
    # rank b_i and, when b_i is not onto, P (a basis of Im b_i, completed)
    basis, inv, rank_b = _span_completion(ab.b)
    if rank_b < vi:
        drop_incoming_rows = True  # P^-1 b_i is zero in its last row
    else:
        ker = kernel_basis(ab.a)
        if not ker:
            raise RankTooLarge(f"b_i surjective and a_i injective at {vertex}")
        basis, inv = _completion_and_inverse(ker[0])  # first column = kernel vector
        turn = list(range(1, vi)) + [0]  # rotate it to the end
        basis = basis.submatrix(range(vi), turn)
        inv = inv.submatrix(turn, range(vi))
        drop_incoming_rows = False

    a = ab.a * basis
    b = inv * ab.b
    keep = range(vi - 1)
    if drop_incoming_rows and not b.submatrix([vi - 1], range(b.cols)).is_zero():
        raise AssertionError("nonzero coordinates outside the chosen hyperplane")
    if not drop_incoming_rows and not a.submatrix(range(a.rows), [vi - 1]).is_zero():
        raise AssertionError("kernel line is not in the kernel")
    return split_ab(s, ab, a.submatrix(range(a.rows), keep), b.submatrix(keep, range(b.cols)))
