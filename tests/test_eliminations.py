"""How many eliminations and matrix products each linear-algebra question
costs.

`linalg.rref` is the one elimination behind rank, kernels, solves and
inverses, `paths.hom_space` is the one intertwiner solve, and
`linalg.Mat._matmul` is every matrix product; each is wrapped with a
counter, and each question below must cost exactly what its construction
needs.  So are the orbit invariants `paths.lusztig_invariants` and the
moment checks `reflection.moment_matches` of the reflection functors.
`FramedPoint.build` makes every point `count_points_Fq` visits, so counting
it counts that enumeration.
"""

import random
from fractions import Fraction

import pytest

from quiverlab import (
    QQ,
    QQI,
    BlockSystem,
    DimData,
    FpScalar,
    FramedPoint,
    GroupElement,
    PrimeField,
    RootVec,
    ShapeMismatch,
    WeightVec,
    complete_to_basis,
    count_points_Fq,
    doubled_quiver,
    dynkin_quiver,
    group_act,
    det,
    hstack,
    inverse,
    kernel_basis,
    kron,
    limit_project,
    linalg,
    moment_map,
    moment_matches,
    orbit_equivalent,
    paths,
    random_group,
    random_invertible,
    random_matrix,
    reflect_point,
    reflect_word,
    reflection,
    repspace,
    rref,
    sample_fiber,
    solve_right,
    strata,
    verify_Z_conditions,
)
from util import a1_point, a1_setup, mat


@pytest.fixture
def calls(monkeypatch):
    """Counts of linalg.rref, paths.hom_space, paths.lusztig_invariants,
    reflection.moment_matches and Mat._matmul (under the key "matmul") calls
    made after set-up."""
    counts = {"rref": 0, "hom_space": 0, "lusztig_invariants": 0,
              "moment_matches": 0, "matmul": 0}

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(linalg, "rref", "rref")
    counted(paths, "hom_space", "hom_space")
    counted(paths, "lusztig_invariants", "lusztig_invariants")
    counted(reflection, "moment_matches", "moment_matches")
    counted(linalg.Mat, "_matmul", "matmul")
    return counts


def fiber(name, d, v, lam, seed):
    q = dynkin_quiver(name)
    return sample_fiber(q, DimData(WeightVec(d), RootVec(v)), WeightVec(lam), seed=seed)


@pytest.mark.parametrize("side", ["kernel", "auto"])
def test_kernel_side_reflection(calls, side):
    points = [(a1_point(gamma=(1, 0), delta=(1, 0)), 1, (1,)),
              (fiber("A2", (2, 1), (1, 1), (1, 2), 3), 1, (1, 2)),
              (fiber("D4", (1, 0, 0, 1), (1, 1, 1, 2), (1, -1, 2, 1), 7), 4, (1, -1, 2, 1))]
    for s, vertex, lam in points:
        calls["rref"] = 0
        res = reflect_point(s, vertex, WeightVec(lam), side=side)
        assert res.side == "kernel"
        assert calls["rref"] == 1  # ker b_i; b' is read off at its free rows


def test_moment_map_one_product_per_vertex(calls):
    lam = WeightVec((1, -1, 2, 1))
    s = fiber("D4", (1, 0, 0, 1), (1, 1, 1, 2), lam.coords, 7)
    fresh = FramedPoint.build(s.quiver, s.dims, s.field, lambda blk, r, c: s.block(blk))
    calls["matmul"] = 0
    moment_map(fresh)
    assert calls["matmul"] == 4  # b_i a_i at each vertex
    moment_map(fresh)
    assert moment_matches(fresh, lam)
    assert calls["matmul"] == 4  # each mu_i is memoized on the point


@pytest.mark.parametrize("side, extra", [("kernel", 2), ("cokernel", 3)])
def test_reflect_point_products(calls, side, extra):
    lam = WeightVec((1, 2, 3, 4))
    s = fiber("D4", (1, 1, 1, 2), (1, 2, 1, 2), lam.coords, 5)
    degree = {1: 1, 2: 3, 3: 1, 4: 1}
    for vertex in s.quiver.vertices:
        calls["matmul"] = 0
        assert reflect_point(s, vertex, lam, side=side).side == side
        # the pre-check reads mu memoized by the sampler's own check; then
        # a_i b_i, on the cokernel side (a_i b_i - lambda_i) times the
        # complement, and the post-check recomputes mu only at the vertex
        # and its neighbours
        assert calls["matmul"] == extra + degree[vertex]


def test_group_element_and_action(calls):
    q = dynkin_quiver("D4")
    dims = DimData(WeightVec((1, 1, 1, 2)), RootVec((1, 2, 1, 2)))
    s = fiber("D4", (1, 1, 1, 2), (1, 2, 1, 2), (1, 2, 3, 4), 5)
    rng = random.Random(2)
    blocks = {vert: random_invertible(QQ, dims.v_of(q, vert), rng) for vert in q.vertices}
    framing = {vert: random_invertible(QQ, dims.d_of(q, vert), rng) for vert in q.vertices}
    calls["rref"] = 0
    g = GroupElement(blocks)
    group_act(g, s)
    group_act(g, s)
    assert calls["rref"] == len(blocks)
    calls["rref"] = 0
    group_act(GroupElement(blocks, framing), s)
    assert calls["rref"] == len(blocks) + len(framing)


def test_cokernel_side_reflection(calls):
    s = fiber("A2", (2, 1), (1, 1), (1, 1), 9)
    calls["rref"] = 0
    res = reflect_point(s, 1, WeightVec((1, 1)), side="cokernel")
    assert res.side == "cokernel"
    assert calls["rref"] == 1  # basis completion of a_i, which also gives its inverse


def test_random_group(calls):
    q = dynkin_quiver("D4")
    dims = DimData(WeightVec((1, 1, 1, 2)), RootVec((1, 2, 1, 2)))
    g = random_group(q, dims, QQ, random.Random(3))
    assert len(g.blocks) == 4
    assert calls["rref"] == 4  # one inversion per drawn block, which is also its test


def test_limit_project(calls):
    s = fiber("A3", (0, 0, 0), (1, 2, 1), (0, 0, 0), 5)
    calls["rref"] = 0
    out = limit_project(s, 3)
    assert out.dims.v.coords == (1, 2, 0)
    # rank of b_i, kernel of a_i, and the basis completion with its inverse
    assert calls["rref"] == 3


def test_limit_project_image_branch(calls):
    # b_i = 0 is not onto: one rref [b_i | I] gives its rank, the completed
    # basis of its image and that basis's inverse
    dims = DimData(WeightVec((1, 1)), RootVec((2, 1)))
    s = FramedPoint.zero(dynkin_quiver("A2"), dims)
    for vertex, v in ((1, (1, 1)), (2, (2, 0))):
        calls["rref"] = 0
        assert limit_project(s, vertex).dims.v.coords == v
        assert calls["rref"] == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(7), QQI], ids=["Q", "F7", "Qi"])
def test_inverse(calls, field):
    g = random_invertible(field, 4, random.Random(6), 5)
    calls["rref"] = 0
    inverse(g)
    assert calls["rref"] == 1  # rref [g | I], whose right block is the inverse


def test_complete_to_basis(calls):
    cols = mat(QQ, [[0, 1], [0, 2], [1, 3], [0, 0], [2, 0]])
    full = complete_to_basis(cols)
    assert full.shape() == (5, 5)
    assert calls["rref"] == 1


def test_orbit_yes_by_particular_solves_hom_once(calls):
    s = fiber("A2", (2, 1), (1, 1), (1, 2), 3)
    t = group_act(random_group(s.quiver, s.dims, QQ, random.Random(1)), s)
    calls["hom_space"] = 0
    dec = orbit_equivalent(s, t)
    assert (dec.kind, dec.reason) == ("yes", "particular solution is invertible")
    assert calls["hom_space"] == 1
    assert calls["lusztig_invariants"] == 0  # invariants only certify a "no"


def test_orbit_invariant_mismatch_after_one_hom_solve(calls):
    s = a1_point(gamma=(1, 0), delta=(1, 0))
    t = a1_point(gamma=(2, 0), delta=(1, 0))
    dec = orbit_equivalent(s, t)
    assert (dec.kind, dec.reason) == ("no", "invariant mismatch at ('fr', 'e1', 0, 0)")
    assert (calls["hom_space"], calls["lusztig_invariants"]) == (1, 2)


def test_orbit_all_fibers_zero_solves_nothing(calls):
    dims = DimData(WeightVec((1, 1)), RootVec((0, 0)))
    s = FramedPoint.zero(dynkin_quiver("A2"), dims)
    dec = orbit_equivalent(s, s)
    assert (dec.kind, dec.reason) == ("yes", "all fibers are zero")
    assert (calls["hom_space"], calls["lusztig_invariants"]) == (0, 2)


@pytest.mark.parametrize("apart", ["quivers", "fields"])
def test_orbit_points_apart_raise_before_invariants(calls, apart):
    # the framing invariants of s and t differ, but the hom solve comes first
    s = a1_point(gamma=(1, 0), delta=(1, 0))
    if apart == "fields":
        t = a1_point(gamma=(2, 0), delta=(1, 0), field=PrimeField(7))
    else:
        q = doubled_quiver([5], [])
        _, dims = a1_setup()
        t = FramedPoint(q, dims, QQ, {}, {5: mat(QQ, [[2, 0]])}, {5: mat(QQ, [[1], [0]])})
    with pytest.raises(ShapeMismatch, match=f"different {apart}"):
        orbit_equivalent(s, t)
    assert calls["lusztig_invariants"] == 0


def test_orbit_scan_still_solves_both_directions(calls):
    # unframed: the hom set is positive-dimensional and the particular
    # solution is singular, so hom(t, s) is solved as well
    s = fiber("A3", (0, 0, 0), (1, 2, 1), (0, 0, 0), 5)
    t = group_act(random_group(s.quiver, s.dims, QQ, random.Random(6)), s)
    calls["hom_space"] = 0
    dec = orbit_equivalent(s, t)
    assert dec.kind == "yes"
    assert dec.reason != "particular solution is invertible"
    assert calls["hom_space"] == 2


@pytest.mark.parametrize("word", [[], [2], [2, 3, 2], [3, 2, 3]],
                         ids=["e", "s2", "s2s3s2", "s3s2s3"])
def test_reflect_word_checks_each_point_once(calls, word):
    # the start point before letter 0, then each letter's result once
    lam = WeightVec((1, 2, 3, 4))
    s = fiber("D4", (1, 1, 1, 2), (1, 2, 1, 2), lam.coords, 5)
    out = reflect_word(s, word, lam)
    assert len(out.steps) == len(word)
    assert calls["moment_matches"] == (len(word) + 1 if word else 0)
    if not word:
        assert out.point is s


def test_reflect_word_stacks(monkeypatch):
    # every hstack and vstack a word of kernel-side letters makes: a' from
    # ker b_i, and a_j and b_j at the neighbours j of the reflected vertex
    # for the post-check.  The sampler's check assembled every vertex of
    # the start point, and split_ab seeds (a_i, b_i) at the reflected one
    stacks = []
    for mod in (linalg, repspace, reflection):
        for name in ("hstack", "vstack"):
            def counted(mats, fn=getattr(mod, name)):
                stacks.append(1)
                return fn(mats)

            monkeypatch.setattr(mod, name, counted)
    lam = WeightVec((1, 1, 1))
    s = fiber("A3", (1, 1, 1), (1, 2, 1), lam.coords, 4)
    stacks.clear()
    out = reflect_word(s, [2, 1, 2], lam)
    assert [side for _, side in out.steps] == ["kernel", "kernel", "kernel"]
    assert len(stacks) == 13  # 5 + 3 + 5


def test_hom_system_elimination_work(monkeypatch):
    # D4 points reflected along both sides of a braid relation reach
    # v = (3, 3, 1, 1), where the hom system is the largest elimination of a
    # fiber-orbit op.  The int core takes one gcd per row update (the
    # multiplier's), one per pivot and one per update of an earlier pivot row
    # (their content), so the gcd calls count its work.  solve_right
    # eliminates [a | c] with pivots only in a's columns, so the core stops
    # once the 20 unknowns are pivots and the rows it has not met are only
    # checked by substitution (262 calls eliminating all 46 rows column by
    # column, 350 in the order the rows are built)
    lam = WeightVec((1, 1, 1, 1))
    s = fiber("D4", (1, 1, 1, 1), (1, 1, 1, 1), lam.coords, 7)
    t1, t2 = (reflect_word(s, word, lam).point for word in ([1, 2, 1], [2, 1, 2]))
    assert t1.dims.v.coords == t2.dims.v.coords == (3, 3, 1, 1)
    systems = []
    real = linalg.solve_right
    monkeypatch.setattr(linalg, "solve_right", lambda a, c: systems.append((a, c)) or real(a, c))
    paths.hom_space(t1, t2)
    [(a, c)] = systems
    assert a.shape() == (46, 20)
    rows = hstack([a, c])._rows()
    gcds = []

    def counted(*args, fn=linalg.gcd):
        gcds.append(1)
        return fn(*args)

    monkeypatch.setattr(linalg, "gcd", counted)
    linalg._rref_int(rows, a.cols)
    assert len(gcds) == 71


def test_count_visits_b_and_gamma_only(monkeypatch):
    # A1 with d = 2, v = 1 has no B, 2 gamma entries and 2 delta entries:
    # the enumeration visits the p^2 gammas, not all p^4 points
    builds = []
    build = FramedPoint.build.__func__

    def counted(cls, *args):
        builds.append(1)
        return build(cls, *args)

    monkeypatch.setattr(FramedPoint, "build", classmethod(counted))
    q = dynkin_quiver("A1")
    res = count_points_Fq(q, DimData(WeightVec((2,)), RootVec((1,))), WeightVec((0,)), 7)
    assert res.total == 385
    assert len(builds) == 7 ** 2


def test_count_one_elimination_per_vertex(monkeypatch):
    # rank gamma_i and the consistency of gamma_i delta_i = R_i come from one
    # elimination of [gamma_i | R_i] per vertex (two eliminations made 1634);
    # the others are reachable_dims' ranks at the points that count
    eliminations = []
    for mod in (linalg, strata):  # strata calls rref by its own binding
        def counted(a, fn=mod.rref):
            eliminations.append(1)
            return fn(a)

        monkeypatch.setattr(mod, "rref", counted)
    q = dynkin_quiver("A2")
    res = count_points_Fq(q, DimData(WeightVec((2, 1)), RootVec((1, 1))), WeightVec((1, 2)), 3)
    assert (res.total, res.strata) == (666, (((0, 0), 54), ((1, 1), 612)))
    assert len(eliminations) == 1169


def test_q_kernels_build_no_fraction(monkeypatch):
    # over Q a matrix stores ints over one denominator: products, eliminations,
    # solves and block-system assembly never box an entry as a Fraction
    rng = random.Random(41)
    a = random_matrix(QQ, 4, 3, rng, 9)
    b = random_matrix(QQ, 3, 5, rng, 9)
    c = a * random_matrix(QQ, 3, 2, rng, 9)
    system = BlockSystem(QQ)
    system.unknown("x", 3, 3)
    left, right = a.submatrix(range(3), range(3)), b.submatrix(range(3), range(3))
    system.equation([(left, "x", None), (None, "x", right), (left, "x", right)],
                    random_matrix(QQ, 3, 3, rng, 9))
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", Counted)
    a[0, 0]
    assert len(built) == 1  # the accessors do build Fractions
    built.clear()
    a * b
    rref(hstack([a, c]))
    sol = solve_right(a, c)
    system.matrix()
    system.solve()
    assert built == []
    assert a * sol.particular == c


def test_fp_kernels_build_no_fpscalar(monkeypatch):
    # over F_p a matrix stores residues over 1: products, eliminations,
    # solves, kernels, kron and block-system assembly never box an entry as an
    # FpScalar; det builds one, the value it hands out
    field = PrimeField(7)
    rng = random.Random(42)
    a = random_matrix(field, 4, 3, rng)
    b = random_matrix(field, 3, 5, rng)
    c = a * random_matrix(field, 3, 2, rng)
    square = a * random_matrix(field, 3, 4, rng) + random_matrix(field, 4, 4, rng)
    system = BlockSystem(field)
    system.unknown("x", 3, 3)
    left, right = a.submatrix(range(3), range(3)), b.submatrix(range(3), range(3))
    system.equation([(left, "x", None), (None, "x", right), (left, "x", right)],
                    random_matrix(field, 3, 3, rng))
    built = []
    init = FpScalar.__init__

    def counted(self, val, p):
        built.append(val)
        init(self, val, p)

    monkeypatch.setattr(FpScalar, "__init__", counted)
    a[0, 0]
    assert len(built) == 1  # the accessors do build FpScalars
    built.clear()
    a * b
    rref(hstack([a, c]))
    sol = solve_right(a, c)
    kernel_basis(b)
    kron(a, b)
    system.matrix()
    system.solve()
    assert built == []
    for n in (2, 4):
        det(square.submatrix(range(n), range(n)))
        assert len(built) == 1
        built.clear()
    assert a * sol.particular == c


def test_fp_random_matrix_builds_no_fpscalar(monkeypatch):
    # over F_p random_matrix draws the residues that PrimeField.random boxes,
    # by the same RNG calls, so every draw and the RNG state after it agree
    field = PrimeField(11)
    boxed_rng = random.Random(3)
    want = [field.random(boxed_rng).val for _ in range(4 * 5)]
    built = []
    init = FpScalar.__init__

    def counted(self, val, p):
        built.append(val)
        init(self, val, p)

    monkeypatch.setattr(FpScalar, "__init__", counted)
    rng = random.Random(3)
    a = random_matrix(field, 4, 5, rng)
    assert built == []
    assert [x for r in range(4) for x in a.row_list(r)] == want
    assert rng.getstate() == boxed_rng.getstate()


def test_fiber_orbit_op_work(monkeypatch):
    # one op of the fiber-orbit benchmark: sample, reflect at v, check the
    # six Z conditions, apply a braid's two words (the first starts at v)
    # and decide the orbit.  The int eliminations and the reflections
    # (split_ab) it makes are pinned: 15 and 7 when nothing was memoized.
    # rank b_i in the Z check is read off the elimination the reflection
    # made of the same b_i, and the word's first letter is the reflection
    # already made
    work = {"eliminations": 0, "reflections": 0}
    for owner, name, key in ((linalg, "_rref_int", "eliminations"),
                             (reflection, "split_ab", "reflections")):
        def counted(*args, fn=getattr(owner, name), key=key):
            work[key] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
    lam = WeightVec((1, 1, 1, 1))
    s = fiber("D4", (1, 1, 1, 1), (1, 1, 1, 1), lam.coords, 7)
    res = reflect_point(s, 1, lam)
    before = work["eliminations"]
    assert verify_Z_conditions(s, res, 1, lam).all_pass
    assert work["eliminations"] == before + 1  # rank a'
    o1, o2 = (reflect_word(s, word, lam) for word in ([1, 2, 1], [2, 1, 2]))
    dec = orbit_equivalent(o1.point, o2.point)
    assert dec.reason == "particular solution is invertible"
    assert group_act(dec.witness, o1.point) == o2.point
    assert work == {"eliminations": 13, "reflections": 6}
