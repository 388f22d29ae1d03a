"""Path words, their evaluation, invariants, intertwiners, orbit decisions."""

import random

import pytest

from quiverlab import (
    QQ,
    BPathExpr,
    FramedPoint,
    InvalidQuiver,
    Intertwiner,
    Mat,
    PathExpr,
    RangeViolation,
    empty_path,
    enumerate_paths,
    evaluate,
    format_bpath,
    format_path,
    group_act,
    hom_space,
    hstack,
    identity_group,
    is_intertwiner,
    lusztig_invariants,
    orbit_equivalent,
    parse_bpath,
    parse_expr,
    parse_path,
    random_group,
    sample_fiber,
    solve_right,
)
from quiverlab import DimData, RootVec, WeightVec, dynkin_quiver
from util import a1_point, a2_setup, mat


def a2_point(seed=0, d=(2, 1), v=(1, 1), lam=(0, 0)):
    q, dims = a2_setup(d=d, v=v)
    s = sample_fiber(q, dims, WeightVec(tuple(lam)), seed=seed)
    return q, s


def b_point(q, dims, **arrows):
    """The point whose B blocks are the given rows by arrow id, zero elsewhere."""
    return FramedPoint.build(q, dims, QQ, lambda blk, r, c: mat(QQ, arrows[blk.key])
                             if blk.part == "B" and blk.key in arrows else Mat.zeros(QQ, r, c))


class TestLiterals:
    def test_path_round_trip(self):
        q = dynkin_quiver("A3")
        for lit in ["h1", "h1b", "h2.h1", "h1b.h2b", "e2"]:
            assert format_path(parse_path(q, lit)) == lit

    def test_composition_order(self):
        # "h2.h1" applies h1 first: a path 1 -> 2 -> 3
        q = dynkin_quiver("A3")
        p = parse_path(q, "h2.h1")
        assert p.source == 1 and p.target == 3
        assert len(p) == 2

    def test_product_runs_right_factor_first(self):
        q = dynkin_quiver("A3")
        p = parse_path(q, "h2") * parse_path(q, "h1")
        assert p == parse_path(q, "h2.h1")
        assert p.source == 1 and p.target == 3

    def test_product_of_paths_that_do_not_compose(self):
        q = dynkin_quiver("A3")
        with pytest.raises(InvalidQuiver, match="^paths do not compose$"):
            parse_path(q, "h1") * parse_path(q, "h2")

    def test_product_of_empty_paths(self):
        q = dynkin_quiver("A3")
        assert empty_path(q, 2) * empty_path(q, 2) == empty_path(q, 2)

    def test_broken_path_rejected(self):
        q = dynkin_quiver("A3")
        with pytest.raises(InvalidQuiver):
            parse_path(q, "h2.h2")
        with pytest.raises(InvalidQuiver):
            parse_path(q, "e7")

    def test_bpath_round_trip(self):
        q = dynkin_quiver("A2")
        for lit in ["[2^1 h1 1^2]", "[1^0 h1b 2^0]", "[1^3]"]:
            assert format_bpath(parse_bpath(q, lit)) == lit

    def test_bpath_validation(self):
        q = dynkin_quiver("A2")
        with pytest.raises(InvalidQuiver):
            parse_bpath(q, "2^1 h1 1^2")  # missing brackets
        with pytest.raises(InvalidQuiver):
            parse_bpath(q, "[2^1 h1b 1^2]")  # segment runs 2 -> 1, chain says 1 -> 2

    def test_parse_expr_dispatch(self):
        q = dynkin_quiver("A2")
        assert isinstance(parse_expr(q, "h1"), PathExpr)
        assert isinstance(parse_expr(q, "[1^1]"), BPathExpr)

    def test_path_algebra_flag(self):
        q = dynkin_quiver("A2")
        assert parse_bpath(q, "[2^0 h1 1^0]").is_path_algebra_element
        assert not parse_bpath(q, "[2^1 h1 1^0]").is_path_algebra_element


class TestEvaluation:
    def test_empty_path_identity_or_zero(self):
        q, s = a2_point(v=(2, 1))
        e1 = empty_path(q, 1)
        assert evaluate(e1, s) == Mat.identity(QQ, 2)

    def test_single_arrow_is_block(self):
        q, s = a2_point()
        h = q.omega()[0]
        assert evaluate(PathExpr(q, (h.id,)), s) == s.B[h.id]

    def test_composition_multiplies(self):
        q, s = a2_point(v=(2, 2))
        h = q.omega()[0]
        loop = parse_path(q, f"{h.bar}.{h.id}")
        assert evaluate(loop, s) == s.B[h.bar] * s.B[h.id]

    def test_bpath_inserts_framing_loops(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        q = s.quiver
        b = parse_bpath(q, "[1^2]")
        gd = s.gamma[1] * s.delta[1]
        assert evaluate(b, s) == gd * gd
        assert evaluate(b, s) == mat(QQ, [[1]])

    def test_path_evaluation_is_equivariant(self):
        rng = random.Random(30)
        q, s = a2_point(v=(2, 2))
        g = random_group(q, s.dims, QQ, rng)
        t = group_act(g, s)
        for p in enumerate_paths(q, 3):
            lhs = evaluate(p, t)
            from quiverlab import inverse

            assert lhs == g.blocks[p.target] * evaluate(p, s) * inverse(g.blocks[p.source])


class TestEnumeration:
    def test_a2_short_paths(self):
        q = dynkin_quiver("A2")
        lits = [format_path(p) for p in enumerate_paths(q, 2)]
        assert lits == ["h1", "h1b", "h1b.h1", "h1.h1b"]

    def test_lengths_ascending(self):
        q = dynkin_quiver("A3")
        lens = [len(p) for p in enumerate_paths(q, 4)]
        assert lens == sorted(lens)

    def test_length_zero_gives_no_paths(self):
        assert list(enumerate_paths(dynkin_quiver("A2"), 0)) == []

    @pytest.mark.parametrize("max_len", [-1, -3])
    def test_negative_length_rejected(self, max_len):
        with pytest.raises(RangeViolation, match=f"max_len is {max_len}; it must be >= 0"):
            list(enumerate_paths(dynkin_quiver("A2"), max_len))


class TestInvariants:
    def test_zero_point_all_zero(self):
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        s = FramedPoint.zero(q, dims)
        inv = lusztig_invariants(s, 3)
        assert inv
        assert all(val == QQ.zero() for _, val in inv)

    def test_single_vertex_values(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        inv = dict(lusztig_invariants(s, 2))
        # no arrows: the only invariants are the delta gamma entries
        assert inv == {
            ("fr", "e1", 0, 0): QQ.one(),
            ("fr", "e1", 0, 1): QQ.zero(),
            ("fr", "e1", 1, 0): QQ.zero(),
            ("fr", "e1", 1, 1): QQ.zero(),
        }

    def test_length_zero_gives_the_framing_loops_only(self):
        q, s = a2_point()
        keys = [k for k, _ in lusztig_invariants(s, 0)]
        assert keys == [("fr", "e1", r, c) for r in range(2) for c in range(2)] + [("fr", "e2", 0, 0)]

    def test_no_empty_traces(self):
        q, s = a2_point()
        keys = [k for k, _ in lusztig_invariants(s, 2)]
        assert ("tr", "e1") not in keys
        assert ("tr", "h1b.h1") in keys
        assert any(k[0] == "fr" and k[1] == "e1" for k in keys)

    def test_group_invariance(self):
        rng = random.Random(33)
        for _ in range(8):
            q, s = a2_point(seed=rng.randint(0, 999), v=(2, 1))
            g = random_group(q, s.dims, QQ, rng)
            assert lusztig_invariants(s, 4) == lusztig_invariants(group_act(g, s), 4)

    @staticmethod
    def per_path_reference(s, max_len):
        """Every invariant from its own `evaluate` call, in the documented order."""
        q = s.quiver
        paths = list(enumerate_paths(q, max_len))
        out = [(("tr", format_path(p)), evaluate(p, s).trace()) for p in paths if p.is_closed]
        for p in [empty_path(q, vert) for vert in q.vertices] + paths:
            m = s.delta[p.target] * evaluate(p, s) * s.gamma[p.source]
            lit = format_path(p)
            out += [(("fr", lit, r, c), m[r, c]) for r in range(m.rows) for c in range(m.cols)]
        return out

    @pytest.mark.parametrize("name, d, v, lam", [
        ("A2", (2, 1), (1, 1), (1, 1)),
        ("A2", (2, 2), (2, 1), (1, 2)),
        ("A3", (1, 1, 1), (1, 2, 1), (1, -1, 2)),
        ("D4", (1, 1, 1, 1), (1, 1, 1, 1), (1, 2, -1, 3)),
    ], ids=["A2", "A2v21", "A3", "D4"])
    def test_matches_per_path_evaluation(self, name, d, v, lam):
        q = dynkin_quiver(name)
        dims = DimData(WeightVec(d), RootVec(v))
        for seed in (0, 1):
            s = sample_fiber(q, dims, WeightVec(lam), seed=seed)
            for max_len in range(1, 5):
                assert lusztig_invariants(s, max_len) == self.per_path_reference(s, max_len)


def flatten(blocks, verts):
    return [x for v in verts for row in blocks[v].to_lists() for x in row]


def contains(sol, target: Intertwiner, field=QQ):
    """Membership of `target` in the affine solution set of `sol`."""
    from quiverlab import NoSolution

    if not sol.exists:
        return False
    verts = sorted(target.blocks, key=repr)
    diff = {v: target.blocks[v] - sol.particular.blocks[v] for v in verts}
    want = Mat.column(field, flatten(diff, verts))
    if not sol.basis:
        return want.is_zero()
    cols = [Mat.column(field, flatten(b.blocks, verts)) for b in sol.basis]
    try:
        solve_right(hstack(cols), want)
        return True
    except NoSolution:
        return False


class TestHomSpace:
    def test_self_hom_contains_identity(self):
        q, s = a2_point(v=(2, 1))
        sol = hom_space(s, s)
        assert sol.exists
        ident = Intertwiner(identity_group(q, s.dims).blocks)
        assert is_intertwiner(ident, s, s)
        assert contains(sol, ident)

    def test_hom_to_translate_contains_g(self):
        rng = random.Random(41)
        q, s = a2_point(v=(2, 2))
        g = random_group(q, s.dims, QQ, rng)
        t = group_act(g, s)
        w = Intertwiner(g.blocks)
        assert is_intertwiner(w, s, t)
        assert contains(hom_space(s, t), w)

    def test_rigid_pair_has_zero_hom(self):
        q = dynkin_quiver("A1")
        dims = DimData(WeightVec((1,)), RootVec((1,)))
        s = FramedPoint(q, dims, QQ, {}, {1: mat(QQ, [[1]])}, {1: mat(QQ, [[0]])})
        t = FramedPoint(q, dims, QQ, {}, {1: mat(QQ, [[0]])}, {1: mat(QQ, [[1]])})
        sol = hom_space(s, t)
        assert sol.exists
        assert sol.dimension == 0
        assert sol.particular.blocks[1].is_zero()


class TestOrbitDecision:
    def test_translate_is_yes(self):
        rng = random.Random(51)
        for k in range(6):
            q, s = a2_point(seed=100 + k, v=(2, 1))
            g = random_group(q, s.dims, QQ, rng)
            dec = orbit_equivalent(s, group_act(g, s))
            assert dec.kind == "yes"
            assert group_act(dec.witness, s) == group_act(g, s)

    def test_self_is_yes(self):
        q, s = a2_point(v=(1, 2))
        dec = orbit_equivalent(s, s)
        assert dec.kind == "yes"
        assert group_act(dec.witness, s) == s

    def test_distinct_closed_orbits_no(self):
        # same d, v and equal invariants, but no invertible map matches
        q = dynkin_quiver("A1")
        dims = DimData(WeightVec((1,)), RootVec((1,)))
        s = FramedPoint(q, dims, QQ, {}, {1: mat(QQ, [[1]])}, {1: mat(QQ, [[0]])})
        t = FramedPoint(q, dims, QQ, {}, {1: mat(QQ, [[0]])}, {1: mat(QQ, [[1]])})
        dec = orbit_equivalent(s, t)
        assert dec.kind == "no"

    def test_no_forward_intertwiner_no(self):
        # the rigid pair of the test above, the other way round: g * 0 = 1 has
        # no solution, and both framing loops delta gamma are 0
        q = dynkin_quiver("A1")
        dims = DimData(WeightVec((1,)), RootVec((1,)))
        s = FramedPoint(q, dims, QQ, {}, {1: mat(QQ, [[0]])}, {1: mat(QQ, [[1]])})
        t = FramedPoint(q, dims, QQ, {}, {1: mat(QQ, [[1]])}, {1: mat(QQ, [[0]])})
        assert not hom_space(s, t).exists
        assert orbit_equivalent(s, t) == ("no", None, "no intertwiner in one direction")

    def test_hom_dimensions_differ_no(self):
        # unframed A2, v = (1, 2): hom(s, t) needs (0 1) g_2 = 0, a 3-dimensional
        # set, and hom(t, s) needs g_1 (0 1) = 0, a 4-dimensional one
        q, dims = a2_setup(d=(0, 0), v=(1, 2))
        s = FramedPoint.zero(q, dims)
        t = b_point(q, dims, h1b=[[0, 1]])
        assert (hom_space(s, t).dimension, hom_space(t, s).dimension) == (3, 4)
        assert orbit_equivalent(s, t) == ("no", None, "hom dimensions differ between directions")

    def test_random_stage_yes(self):
        # A1, d = 1, v = 2, zero point: hom(s, s) is every 2 x 2 g; the
        # particular solution is 0, and the scan's combinations
        # [[t, t^2], [t^3, t^4]] are all singular; a random one is not
        q = dynkin_quiver("A1")
        s = FramedPoint.zero(q, DimData(WeightVec((1,)), RootVec((2,))))
        dec = orbit_equivalent(s, s)
        assert (dec.kind, dec.reason) == ("yes", "random combination")
        assert group_act(dec.witness, s) == s

    def test_singular_hom_set_is_unknown(self):
        # unframed A2, v = (1, 1): t = 0 lies in the orbit closure of s, and
        # every g in hom(s, t) has g_2 = 0, so no combination is invertible
        q, dims = a2_setup(d=(0, 0), v=(1, 1))
        s = b_point(q, dims, h1=[[1]])
        dec = orbit_equivalent(s, FramedPoint.zero(q, dims))
        assert dec == ("unknown", None,
                       "positive-dimensional hom set, all tried combinations singular")

    def test_invariant_mismatch_no(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        t = a1_point(gamma=(2, 0), delta=(1, 0))
        dec = orbit_equivalent(s, t)
        assert dec.kind == "no"
        assert "invariant" in dec.reason

    def test_dims_must_agree(self):
        from quiverlab import ShapeMismatch

        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        q2, dims2 = a2_setup(d=(1, 1), v=(1, 0))
        s = FramedPoint.zero(q, dims)
        t = FramedPoint.zero(q2, dims2)
        with pytest.raises(ShapeMismatch):
            orbit_equivalent(s, t)
