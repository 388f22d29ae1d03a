"""Reflection functors: defining identities, Coxeter relations, reduction,
and the dimension-changing embeddings / projections."""

import random

import pytest

from quiverlab import (
    QQ,
    QQI,
    BudgetExceeded,
    DimData,
    FramedPoint,
    Mat,
    MomentMismatch,
    RangeViolation,
    RankTooLarge,
    ReflectionUndefined,
    RootVec,
    ShapeMismatch,
    WeightVec,
    check_coxeter,
    codim_report,
    count_points_Fq,
    dominance,
    dot_action,
    doubled_quiver,
    dynkin_quiver,
    genericity,
    group_act,
    j_embed,
    limit_project,
    lusztig_invariants,
    moment_matches,
    orbit_equivalent,
    random_group,
    reduce_to_dominant,
    reflect_point,
    reflect_weight,
    reflect_word,
    sample_fiber,
    stratum_dimension,
    variety_dimension,
    verify_Z_conditions,
)
from quiverlab import reflection
from util import a1_point, a1_setup, a2_setup, mat, renamed_arrows


class TestReflectPoint:
    def test_single_vertex_worked_example(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        res = reflect_point(s, 1, WeightVec((1,)))
        assert res.side == "kernel"
        assert res.lam == WeightVec((-1,))
        s2 = res.point
        assert s2.dims.v == RootVec((1,))
        assert s2.gamma[1] == mat(QQ, [[0, -1]])
        assert s2.delta[1] == mat(QQ, [[0], [1]])
        assert moment_matches(s2, res.lam)
        assert verify_Z_conditions(s, res, 1, WeightVec((1,))).all_pass

    def test_m_transported(self):
        s = a1_point()
        res = reflect_point(s, 1, WeightVec((1,)), m=WeightVec((3,)))
        assert res.m == WeightVec((-3,))

    def test_new_dims_formula(self):
        # v'_i = d_i + sum_j a_ij v_j - v_i at the reflected vertex
        rng = random.Random(3)
        for name in ["A2", "A3", "D4"]:
            q = dynkin_quiver(name)
            dims = DimData(
                WeightVec(tuple(rng.randint(1, 2) for _ in q.vertices)),
                RootVec(tuple(rng.randint(1, 2) for _ in q.vertices)),
            )
            lam = WeightVec(tuple(1 for _ in q.vertices))
            s = sample_fiber(q, dims, lam, rng=rng)
            vertex = q.vertices[rng.randrange(q.n)]
            idx = q.vertex_index(vertex)
            res = reflect_point(s, vertex, lam)
            t = dims.d_of(q, vertex) + sum(
                dims.v_of(q, a.h0) for a in q.arrows_into(vertex)
            )
            assert res.point.dims.v[idx] == t - dims.v_of(q, vertex)
            assert res.lam == reflect_weight(q, idx, lam)

    def test_off_fiber_rejected(self):
        s = a1_point()  # mu = 1
        with pytest.raises(MomentMismatch):
            reflect_point(s, 1, WeightVec((0,)))

    def test_zero_point_undefined(self):
        q, dims = a1_setup(d=2, v=1)
        z = FramedPoint.zero(q, dims)
        with pytest.raises(ReflectionUndefined):
            reflect_point(z, 1, WeightVec((0,)))
        with pytest.raises(ReflectionUndefined):
            reflect_point(z, 1, WeightVec((0,)), side="kernel")

    def test_bad_side_name(self):
        s = a1_point()
        with pytest.raises(RangeViolation):
            reflect_point(s, 1, WeightVec((1,)), side="both")

    def test_sides_agree_up_to_orbit(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        rk = reflect_point(s, 1, WeightVec((1,)), side="kernel")
        rc = reflect_point(s, 1, WeightVec((1,)), side="cokernel")
        assert rk.point.dims == rc.point.dims
        assert verify_Z_conditions(s, rc, 1, WeightVec((1,))).all_pass
        assert orbit_equivalent(rk.point, rc.point).kind == "yes"

    def test_a2_lambda_transport(self):
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        lam = WeightVec((1, 1))
        s = sample_fiber(q, dims, lam, seed=2)
        res = reflect_point(s, 1, lam)
        assert res.lam == WeightVec((-1, 2))
        assert verify_Z_conditions(s, res, 1, lam).all_pass

    def test_section_shape(self):
        s = a1_point()
        res = reflect_point(s, 1, WeightVec((1,)))
        # kernel side: section columns span ker b inside T_i
        assert res.section.shape() == (2, 1)
        assert (res.b_prime * Mat.zeros(QQ, 2, 0)).cols == 0  # b' well-formed
        assert res.a_prime == res.section


class TestVerifier:
    def setup_method(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        self.q = q
        self.lam = WeightVec((1, 1))
        self.s = sample_fiber(q, dims, self.lam, seed=7)
        self.res = reflect_point(self.s, 1, self.lam)

    def test_clean_pass(self):
        rep = verify_Z_conditions(self.s, self.res, 1, self.lam)
        assert rep.all_pass
        assert rep.messages == ()

    def test_perturbed_identity_detected(self):
        s2 = self.res.point
        g2 = s2.gamma[1] + Mat.identity(QQ, s2.gamma[1].rows).submatrix(
            range(s2.gamma[1].rows), [0] * s2.gamma[1].cols
        )
        bad = FramedPoint(s2.quiver, s2.dims, s2.field, s2.B,
                          {**s2.gamma, 1: g2}, s2.delta)
        rep = verify_Z_conditions(self.s, bad, 1, self.lam)
        assert not rep.all_pass
        assert not rep.ab_identity
        assert any("a' b'" in t for t in rep.messages)

    def test_away_change_detected(self):
        s2 = self.res.point
        bad = FramedPoint(s2.quiver, s2.dims, s2.field, s2.B,
                          {**s2.gamma, 2: s2.gamma[2].scale(QQ.coerce(2))},
                          s2.delta)
        rep = verify_Z_conditions(self.s, bad, 1, self.lam)
        assert not rep.away_gamma
        assert any("gamma[2]" in t for t in rep.messages)

    def test_zero_pair_is_no_exact_sequence(self):
        # at vertex 2, a: V_2 -> T_2 = D_2 and b: T_2 -> V_2 are zero on both sides
        q = doubled_quiver([1, 2], [])
        z = FramedPoint.zero(q, DimData(WeightVec((1, 2)), RootVec((1, 1))))
        rep = verify_Z_conditions(z, z, 2, WeightVec((0, 0)))
        assert rep == (True, True, True, False, True, True,
                       ("a' not injective", "b not surjective"))

    def test_tampered_dims_reported_not_crashed(self):
        s2 = self.res.point
        vt = list(s2.dims.v.coords)
        vt[1] += 1  # grow a neighbour fiber; T_1 changes size
        bad = j_embed(s2, RootVec(tuple(vt)))
        rep = verify_Z_conditions(self.s, bad, 1, self.lam)
        assert not rep.all_pass
        assert any("T_i dims differ" in t for t in rep.messages)


class TestReflectWord:
    def test_empty_word(self):
        s = a1_point()
        out = reflect_word(s, [], WeightVec((1,)))
        assert out.point == s
        assert out.lam == WeightVec((1,))
        assert out.steps == ()

    def test_off_fiber_start_rejected(self):
        s = a1_point()  # mu = 1
        with pytest.raises(MomentMismatch):
            reflect_word(s, [1, 1], WeightVec((2,)))

    def test_zero_parameters_rejected_before_the_moment_check(self):
        # s is off the lambda = 0 fiber too; the (0, 0) test comes first
        s = a1_point()  # mu = 1
        with pytest.raises(ReflectionUndefined, match=r"\(0, 0\) at step 0"):
            reflect_word(s, [1, 1], WeightVec((0,)))

    def test_involution_up_to_orbit(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        out = reflect_word(s, [1, 1], WeightVec((1,)))
        assert out.lam == WeightVec((1,))
        assert orbit_equivalent(out.point, s).kind == "yes"

    def test_braid_words_agree(self):
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        lam = WeightVec((1, 1))
        for seed in range(5):
            s = sample_fiber(q, dims, lam, seed=seed)
            o1 = reflect_word(s, [1, 2, 1], lam)
            o2 = reflect_word(s, [2, 1, 2], lam)
            assert o1.lam == o2.lam == WeightVec((-1, -1))
            assert o1.point.dims == o2.point.dims
            assert orbit_equivalent(o1.point, o2.point).kind == "yes"

    def test_lambda_trace_through_braid(self):
        # (1,1) -> s_1: (-1,2) -> s_2: (1,-2) -> s_1: (-1,-1)
        q = dynkin_quiver("A2")
        lam = WeightVec((1, 1))
        seq = [lam]
        for idx in [0, 1, 0]:
            seq.append(reflect_weight(q, idx, seq[-1]))
        assert seq[1:] == [WeightVec((-1, 2)), WeightVec((1, -2)), WeightVec((-1, -1))]

    def test_undefined_step_reported_with_its_prefix(self):
        # vertex 1 reflects (lambda_1 = 1); at vertex 2 the point is zero, so
        # with lambda_2 = 0 neither side applies although m_2 = 1
        q = doubled_quiver([1, 2], [])
        dims = DimData(WeightVec((1, 2)), RootVec((1, 1)))
        s = FramedPoint(q, dims, QQ, {}, {1: mat(QQ, [[1]]), 2: mat(QQ, [[0, 0]])},
                        {1: mat(QQ, [[1]]), 2: mat(QQ, [[0], [0]])})
        with pytest.raises(ReflectionUndefined, match=r"^step 1 \(prefix \[1, 2\]\): at vertex 2: "
                                                      "b_i not surjective and a_i not injective$"):
            reflect_word(s, [1, 2], WeightVec((1, 0)), WeightVec((0, 1)))

    def test_undefined_prefix_reported(self):
        q, dims = a2_setup(d=(2, 2), v=(1, 1))
        lam = WeightVec((1, 0))
        s = sample_fiber(q, dims, lam, seed=1)
        with pytest.raises(ReflectionUndefined) as err:
            reflect_word(s, [2], lam)  # lambda_2 = 0, no m
        assert "prefix [2]" in str(err.value)


class TestWeightLengths:
    """lambda and m of the wrong length are named before any other check."""

    LAM, M = WeightVec((1, 2)), WeightVec((1, 1))
    BAD = [
        ((1,), None, "lambda has length 1"),
        ((1, 2, 3), None, "lambda has length 3"),
        ((1, 2), (1,), "m has length 1"),
        ((1, 2), (1, 2, 3), "m has length 3"),
    ]
    IDS = ["lambda-short", "lambda-long", "m-short", "m-long"]

    @pytest.fixture(scope="class")
    def point(self):
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        return sample_fiber(q, dims, self.LAM, seed=0)

    @staticmethod
    def weights(lam, m):
        return WeightVec(lam), None if m is None else WeightVec(m)

    @pytest.mark.parametrize("lam, m, message", BAD, ids=IDS)
    @pytest.mark.parametrize("side", ["auto", "kernel", "cokernel"])
    def test_reflect_point(self, point, lam, m, message, side):
        with pytest.raises(ShapeMismatch, match=f"{message}, quiver has 2 vertices"):
            reflect_point(point, 2, *self.weights(lam, m), side=side)

    @pytest.mark.parametrize("lam, m, message", BAD, ids=IDS)
    @pytest.mark.parametrize("word", [[], [2], [1, 2]], ids=["empty", "one", "two"])
    def test_reflect_word(self, point, lam, m, message, word):
        # lambda_2 = 2, so the letter 2 would look at lam[1] and m[1]
        with pytest.raises(ShapeMismatch, match=f"{message}, quiver has 2 vertices"):
            reflect_word(point, word, *self.weights(lam, m))

    @pytest.mark.parametrize("lam", [(1,), (1, 2, 3)], ids=["short", "long"])
    def test_verify_Z_conditions(self, point, lam):
        s2 = reflect_point(point, 1, self.LAM).point
        with pytest.raises(ShapeMismatch, match=f"lambda has length {len(lam)}, quiver has 2"):
            verify_Z_conditions(point, s2, 1, WeightVec(lam))

    def test_good_lengths_still_reflect(self, point):
        out = reflect_word(point, [1, 2], self.LAM, self.M)
        assert out.m == WeightVec((1, -2))


class TestCoxeterChecks:
    def test_single_vertex_involution(self):
        q = dynkin_quiver("A1")
        rep = check_coxeter(q, WeightVec((2,)), RootVec((1,)), WeightVec((1,)),
                            trials=6, seed=0)
        assert rep.generic
        assert rep.all_pass
        kinds = {c.kind for c in rep.checks}
        assert kinds == {"involution", "sides"}

    def test_disjoint_union_commutation(self):
        q = doubled_quiver([1, 2], [])
        rep = check_coxeter(q, WeightVec((2, 2)), RootVec((1, 1)),
                            WeightVec((1, 1)), trials=5, seed=1)
        assert rep.all_pass
        comm = [c for c in rep.checks if c.kind == "commutation"]
        assert len(comm) == 1
        assert comm[0].passes == comm[0].trials > 0

    def test_a2_braid(self):
        q = dynkin_quiver("A2")
        rep = check_coxeter(q, WeightVec((1, 1)), RootVec((1, 1)),
                            WeightVec((1, 1)), trials=5, seed=2)
        assert rep.all_pass
        braid = [c for c in rep.checks if c.kind == "braid"]
        assert len(braid) == 1 and not braid[0].skipped

    def test_multi_edge_braid_skipped(self):
        q = doubled_quiver([1, 2], [(1, 2), (1, 2)])
        rep = check_coxeter(q, WeightVec((1, 1)), RootVec((1, 0)),
                            WeightVec((1, 1)), trials=3, seed=3)
        braid = [c for c in rep.checks if c.kind == "braid"]
        assert len(braid) == 1
        assert braid[0].skipped.startswith("a_ij")
        assert braid[0].ok

    def test_zero_parameter_vertex_skipped(self):
        q = dynkin_quiver("A2")
        rep = check_coxeter(q, WeightVec((2, 2)), RootVec((1, 1)),
                            WeightVec((1, 0)), trials=3, seed=4)
        inv = {c.vertices[0]: c for c in rep.checks if c.kind == "involution"}
        assert inv[2].skipped == "lambda_i = m_i = 0"
        assert not inv[1].skipped

    def test_negative_trials_rejected(self):
        q = dynkin_quiver("A1")
        with pytest.raises(RangeViolation, match="trials is -1; it must be >= 0"):
            check_coxeter(q, WeightVec((2,)), RootVec((1,)), WeightVec((1,)), trials=-1)

    def test_relation_checks_times_trials_is_bounded(self, monkeypatch):
        # A2 at lambda = (1, 1) samples 5 checks: 2 involutions, 2 side
        # agreements and the braid.  One trial past the limit is refused
        # before the first sample; at the limit the sampling starts
        class Sampled(Exception):
            pass

        def sample(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(reflection, "sample_fiber", sample)
        q = dynkin_quiver("A2")
        args = (q, WeightVec((1, 1)), RootVec((1, 1)), WeightVec((1, 1)))
        trials = reflection.MAX_RELATION_TRIALS // 5
        with pytest.raises(BudgetExceeded, match=rf"5 relation checks x {trials + 1} trials"):
            check_coxeter(*args, trials=trials + 1)
        with pytest.raises(Sampled):
            check_coxeter(*args, trials=trials)

    def test_zero_trials_pass_vacuously(self):
        q = dynkin_quiver("A1")
        rep = check_coxeter(q, WeightVec((2,)), RootVec((1,)), WeightVec((1,)), trials=0)
        assert all(c.trials == 0 and c.passes == 0 for c in rep.checks)

    def test_untestable_relation_says_why(self):
        # lambda_3 = -1 sends the braid (2, 3) through a vertex where neither
        # side is defined on any sample: 0 of 0 once passed with no reason
        q = dynkin_quiver("A3")
        rep = check_coxeter(q, WeightVec((1, 0, 1)), RootVec((1, 1, 1)), WeightVec((1, 1, -1)),
                            trials=5, seed=1)
        untested = [c for c in rep.checks if c.trials == 0]
        assert [(c.kind, c.vertices, c.passes) for c in untested] == [("braid", (2, 3), 0)]
        assert untested[0].skipped == "reflection undefined on every sample"
        assert all(c.skipped == "" and c.trials == 5 for c in rep.checks if c.trials)
        assert not rep.generic


class TestWeightSequences:
    """lambda and m may be given as tuples or lists as well as WeightVecs;
    each entry point reads them as WeightVecs."""

    LAM, M = (1, 2), (1, 1)
    FORMS = [tuple, list, WeightVec]
    FORM_IDS = ["tuple", "list", "WeightVec"]

    @pytest.fixture(scope="class")
    def point(self):
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        return sample_fiber(q, dims, WeightVec(self.LAM), seed=0)

    @pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
    def test_each_entry_point(self, point, form):
        lam, m = form(self.LAM), form(self.M)
        want_lam, want_m = WeightVec(self.LAM), WeightVec(self.M)
        res = reflect_point(point, 1, lam, m)
        assert res == reflect_point(point, 1, want_lam, want_m)
        assert res.lam == WeightVec((-1, 3)) and res.m == WeightVec((-1, 2))
        out = reflect_word(point, [1, 2], lam, m)
        assert out == reflect_word(point, [1, 2], want_lam, want_m)
        assert verify_Z_conditions(point, res, 1, lam) == verify_Z_conditions(point, res, 1, want_lam)
        q = point.quiver
        d, v = WeightVec((1, 1)), RootVec((1, 1))
        rep = check_coxeter(q, d, v, lam, m, trials=1, seed=2)
        assert rep == check_coxeter(q, d, v, want_lam, want_m, trials=1, seed=2)
        assert rep.all_pass
        trace = reduce_to_dominant(q, WeightVec((0, 0)), RootVec((1, 0)), lam, m)
        assert trace == reduce_to_dominant(q, WeightVec((0, 0)), RootVec((1, 0)), want_lam, want_m)

    @pytest.mark.parametrize("form", [tuple, list], ids=["tuple", "list"])
    def test_wrong_length_still_named(self, point, form):
        s2 = reflect_point(point, 1, WeightVec(self.LAM)).point
        for call in (lambda: reflect_point(point, 1, form((1, 2, 3))),
                     lambda: reflect_word(point, [1], form((1,))),
                     lambda: verify_Z_conditions(point, s2, 1, form((1,))),
                     lambda: check_coxeter(point.quiver, WeightVec((1, 1)), RootVec((1, 1)),
                                           form((1, 2, 3)), trials=1)):
            with pytest.raises(ShapeMismatch, match="lambda has length"):
                call()
        with pytest.raises(ShapeMismatch, match="m has length 1"):
            reflect_point(point, 1, form(self.LAM), form((1,)))


# each library entry point that takes a dimension vector d or v, called on A2
# with d and v as given; reflect_weight takes d as a weight
A2 = dynkin_quiver("A2")
DIMENSION_CALLS = {
    "check_coxeter": lambda d, v: check_coxeter(A2, d, v, (1, 2), trials=1, seed=2),
    "sample_fiber": lambda d, v: sample_fiber(A2, DimData(d, v), (1, 2), seed=0),
    "count_points_Fq": lambda d, v: count_points_Fq(A2, DimData(d, v), (0, 0), 2),
    "dominance": lambda d, v: dominance(A2, d, v),
    "variety_dimension": lambda d, v: variety_dimension(A2, d, v),
    "genericity": lambda d, v: genericity(A2, (1, 1), (1, 2), v, mode="Gv", d=d),
    "reflect_weight": lambda d, v: reflect_weight(A2, 0, d),
    "dot_action": lambda d, v: dot_action(A2, [0, 1], d, v),
    "reduce_to_dominant": lambda d, v: reduce_to_dominant(A2, d, v, (1, 2)),
    "codim_report": lambda d, v: codim_report(A2, d, v),
    "stratum_dimension": lambda d, v: stratum_dimension(A2, d, v, v),
}


class TestDimensionSequences:
    """d and v may be given as tuples or lists as well as a WeightVec and a
    RootVec, at every entry point; d - C v = (-1, 1) is not dominant, so
    reduce_to_dominant reflects."""

    D, V = (2, 1), (2, 1)

    @pytest.mark.parametrize("form", [tuple, list], ids=["tuple", "list"])
    @pytest.mark.parametrize("name", sorted(DIMENSION_CALLS))
    def test_each_entry_point(self, name, form):
        call = DIMENSION_CALLS[name]
        assert call(form(self.D), form(self.V)) == call(WeightVec(self.D), RootVec(self.V))

    @pytest.mark.parametrize("name", sorted(set(DIMENSION_CALLS) - {"reflect_weight"}))
    def test_wrong_length_still_named(self, name):
        with pytest.raises(ShapeMismatch, match=r"^d has length 3, quiver has 2 vertices$"):
            DIMENSION_CALLS[name]((2, 1, 0), self.V)

    @pytest.mark.parametrize("nm, call", [
        ("v_prime", lambda vec: stratum_dimension(A2, (2, 1), (2, 1), vec)),
        ("v_target", lambda vec: j_embed(FramedPoint.zero(A2, DimData((2, 1), (2, 1))), vec)),
    ], ids=["stratum_dimension-v_prime", "j_embed-v_target"])
    def test_wrong_length_of_other_vectors_named(self, nm, call):
        with pytest.raises(ShapeMismatch, match=f"^{nm} has length 3, quiver has 2 vertices$"):
            call((2, 1, 0))

    def test_reduction_reflects(self):
        assert reduce_to_dominant(A2, self.D, self.V, (1, 2)).word == (1,)


class TestReduction:
    def test_a2_double_drop(self):
        q = dynkin_quiver("A2")
        tr = reduce_to_dominant(q, WeightVec((0, 0)), RootVec((1, 1)),
                                WeightVec((0, 0)))
        assert [st.kind for st in tr.steps] == ["drop", "drop"]
        assert tr.v == RootVec((0, 0))
        assert tr.dominant and not tr.empty
        assert tr.word == ()

    def test_already_dominant(self):
        q = dynkin_quiver("A1")
        tr = reduce_to_dominant(q, WeightVec((2,)), RootVec((1,)), WeightVec((1,)))
        assert tr.steps == ()
        assert tr.dominant

    def test_empty_flag(self):
        q = dynkin_quiver("A1")
        tr = reduce_to_dominant(q, WeightVec((0,)), RootVec((1,)), WeightVec((1,)))
        assert tr.empty and not tr.dominant
        assert tr.v == RootVec((-1,))
        assert tr.word == (1,)
        assert tr.lam == WeightVec((-1,))

    def test_mixed_reflect_then_drop(self):
        q = dynkin_quiver("A2")
        tr = reduce_to_dominant(q, WeightVec((0, 1)), RootVec((2, 1)),
                                WeightVec((1, 0)))
        assert tr.dominant or tr.empty
        if tr.steps:
            assert tr.steps[0].vertex == 1

    def test_random_terminate(self):
        rng = random.Random(77)
        q3 = dynkin_quiver("A3")
        for _ in range(200):
            d = WeightVec(tuple(rng.randint(0, 4) for _ in range(3)))
            v = RootVec(tuple(rng.randint(0, 4) for _ in range(3)))
            lam = WeightVec(tuple(rng.randint(-1, 1) for _ in range(3)))
            tr = reduce_to_dominant(q3, d, v, lam)
            assert tr.dominant != tr.empty
            if tr.dominant:
                assert dominance(q3, d, tr.v).dominant

    def test_m_comes_along(self):
        q = dynkin_quiver("A1")
        tr = reduce_to_dominant(q, WeightVec((0,)), RootVec((1,)),
                                WeightVec((1,)), m=WeightVec((2,)))
        assert tr.m == WeightVec((-2,))

    @pytest.mark.parametrize("lam, m, message", [
        ((0, 0, 5), None, "lambda has length 3, quiver has 2 vertices"),
        ((0,), (1, 2, 3), "lambda has length 1, quiver has 2 vertices"),
        ((0, 0), (1, 2, 3), "m has length 3, quiver has 2 vertices"),
        ((0, 0), (1,), "m has length 1, quiver has 2 vertices"),
    ], ids=["lambda", "lambda-first", "m-long", "m-short"])
    def test_wrong_parameter_lengths_rejected(self, lam, m, message):
        # A2 with d = (1, 1), v = (2, 0) and lambda_1 = 0 reduces by drops
        # alone, so no reflect step would ever look at lambda or m
        q = dynkin_quiver("A2")
        with pytest.raises(ShapeMismatch, match=message):
            reduce_to_dominant(q, WeightVec((1, 1)), RootVec((2, 0)), WeightVec(lam),
                               m=None if m is None else WeightVec(m))


class TestEmbedding:
    def test_pad_and_cut_back(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        s = sample_fiber(q, dims, WeightVec((0, 0)), seed=5)
        big = j_embed(s, RootVec((2, 3)))
        assert big.dims.v == RootVec((2, 3))
        assert moment_matches(big, WeightVec((0, 0)))
        h = q.omega()[0]
        assert big.B[h.id].submatrix([0], [0]) == s.B[h.id]
        assert big.gamma[1].submatrix([0], range(2)) == s.gamma[1]

    def test_invariants_preserved(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        s = sample_fiber(q, dims, WeightVec((0, 0)), seed=6)
        big = j_embed(s, RootVec((2, 2)))
        assert lusztig_invariants(big, 4) == lusztig_invariants(s, 4)

    def test_shrinking_rejected(self):
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        s = FramedPoint.zero(q, dims)
        with pytest.raises(RangeViolation):
            j_embed(s, RootVec((0, 1)))
        with pytest.raises(ShapeMismatch):
            j_embed(s, RootVec((1,)))


class TestLimitProject:
    def embedded_pair(self, seed):
        """A point with non-surjective b_1, hidden inside a group translate."""
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        s = sample_fiber(q, dims, WeightVec((0, 0)), seed=seed)
        big = j_embed(s, RootVec((2, 1)))
        rng = random.Random(seed + 1000)
        g = random_group(q, big.dims, QQ, rng)
        return s, group_act(g, big)

    def test_invariants_preserved(self):
        for seed in range(6):
            s, hidden = self.embedded_pair(seed)
            out = limit_project(hidden, 1)
            assert out.dims.v == s.dims.v
            assert lusztig_invariants(out, 5) == lusztig_invariants(s, 5)

    def test_kernel_line_case(self):
        # b_1 surjective, a_1 with kernel: gamma = (1 0), delta = 0
        s = a1_point(gamma=(1, 0), delta=(0, 0))
        out = limit_project(s, 1)
        assert out.dims.v == RootVec((0,))
        assert lusztig_invariants(out, 3) == lusztig_invariants(s, 3)

    def test_kernel_line_case_over_qi(self):
        # the kernel vector of a_1 is e_1, stored as the ints 1 and 0; its
        # completion with an int pivot used to fail over Q(i)
        q, dims = a1_setup(d=3, v=2)
        i = QQI.i()
        gamma = {1: mat(QQI, [[1, 0, 0], [0, 1, 0]])}
        delta = {1: Mat.from_rows(QQI, [[0, 0], [0, 0], [0, i]])}
        out = limit_project(FramedPoint(q, dims, QQI, {}, gamma, delta), 1)
        assert out.dims.v == RootVec((1,))
        assert out.gamma[1] == mat(QQI, [[0, 1, 0]])
        assert out.delta[1] == Mat.from_rows(QQI, [[0], [0], [i]])

    def test_rank_too_large(self):
        s = a1_point(gamma=(1, 0), delta=(0, 1))  # mu = 0, b epi, a mono
        with pytest.raises(RankTooLarge):
            limit_project(s, 1)

    def test_moment_precondition(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))  # mu = 1
        with pytest.raises(MomentMismatch):
            limit_project(s, 1)

    def test_zero_fiber_rejected(self):
        q, dims = a1_setup(d=1, v=0)
        s = FramedPoint.zero(q, dims)
        with pytest.raises(RangeViolation):
            limit_project(s, 1)


@pytest.mark.parametrize("name, lam", [("A2", (1, 2)), ("A3", (1, 2, 1))])
def test_verify_rejects_points_on_different_quivers(name, lam):
    # on A2 this used to report failed conditions, on A3 to end in KeyError 'h2'
    q = dynkin_quiver(name)
    dims = DimData(WeightVec((1,) * q.n), RootVec((1,) * q.n))
    s = sample_fiber(q, dims, WeightVec(lam), seed=0)
    other = sample_fiber(renamed_arrows(q), dims, WeightVec(lam), seed=0)
    for pair in ((s, other), (other, s)):
        with pytest.raises(ShapeMismatch, match="points live on different quivers"):
            verify_Z_conditions(*pair, 1, WeightVec(lam))
