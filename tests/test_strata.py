"""Strata of the zero fiber: labels, dimension formulas, F_p point counts,
checked against the brute-force enumerator of `util.brute_force_count`."""

import itertools
import math
import random

import pytest

from quiverlab import (
    QQ,
    BudgetExceeded,
    DimData,
    FramedPoint,
    RangeViolation,
    RootVec,
    ShapeMismatch,
    WeightVec,
    codim_report,
    count_points_Fq,
    dynkin_quiver,
    group_act,
    growth_slope,
    is_semistable_mplus,
    random_group,
    sample_fiber,
    stratum_dimension,
    v_plus,
)
from util import a1_point, a1_setup, a2_setup, brute_force_count, quiver, stratum_dimension_oracle


class TestLabels:
    def test_values(self):
        assert v_plus(a1_point(gamma=(1, 0), delta=(0, 0))) == RootVec((1,))
        assert v_plus(a1_point(gamma=(0, 0), delta=(1, 0))) == RootVec((0,))

    def test_group_invariant(self):
        rng = random.Random(5)
        q, dims = a2_setup(d=(2, 1), v=(2, 1))
        for _ in range(10):
            s = FramedPoint.random(q, dims, QQ, rng)
            g = random_group(q, dims, QQ, rng)
            assert v_plus(s) == v_plus(group_act(g, s))

    def test_matches_semistability(self):
        rng = random.Random(6)
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        for seed in range(10):
            s = sample_fiber(q, dims, WeightVec((0, 0)), seed=seed)
            assert is_semistable_mplus(s) == (v_plus(s) == dims.v)


class TestStratumDimension:
    def test_single_vertex_d2(self):
        q = dynkin_quiver("A1")
        d, v = WeightVec((2,)), RootVec((1,))
        assert stratum_dimension(q, d, v, RootVec((1,))) == 3
        assert stratum_dimension(q, d, v, RootVec((0,))) == 2

    def test_single_vertex_d1(self):
        q = dynkin_quiver("A1")
        d, v = WeightVec((1,)), RootVec((1,))
        assert stratum_dimension(q, d, v, RootVec((1,))) == 1
        assert stratum_dimension(q, d, v, RootVec((0,))) == 1

    def test_single_vertex_d3(self):
        q = dynkin_quiver("A1")
        d, v = WeightVec((3,)), RootVec((1,))
        assert stratum_dimension(q, d, v, RootVec((1,))) == 5
        assert stratum_dimension(q, d, v, RootVec((0,))) == 3

    def test_range_checks(self):
        q = dynkin_quiver("A1")
        with pytest.raises(RangeViolation, match=r"^v_prime at vertex 1 is 2; need 0 <= v'_i <= v_i = 1$"):
            stratum_dimension(q, WeightVec((2,)), RootVec((1,)), RootVec((2,)))
        with pytest.raises(RangeViolation, match=r"^v_prime at vertex 1 is -1; need 0 <= v'_i <= v_i = 1$"):
            stratum_dimension(q, WeightVec((2,)), RootVec((1,)), RootVec((-1,)))
        with pytest.raises(ShapeMismatch):
            stratum_dimension(q, WeightVec((2,)), RootVec((1,)), RootVec((0, 0)))

    @pytest.mark.parametrize("d, v, v_prime, message", [
        ((1,), (1, 1), (0, 1), "d has length 1, quiver has 2 vertices"),
        ((1, 1), (1, 1, 0), (0, 1), "v has length 3, quiver has 2 vertices"),
        ((1, 1), (1, 1), (0, 1, 1), "v_prime has length 3, quiver has 2 vertices"),
    ], ids=["d", "v", "v_prime"])
    def test_length_error_names_the_vector(self, d, v, v_prime, message):
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            stratum_dimension(dynkin_quiver("A2"), WeightVec(d), RootVec(v), RootVec(v_prime))


class TestCodimReport:
    def test_dominant_case(self):
        q = dynkin_quiver("A1")
        rep = codim_report(q, WeightVec((2,)), RootVec((1,)))
        assert rep.delta_v == 3
        assert rep.dominant and not rep.regular
        dims = {st.v_prime: st.dimension for st in rep.strata}
        assert dims == {(0,): 2, (1,): 3}
        assert rep.min_proper_codim == 1
        assert rep.codim_ge_1 and not rep.codim_ge_2

    def test_regular_case(self):
        q = dynkin_quiver("A1")
        rep = codim_report(q, WeightVec((3,)), RootVec((1,)))
        assert rep.regular
        assert rep.delta_v == 5
        assert rep.min_proper_codim == 2
        assert rep.codim_ge_1 and rep.codim_ge_2

    def test_non_dominant_case(self):
        q = dynkin_quiver("A1")
        rep = codim_report(q, WeightVec((1,)), RootVec((1,)))
        assert not rep.dominant
        assert rep.min_proper_codim == 0
        assert not rep.codim_ge_1

    def test_no_proper_strata(self):
        q = dynkin_quiver("A1")
        rep = codim_report(q, WeightVec((2,)), RootVec((0,)))
        assert rep.min_proper_codim is None
        assert rep.codim_ge_1 and rep.codim_ge_2  # vacuously

    @pytest.mark.parametrize("name, d, v, count", [
        ("A1", (1,), (10**6,), 10**6 + 1),
        ("D4", (1, 1, 1, 1), (99, 99, 99, 99), 10**8),
    ], ids=["A1-one-past-the-limit", "D4-v99"])
    def test_too_many_strata_refused(self, name, d, v, count):
        # refused before any stratum is built: 10^8 strata would hold about 20 GB
        with pytest.raises(BudgetExceeded, match=f"= {count} strata v' <= v, more than the limit 1000000$"):
            codim_report(dynkin_quiver(name), d, v)

    def test_predictions_hold_on_grid(self):
        # dominance => proper codim >= 1; regularity => proper codim >= 2
        q = dynkin_quiver("A2")
        for d0 in range(0, 4):
            for d1 in range(0, 3):
                for v0 in range(0, 3):
                    for v1 in range(0, 3):
                        rep = codim_report(
                            q, WeightVec((d0, d1)), RootVec((v0, v1))
                        )
                        if rep.dominant:
                            assert rep.codim_ge_1
                        if rep.regular:
                            assert rep.codim_ge_2


def oracle_battery():
    """(quiver, d, v): A1 with d, v <= 3; A2 and A3 with d, v in {0,1,2}^n;
    D4 with d in {0,1}^4 and v in {0,1,2}^4."""
    grids = [("A1", range(4), range(4)), ("A2", range(3), range(3)),
             ("A3", range(3), range(3)), ("D4", range(2), range(3))]
    for name, d_range, v_range in grids:
        q = dynkin_quiver(name)
        n = len(q.vertices)
        for d in itertools.product(d_range, repeat=n):
            for v in itertools.product(v_range, repeat=n):
                yield q, d, v


class TestAgainstOracle:
    """Both strata functions read every codimension off one formula; the
    oracle of util.py computes each stratum's dimension from the arrows."""

    def test_every_stratum(self):
        for q, d, v in oracle_battery():
            rep = codim_report(q, d, v)
            want = [stratum_dimension_oracle(q, d, v, st.v_prime) for st in rep.strata]
            assert rep.delta_v == stratum_dimension_oracle(q, d, v, v)
            assert [(st.dimension, st.codimension) for st in rep.strata] == [
                (dim, rep.delta_v - dim) for dim in want], (q, d, v)
            assert [stratum_dimension(q, d, v, st.v_prime) for st in rep.strata] == want, (q, d, v)
            # finite type: d - Cv regular => every proper stratum has codim >= 2
            if rep.regular:
                assert rep.min_proper_codim is None or rep.min_proper_codim >= 2, (q, d, v)


class TestCounting:
    def test_single_vertex_counts(self):
        q, dims = a1_setup(d=2, v=1)
        lam = WeightVec((0,))
        r2 = count_points_Fq(q, dims, lam, 2)
        assert r2.total == 10
        assert r2.stratum_count((0,)) == 4
        assert r2.stratum_count((1,)) == 6
        r3 = count_points_Fq(q, dims, lam, 3)
        assert r3.total == 33
        assert r3.stratum_count((0,)) == 9
        assert r3.stratum_count((1,)) == 24

    def test_space_dimension_reported(self):
        q, dims = a1_setup(d=2, v=1)
        r = count_points_Fq(q, dims, WeightVec((0,)), 2)
        assert r.space_dimension == 4
        assert r.p == 2

    def test_a2_hand_count(self):
        # v = (1, 0): gamma delta = 0 on one vertex, 2p - 1 points
        q, dims = a2_setup(d=(1, 0), v=(1, 0))
        r = count_points_Fq(q, dims, WeightVec((0, 0)), 3)
        assert r.total == 5
        assert r.stratum_count((0, 0)) == 3
        assert r.stratum_count((1, 0)) == 2

    def test_nonzero_level(self):
        # gamma delta = 1: gamma != 0 and delta determined up to the kernel
        q, dims = a1_setup(d=2, v=1)
        r = count_points_Fq(q, dims, WeightVec((1,)), 3)
        # pairs with <gamma, delta> = 1 over F_3: (9 - 1) * 3 = 24
        assert r.total == 24
        assert r.stratum_count((1,)) == 24

    def test_a1_closed_form(self):
        # v = 1: the fiber is {(gamma, delta) : gamma . delta = lambda} in
        # F_p^d x F_p^d, and gamma = 0 is the stratum v+ = 0
        for d in (2, 3, 4):
            q, dims = a1_setup(d=d, v=1)
            for p in (5, 7):
                zero = count_points_Fq(q, dims, WeightVec((0,)), p)
                assert zero.total == p ** (2 * d - 1) + p ** d - p ** (d - 1)
                assert zero.stratum_count((0,)) == p ** d
                assert zero.stratum_count((1,)) == zero.total - p ** d
                one = count_points_Fq(q, dims, WeightVec((1,)), p)
                assert one.total == p ** (2 * d - 1) - p ** (d - 1)
                assert one.strata == (((1,), one.total),)

    def test_budget_guard(self):
        q, dims = a1_setup(d=2, v=1)
        with pytest.raises(BudgetExceeded):
            count_points_Fq(q, dims, WeightVec((0,)), 2, budget=3)

    def test_negative_budget_rejected(self):
        q, dims = a1_setup(d=2, v=1)
        with pytest.raises(RangeViolation, match="budget is -5; it must be >= 0"):
            count_points_Fq(q, dims, WeightVec((0,)), 2, budget=-5)

    def test_budget_bounds_the_points_visited(self):
        # gamma spans the 7^2 points visited, the whole space 7^4
        q, dims = a1_setup(d=2, v=1)
        assert count_points_Fq(q, dims, WeightVec((0,)), 7, budget=49).total == 7**3 + 7**2 - 7
        with pytest.raises(BudgetExceeded, match=r"p\^\(dim B \+ dim gamma\) = 7\^2 exceeds"):
            count_points_Fq(q, dims, WeightVec((0,)), 7, budget=48)

    def test_a_huge_power_is_refused_from_its_exponent(self):
        # 2^k > budget once k >= budget.bit_length(), so p^k is not computed
        q, dims = a1_setup(d=3000, v=3000)
        with pytest.raises(BudgetExceeded, match=r"= 1000000000000000003\^9000000 exceeds"):
            count_points_Fq(q, dims, WeightVec((0,)), 10**18 + 3)

    @pytest.mark.parametrize("p", [2, 3])
    def test_the_exponent_test_is_exact(self, p):
        # dim gamma = 2: p^2 is admitted, p^2 - 1 is refused
        q, dims = a1_setup(d=2, v=1)
        assert count_points_Fq(q, dims, WeightVec((0,)), p, budget=p * p).total > 0
        with pytest.raises(BudgetExceeded, match=rf"= {p}\^2 exceeds"):
            count_points_Fq(q, dims, WeightVec((0,)), p, budget=p * p - 1)

    def test_composite_p_rejected(self):
        from quiverlab import WrongField

        q, dims = a1_setup(d=1, v=1)
        with pytest.raises(WrongField):
            count_points_Fq(q, dims, WeightVec((0,)), 4)

    @pytest.mark.parametrize("p", [10**18 + 3, 10**18, 2**89 - 1])
    def test_budget_is_checked_before_the_field(self, p):
        # the budget refuses these at once, prime, composite or beyond the
        # range of the primality test
        q, dims = a1_setup(d=2, v=1)
        with pytest.raises(BudgetExceeded, match=rf"= {p}\^2 exceeds the enumeration budget"):
            count_points_Fq(q, dims, WeightVec((0,)), p)


# (quiver, d, v, lambda, primes): each case has at most 5^6 points, few enough
# for the brute-force oracle; A2 with v = (1, 0) has a vertex with v_i = 0 and
# the d = (2, 0) and (0, 2) cases a vertex with d_i = 0
ORACLE = [
    ("A1", (1,), (1,), (0,), (2, 3, 5)),
    ("A1", (1,), (1,), (1,), (2, 3, 5)),
    ("A1", (2,), (1,), (0,), (2, 3, 5)),
    ("A1", (2,), (1,), (1,), (2, 3, 5)),
    ("A1", (3,), (1,), (0,), (2, 3)),
    ("A1", (3,), (1,), (1,), (2, 3, 5)),
    ("A1", (1,), (2,), (0,), (2, 3, 5)),
    ("A1", (1,), (2,), (1,), (2, 3, 5)),
    ("A1", (2,), (2,), (0,), (2, 3)),
    ("A1", (2,), (2,), (1,), (2, 3)),
    ("A1", (3,), (2,), (0,), (2,)),
    ("A1", (3,), (2,), (1,), (2,)),
    ("A2", (1, 1), (1, 1), (0, 0), (2, 3, 5)),
    ("A2", (1, 1), (1, 1), (1, 2), (2, 3)),
    ("A2", (2, 0), (1, 1), (0, 0), (2, 3)),
    ("A2", (2, 0), (1, 1), (1, 2), (2, 3)),
    ("A2", (0, 2), (1, 1), (0, 0), (2, 3)),
    ("A2", (0, 2), (1, 1), (1, 2), (2, 3)),
    ("A2", (1, 1), (1, 0), (0, 0), (2, 3, 5)),
    ("A2", (1, 1), (1, 0), (1, 2), (2, 3, 5)),
    ("A3", (1, 0, 1), (1, 1, 1), (0, 0, 0), (2, 3)),
    ("A3", (1, 0, 1), (1, 1, 1), (1, 0, 2), (2, 3)),
    ("D4", (1, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 0), (2, 3)),
    ("D4", (1, 0, 0, 0), (1, 1, 1, 1), (1, 1, 0, 2), (2, 3)),
]


def _vec_id(xs):
    return ",".join(map(str, xs))


@pytest.mark.parametrize("name,d,v,lam,p", [
    pytest.param(name, d, v, lam, p,
                 id=f"{name}-d{_vec_id(d)}-v{_vec_id(v)}-lam{_vec_id(lam)}-p{p}")
    for name, d, v, lam, primes in ORACLE for p in primes
])
def test_count_matches_brute_force(name, d, v, lam, p):
    q, lam = quiver(name), WeightVec(lam)
    dims = DimData(WeightVec(d), RootVec(v))
    # stratum for stratum, total and space dimension
    assert count_points_Fq(q, dims, lam, p) == brute_force_count(q, dims, lam, p)


class TestGrowthSlope:
    def test_exact_powers(self):
        assert growth_slope({2: 8, 3: 27, 5: 125}) == pytest.approx(3.0, abs=1e-12)
        assert growth_slope({2: 4, 3: 9}) == pytest.approx(2.0, abs=1e-12)

    def test_measured_dimension(self):
        q, dims = a1_setup(d=2, v=1)
        lam = WeightVec((0,))
        counts = {p: count_points_Fq(q, dims, lam, p).total for p in (2, 3, 5, 7)}
        assert counts == {2: 10, 3: 33, 5: 145, 7: 385}
        assert abs(growth_slope(counts) - 3) < 0.35

    def test_guards(self):
        with pytest.raises(RangeViolation):
            growth_slope({2: 4})
        with pytest.raises(RangeViolation):
            growth_slope({2: 0, 3: 9})
