"""Quiver combinatorics: doubles, Cartan data, Weyl actions, genericity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverlab import (
    Arrow,
    CorootVec,
    InvalidQuiver,
    NotFiniteType,
    Quiver,
    RangeViolation,
    RootVec,
    ShapeMismatch,
    WeightVec,
    WeylElement,
    cartan_data,
    dominance,
    dot_action,
    doubled_quiver,
    dynkin_quiver,
    enumerate_weyl,
    genericity,
    is_finite_type,
    pair,
    reflect_coroot,
    reflect_weight,
    variety_dimension,
)


def kronecker():
    """Two vertices joined by two edges; not finite type."""
    return doubled_quiver([1, 2], [(1, 2), (1, 2)])


class TestQuiverStructure:
    def test_double_has_bar_involution(self):
        q = dynkin_quiver("A3")
        assert q.vertices == (1, 2, 3)
        for a in q.arrows:
            b = q.arrow(a.bar)
            assert b.bar == a.id
            assert (b.h0, b.h1) == (a.h1, a.h0)
            assert b.eps == -a.eps

    def test_omega_is_positive_half(self):
        q = dynkin_quiver("D4")
        om = q.omega()
        assert len(om) == 3
        assert all(a.eps == 1 for a in om)
        assert {a.id for a in q.arrows} == {a.id for a in om} | {a.bar for a in om}

    def test_arrows_into_sorted(self):
        q = dynkin_quiver("A3")
        ids = [a.id for a in q.arrows_into(2)]
        assert ids == sorted(ids)
        assert all(a.h1 == 2 for a in q.arrows_into(2))
        assert all(a.h0 == 2 for a in q.arrows_out_of(2))

    def test_loop_rejected(self):
        with pytest.raises(InvalidQuiver):
            doubled_quiver([1], [(1, 1)])

    def test_bad_involution_rejected(self):
        arr = (
            Arrow("x", 1, 2, 1, "y"),
            Arrow("y", 2, 1, 1, "x"),  # eps must flip under bar
        )
        with pytest.raises(InvalidQuiver):
            Quiver((1, 2), arr)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InvalidQuiver):
            doubled_quiver([1, 2], [(1, 3)])

    @pytest.mark.parametrize("vertex, message", [
        (9, "unknown vertex 9"), ("", "unknown vertex ''"), ("1", "unknown vertex '1'"),
    ], ids=["int", "empty", "digit-string"])
    def test_vertex_index_names_the_vertex(self, vertex, message):
        with pytest.raises(InvalidQuiver) as err:
            dynkin_quiver("A2").vertex_index(vertex)
        assert str(err.value) == message

    def test_json_round_trip(self):
        q = dynkin_quiver("D4")
        assert Quiver.from_json(q.to_json()) == q

    def test_dynkin_names(self):
        assert dynkin_quiver("a2") == dynkin_quiver("A2")
        assert dynkin_quiver("D4").n == 4
        with pytest.raises(InvalidQuiver):
            dynkin_quiver("E8")
        with pytest.raises(InvalidQuiver):
            dynkin_quiver("D2")

    @pytest.mark.parametrize("name", ["", "A", "Ax", "A-1", "A0", "D", "2A", "A 2"])
    def test_malformed_dynkin_names(self, name):
        # "", "A" and "Ax" used to fail with IndexError or ValueError
        with pytest.raises(InvalidQuiver, match="unsupported Dynkin name"):
            dynkin_quiver(name)


class TestCartan:
    def test_a2(self):
        cd = cartan_data(dynkin_quiver("A2"))
        assert cd.cartan == ((2, -1), (-1, 2))
        assert cd.adjacency == ((0, 1), (1, 0))

    def test_single_vertex(self):
        cd = cartan_data(dynkin_quiver("A1"))
        assert cd.cartan == ((2,),)

    def test_kronecker(self):
        cd = cartan_data(kronecker())
        assert cd.cartan == ((2, -2), (-2, 2))

    def test_d4_row_sums(self):
        cd = cartan_data(dynkin_quiver("D4"))
        # central vertex meets the three others
        degrees = [sum(row) for row in cd.adjacency]
        assert sorted(degrees) == [1, 1, 1, 3]


class TestWeylActions:
    def test_reflect_weight_a2(self):
        q = dynkin_quiver("A2")
        assert reflect_weight(q, 0, WeightVec((1, 1))) == WeightVec((-1, 2))
        assert reflect_weight(q, 1, WeightVec((1, 1))) == WeightVec((2, -1))

    def test_reflect_is_involution(self):
        q = dynkin_quiver("A3")
        rng = random.Random(2)
        for _ in range(30):
            x = WeightVec(tuple(rng.randint(-5, 5) for _ in range(3)))
            i = rng.randrange(3)
            assert reflect_weight(q, i, reflect_weight(q, i, x)) == x

    def test_reflect_coroot_pairing(self):
        q = dynkin_quiver("A2")
        rng = random.Random(6)
        for _ in range(20):
            x = WeightVec(tuple(rng.randint(-4, 4) for _ in range(2)))
            u = CorootVec(tuple(rng.randint(-4, 4) for _ in range(2)))
            i = rng.randrange(2)
            assert pair(reflect_weight(q, i, x), u) == pair(x, reflect_coroot(q, i, u))

    def test_dot_action_examples(self):
        a1 = dynkin_quiver("A1")
        assert dot_action(a1, [0], WeightVec((2,)), RootVec((1,))) == RootVec((1,))
        a2 = dynkin_quiver("A2")
        assert dot_action(a2, [0], WeightVec((1, 1)), RootVec((2, 0))) == RootVec((-1, 0))
        assert dot_action(a2, [], WeightVec((1, 1)), RootVec((2, 0))) == RootVec((2, 0))

    def test_dot_action_word_inverse(self):
        q = dynkin_quiver("A3")
        rng = random.Random(13)
        d = WeightVec((2, 1, 2))
        for _ in range(25):
            v = RootVec(tuple(rng.randint(0, 3) for _ in range(3)))
            w = [rng.randrange(3) for _ in range(rng.randint(0, 5))]
            moved = dot_action(q, w, d, v)
            back = dot_action(q, list(reversed(w)), d, moved)
            assert back == v

    def test_dot_action_bad_index(self):
        q = dynkin_quiver("A2")
        with pytest.raises(RangeViolation):
            dot_action(q, [2], WeightVec((1, 1)), RootVec((0, 0)))

    @pytest.mark.parametrize("cls, coords, message", [
        (RootVec, (1.7, 2), "RootVec[0] is 1.7; coordinates must be integers"),
        (RootVec, ("3", 2), "RootVec[0] is '3'; coordinates must be integers"),
        (RootVec, (1, True), "RootVec[1] is True; coordinates must be integers"),
        (CorootVec, (1, Fraction(1, 2)), "CorootVec[1] is Fraction(1, 2); coordinates must be integers"),
    ], ids=["float", "str", "bool", "fraction"])
    def test_non_integer_coordinates_rejected(self, cls, coords, message):
        with pytest.raises(RangeViolation) as err:
            cls(coords)
        assert str(err.value) == message

    def test_length_validation(self):
        q = dynkin_quiver("A2")
        with pytest.raises(ShapeMismatch):
            variety_dimension(q, WeightVec((1,)), RootVec((0, 0)))


class TestDimensionAndDominance:
    def test_variety_dimension(self):
        a1 = dynkin_quiver("A1")
        assert variety_dimension(a1, WeightVec((2,)), RootVec((1,))) == 2
        assert variety_dimension(a1, WeightVec((2,)), RootVec((0,))) == 0
        a2 = dynkin_quiver("A2")
        assert variety_dimension(a2, WeightVec((1, 1)), RootVec((1, 1))) == 2

    def test_dimension_is_dot_invariant(self):
        q = dynkin_quiver("A3")
        rng = random.Random(31)
        d = WeightVec((1, 2, 1))
        for _ in range(25):
            v = RootVec(tuple(rng.randint(0, 3) for _ in range(3)))
            w = [rng.randrange(3) for _ in range(rng.randint(1, 5))]
            assert variety_dimension(q, d, dot_action(q, w, d, v)) == variety_dimension(q, d, v)

    def test_dominance(self):
        a1 = dynkin_quiver("A1")
        dom = dominance(a1, WeightVec((2,)), RootVec((1,)))
        assert dom.dominant and not dom.regular
        assert dom.slacks == (0,)
        reg = dominance(a1, WeightVec((3,)), RootVec((1,)))
        assert reg.dominant and reg.regular and reg.slacks == (1,)
        bad = dominance(a1, WeightVec((1,)), RootVec((1,)))
        assert not bad.dominant and bad.slacks == (-1,)


class TestWeylGroup:
    @pytest.mark.parametrize(
        "name,order", [("A1", 2), ("A2", 6), ("A3", 24), ("D4", 192)]
    )
    def test_orders(self, name, order):
        assert len(enumerate_weyl(dynkin_quiver(name))) == order

    def test_identity_first_and_distinct(self):
        els = enumerate_weyl(dynkin_quiver("A2"))
        assert els[0].word == ()
        assert len({e.matrix for e in els}) == len(els)

    def test_closure_under_generators(self):
        from quiverlab.quiver import _generator_matrix, _matmul_int

        q = dynkin_quiver("A2")
        els = enumerate_weyl(q)
        mats = {e.matrix for e in els}
        cd = cartan_data(q)
        for e in els:
            for i in range(2):
                assert _matmul_int(_generator_matrix(cd, i), e.matrix) in mats

    def test_element_is_its_matrix(self):
        # the word is provenance only: equality and hashing read the matrix
        m = ((-1, 0), (1, 1))
        a, b = WeylElement(m, (0,)), WeylElement(m, (9,))
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != WeylElement(((1, 0), (0, 1)), (0,))

    def test_infinite_type_raises(self):
        assert not is_finite_type(kronecker())
        with pytest.raises(NotFiniteType):
            enumerate_weyl(kronecker())

    def test_infinite_type_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(NotFiniteType):
                enumerate_weyl(kronecker())

    def test_each_call_returns_a_new_list(self):
        q = dynkin_quiver("A3")
        first = enumerate_weyl(q)
        words = [e.word for e in first]
        first.clear()
        again = enumerate_weyl(cartan_data(q))
        assert again is not enumerate_weyl(q)
        assert [e.word for e in again] == words and len(words) == 24

    def test_closure_runs_once_per_cartan_matrix(self, monkeypatch):
        from quiverlab import quiver

        products = []
        matmul = quiver._matmul_int
        monkeypatch.setattr(quiver, "_matmul_int",
                            lambda a, b: products.append(1) or matmul(a, b))
        quiver._weyl_elements.cache_clear()
        q = dynkin_quiver("D4")
        lam, v = WeightVec((1, 0, 0, 0)), RootVec((1, 1, 1, 2))
        for mode in ("Hinf", "Gv", "Hinf"):
            genericity(q, WeightVec((0,) * 4), lam, v, mode, d=WeightVec((1, 0, 0, 0)))
        assert len(enumerate_weyl(q)) == 192
        assert len(products) == 192 * 4  # one product per element and generator

    def test_finite_type_families(self):
        for name in ["A1", "A2", "A5", "D4", "D6"]:
            assert is_finite_type(dynkin_quiver(name))

    def test_triangle_not_finite(self):
        tri = doubled_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        assert not is_finite_type(tri)


class TestGenericity:
    def test_all_ones_m_is_generic(self):
        q = dynkin_quiver("A2")
        res = genericity(q, WeightVec((1, 1)), WeightVec((0, 0)), RootVec((2, 2)))
        assert res.ok

    def test_zero_pair_fails_with_witness(self):
        q = dynkin_quiver("A2")
        res = genericity(q, WeightVec((0, 0)), WeightVec((0, 0)), RootVec((1, 0)))
        assert not res.ok
        assert res.witness_u == CorootVec((1, 0))

    def test_nonzero_lambda_saves_it(self):
        q = dynkin_quiver("A1")
        res = genericity(q, WeightVec((0,)), WeightVec((1,)), RootVec((1,)))
        assert res.ok

    def test_wall_detected_inside_box(self):
        # u = (1, 1) kills m = (1, -1), lam = (2, -2)
        q = dynkin_quiver("A2")
        res = genericity(q, WeightVec((1, -1)), WeightVec((2, -2)), RootVec((1, 1)))
        assert not res.ok
        assert res.witness_u == CorootVec((1, 1))

    def test_uvtilde_implies_uv(self):
        q = dynkin_quiver("A2")
        rng = random.Random(40)
        for _ in range(40):
            m = WeightVec(tuple(rng.randint(-2, 2) for _ in range(2)))
            lam = WeightVec(tuple(rng.randint(-2, 2) for _ in range(2)))
            v = RootVec(tuple(rng.randint(0, 2) for _ in range(2)))
            if genericity(q, m, lam, v, mode="UvTilde").ok:
                assert genericity(q, m, lam, v, mode="Uv").ok

    def test_gv_needs_d(self):
        q = dynkin_quiver("A2")
        with pytest.raises(RangeViolation):
            genericity(q, WeightVec((1, 1)), WeightVec((0, 0)), RootVec((1, 1)), mode="Gv")

    def test_gv_and_hinf_run_on_finite_type(self):
        q = dynkin_quiver("A2")
        d = WeightVec((1, 1))
        assert genericity(q, WeightVec((1, 1)), WeightVec((0, 0)), RootVec((1, 1)),
                          mode="Gv", d=d).ok
        assert genericity(q, WeightVec((1, 1)), WeightVec((0, 0)), RootVec((1, 1)),
                          mode="Hinf").ok
        bad = genericity(q, WeightVec((0, 0)), WeightVec((0, 0)), RootVec((1, 1)),
                         mode="Hinf")
        assert not bad.ok

    def test_unknown_mode(self):
        q = dynkin_quiver("A1")
        with pytest.raises(RangeViolation):
            genericity(q, WeightVec((1,)), WeightVec((0,)), RootVec((1,)), mode="??")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2).map(lambda k: ["A2", "A3", "D4"][k]),
    st.data(),
)
def test_weyl_matrices_preserve_dimension_form(name, data):
    q = dynkin_quiver(name)
    n = q.n
    d = WeightVec(tuple(data.draw(st.integers(0, 3)) for _ in range(n)))
    v = RootVec(tuple(data.draw(st.integers(0, 3)) for _ in range(n)))
    word = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    assert variety_dimension(q, d, dot_action(q, word, d, v)) == variety_dimension(q, d, v)
