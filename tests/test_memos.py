"""What a frozen object memoizes is a value it already fixes.

A point may keep the results of reflecting it, and a matrix its reduced
echelon form.  Neither memo enters equality, repr or JSON; a memoized result
equals the one recomputed on a memo-free copy; no key gets another key's
result; and no caller mutates a shared elimination.  The orbit witness check
refuses a candidate that does not move s to t, whatever the solver said.
"""

import random

import pytest

from quiverlab import (
    QQ,
    QQI,
    DimData,
    FramedPoint,
    Mat,
    PrimeField,
    RootVec,
    WeightVec,
    dynkin_quiver,
    group_act,
    hom_space,
    inverse,
    kernel_basis,
    linalg,
    orbit_equivalent,
    paths,
    random_group,
    random_matrix,
    rank,
    reflect_point,
    reflect_word,
    rref,
    sample_fiber,
    solve_right,
    verify_Z_conditions,
)
from quiverlab.paths import HomSolution, Intertwiner
from util import a1_point

FIELDS = [QQ, PrimeField(7), QQI]
FIELD_IDS = ["Q", "F7", "Qi"]


def fresh_mat(m):
    """An equal Mat built from m's entries, with nothing memoized on it."""
    return Mat(m.field, m.rows, m.cols, [x for row in m.to_lists() for x in row])


def fresh_point(s):
    """An equal point whose blocks are equal fresh Mats: nothing memoized on
    it or on any of its blocks."""
    return FramedPoint.build(s.quiver, s.dims, s.field, lambda blk, r, c: fresh_mat(s.block(blk)))


def a2_point(field, lam=(1, 2), seed=3):
    q = dynkin_quiver("A2")
    dims = DimData(WeightVec((1, 1)), RootVec((1, 1)))
    return sample_fiber(q, dims, WeightVec(lam), seed=seed, field=field)


def test_memos_stay_outside_the_value():
    s, t = a2_point(QQ), a2_point(QQ)
    lam = WeightVec((1, 2))
    before = (repr(s), s.to_json())
    reflect_point(s, 1, lam)
    reflect_point(s, 2, lam, WeightVec((1, 1)), "cokernel")
    reflect_word(s, [1, 2, 1], lam)
    assert s == t
    assert (repr(s), s.to_json()) == before == (repr(t), t.to_json())
    a = random_matrix(QQ, 3, 4, random.Random(1))
    b = fresh_mat(a)
    before = repr(a)
    rref(a)
    rank(a)
    kernel_basis(a)
    assert a == b and b == a and repr(a) == before == repr(b)
    assert not (a != b)
    with pytest.raises(AttributeError):
        s.gamma = t.gamma


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("side", ["kernel", "cokernel", "auto"])
@pytest.mark.parametrize("m", [None, WeightVec((1, 1))], ids=["no-m", "m"])
def test_memoized_reflection_equals_recomputed(field, side, m):
    lam = WeightVec((1, 2))
    s = a2_point(field)
    for vertex in (1, 2):
        first = reflect_point(s, vertex, lam, m, side)
        again = reflect_point(s, vertex, lam, m, side)
        recomputed = reflect_point(fresh_point(s), vertex, lam, m, side)
        assert first == again == recomputed
        assert verify_Z_conditions(s, again, vertex, lam).all_pass
        word = reflect_word(s, [vertex, 3 - vertex], lam, m)
        assert word == reflect_word(fresh_point(s), [vertex, 3 - vertex], lam, m)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_memoized_auto_cokernel_equals_recomputed(field):
    # lambda = 0 and b = gamma = 0 is not onto, while a = delta is injective:
    # "auto" takes the cokernel side
    s, lam = a1_point(gamma=(0, 0), delta=(1, 0), field=field), WeightVec((0,))
    first = reflect_point(s, 1, lam, WeightVec((1,)))
    assert first.side == "cokernel"
    assert reflect_point(s, 1, lam, WeightVec((1,))) == first
    assert reflect_point(fresh_point(s), 1, lam, WeightVec((1,))) == first


def test_no_key_gets_another_keys_result():
    # v = (1, 0): mu_2 is 0 x 0, so the point lies on every fiber lambda_2
    q = dynkin_quiver("A2")
    dims = DimData(WeightVec((2, 0)), RootVec((1, 0)))
    s = sample_fiber(q, dims, WeightVec((1, 5)), seed=2)
    got = {}
    for lam2 in (5, 7):
        for m in (None, WeightVec((1, 1)), WeightVec((2, 3))):
            for side in ("kernel", "cokernel", "auto"):
                lam = WeightVec((1, lam2))
                got[lam2, m, side] = reflect_point(s, 1, lam, m, side)
    for (lam2, m, side), res in got.items():
        want = reflect_point(fresh_point(s), 1, WeightVec((1, lam2)), m, side)
        assert res == want
        assert res.lam == WeightVec((-1, lam2 + 1))
        assert res.m == (None if m is None else WeightVec((-m[0], m[1] + m[0])))
        assert res.side == ("cokernel" if side == "cokernel" else "kernel")
    out = reflect_word(s, [1], WeightVec((1, 7)))
    assert out.m is None and out.lam == WeightVec((-1, 8))


def shapes(rng, field):
    """Matrices of every kind the eliminations meet: square invertible,
    square singular, tall, wide, with zero rows, and empty."""
    yield random_matrix(field, 4, 4, rng, 5)
    low = random_matrix(field, 4, 2, rng, 5) * random_matrix(field, 2, 4, rng, 5)
    yield low
    yield random_matrix(field, 5, 3, rng, 5)
    yield random_matrix(field, 2, 5, rng, 5)
    yield Mat.from_rows(field, [[0, 0, 0], [1, 2, 0], [0, 0, 0]])
    yield Mat.zeros(field, 0, 3)
    yield Mat.zeros(field, 3, 0)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_shared_elimination_is_never_mutated(field):
    rng = random.Random(17)
    for a in shapes(rng, field):
        first = rref(a)
        c = a * random_matrix(field, a.cols, 2, rng, 5)
        assert rank(a) == rank(fresh_mat(a))
        assert kernel_basis(a) == kernel_basis(fresh_mat(a))
        assert solve_right(a, c) == solve_right(fresh_mat(a), c)
        assert linalg._span_completion(a) == linalg._span_completion(fresh_mat(a))
        if a.rows == a.cols and rank(a) == a.rows:
            assert inverse(a) == inverse(fresh_mat(a))
        R, pivots = rref(a)
        assert (R, pivots) == first == rref(fresh_mat(a))
        assert R._d == rref(fresh_mat(a))[0]._d


def d4_pair(seed=7):
    q = dynkin_quiver("D4")
    lam = WeightVec((1, 1, 1, 1))
    s = sample_fiber(q, DimData(lam, RootVec((1, 1, 1, 1))), lam, seed=seed)
    t = group_act(random_group(q, s.dims, QQ, random.Random(seed)), s)
    return s, t


@pytest.mark.parametrize("vertex", [1, 2, 3, 4])
def test_witness_check_refuses_a_wrong_particular(monkeypatch, vertex):
    # the solver returns the true intertwiner with the block at one vertex
    # doubled: invertible, but it moves s off t at the blocks that touch it
    s, t = d4_pair()
    true = hom_space(s, t)
    assert true.exists and true.dimension == 0
    blocks = dict(true.particular.blocks)
    blocks[vertex] = blocks[vertex].scale(2)
    wrong = HomSolution(True, Intertwiner(blocks), ())
    monkeypatch.setattr(paths, "hom_space", lambda a, b: wrong)
    dec = orbit_equivalent(s, t)
    assert dec.kind != "yes"
    monkeypatch.undo()
    dec = orbit_equivalent(s, t)
    assert dec.kind == "yes" and group_act(dec.witness, s) == t
