"""The value semantics of the library's records: every record is frozen, its
repr spells its fields, and equality reads the fields that make up its value
and nothing memoized on it.  `moment_map` memoizes mu on a point because a
point is frozen; these tests keep that true."""

import random

import pytest

from quiverlab import (
    QQ,
    BPathExpr,
    ChiData,
    ContingencyMatrix,
    CorootVec,
    DimData,
    FramedPoint,
    GroupElement,
    RootVec,
    ShapeMismatch,
    WeightVec,
    assemble_ab,
    cartan_data,
    check_coxeter,
    codim_report,
    count_points_Fq,
    dominance,
    dynkin_quiver,
    empty_path,
    enumerate_weyl,
    genericity,
    hom_space,
    moment_map,
    orbit_equivalent,
    parse_path,
    quiver,
    random_block_family,
    random_group,
    random_invertible,
    reduce_to_dominant,
    reflect_point,
    reflect_word,
    sample_fiber,
    verify_Z_conditions,
)
from util import a1_point


def records():
    """(instance, a field name) for every record type of the library."""
    q = dynkin_quiver("A2")
    d, v, lam = WeightVec((1, 1)), RootVec((1, 1)), WeightVec((1, 2))
    dims = DimData(d, v)
    s = sample_fiber(q, dims, lam, seed=3)
    res = reflect_point(s, 1, lam)
    hom = hom_space(s, s)
    coxeter = check_coxeter(q, d, v, lam, trials=1)
    trace = reduce_to_dominant(q, WeightVec((0, 0)), RootVec((1, 0)), lam)
    report = codim_report(q, d, v)
    return [
        (q.arrows[0], "id"),
        (q, "vertices"),
        (quiver._Coords((1,)), "coords"),
        (d, "coords"),
        (quiver._IntCoords((1,)), "coords"),
        (v, "coords"),
        (CorootVec((1, 0)), "coords"),
        (cartan_data(q), "cartan"),
        (dominance(q, d, v), "dominant"),
        (enumerate_weyl(q)[1], "word"),
        (genericity(q, d, lam, v), "ok"),
        (dims, "v"),
        (s, "field"),
        (assemble_ab(s, 1), "vertex"),
        (random_group(q, dims, QQ, random.Random(1)), "blocks"),
        (parse_path(q, "h1"), "arrow_ids"),
        (BPathExpr(q, (1,), (1,), ()), "vertices"),
        (hom.particular, "blocks"),
        (hom, "exists"),
        (orbit_equivalent(s, s), "kind"),
        (ChiData((1, 0), (1, 0), (), (), {}), "entries"),
        (ContingencyMatrix(((1,),)), "entries"),
        (random_block_family((1,), (1,), random.Random(1)), "mats"),
        (res, "point"),
        (verify_Z_conditions(s, res, 1, lam), "moments"),
        (reflect_word(s, [1], lam), "steps"),
        (coxeter.checks[0], "passes"),
        (coxeter, "generic"),
        (trace.steps[0], "kind"),
        (trace, "word"),
        (report.strata[0], "dimension"),
        (report, "strata"),
        (count_points_Fq(q, DimData(WeightVec((1, 0)), RootVec((1, 0))), WeightVec((1, 0)), 3),
         "total"),
    ]


RECORDS = records()


def test_every_record_type_is_listed():
    assert len({type(obj) for obj, _ in RECORDS}) == 33


@pytest.mark.parametrize("obj, name", RECORDS, ids=[type(obj).__name__ for obj, _ in RECORDS])
def test_fields_cannot_be_assigned(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    assert getattr(obj, name) is before


def test_reprs():
    q = dynkin_quiver("A2")
    assert repr(q) == ("Quiver(vertices=(1, 2), arrows=("
                       "Arrow(id='h1', h0=1, h1=2, eps=1, bar='h1b'), "
                       "Arrow(id='h1b', h0=2, h1=1, eps=-1, bar='h1')))")
    assert repr(WeightVec((1, -2))) == "WeightVec(coords=(1, -2))"
    assert (repr(DimData(WeightVec((1, 2)), RootVec((1, 0))))
            == "DimData(d=WeightVec(coords=(1, 2)), v=RootVec(coords=(1, 0)))")
    assert repr(a1_point()) == (
        "FramedPoint(quiver=Quiver(vertices=(1,), arrows=()), "
        "dims=DimData(d=WeightVec(coords=(2,)), v=RootVec(coords=(1,))), field=QQ, B={}, "
        "gamma={1: Mat(Q, 1x2, [[Fraction(1, 1), Fraction(0, 1)]])}, "
        "delta={1: Mat(Q, 2x1, [[Fraction(1, 1)], [Fraction(0, 1)]])})")
    s, t = a1_point(), a1_point(gamma=(0, 1))
    assert (repr(orbit_equivalent(s, t))
            == "OrbitDecision(kind='no', witness=None, "
               "reason=\"invariant mismatch at ('fr', 'e1', 0, 0)\")")


def test_coordinate_systems_differ():
    assert WeightVec((1, 2)) != RootVec((1, 2))
    assert RootVec((1, 2)) != CorootVec((1, 2))
    assert WeightVec((1, 2)) == WeightVec([1, 2])
    assert hash(RootVec((1, 2))) == hash(RootVec([1, 2]))
    assert empty_path(dynkin_quiver("A1"), 1) == empty_path(dynkin_quiver("A1"), 1)


def test_point_value_ignores_its_moment_memo():
    s, t = a1_point(), a1_point()
    before = repr(s)
    moment_map(s)
    assert s._mu and not t._mu
    assert s == t
    assert repr(s) == before
    assert s != a1_point(delta=(0, 1))


def test_group_element_equality_ignores_inverses():
    rng = random.Random(4)
    blocks = {1: random_invertible(QQ, 2, rng), 2: random_invertible(QQ, 1, rng)}
    given = GroupElement(blocks, _inverses={1: GroupElement(blocks)._act["V", 1][1]})
    assert given == GroupElement(blocks)
    assert repr(given) == repr(GroupElement(blocks))
    assert given != GroupElement(blocks, {1: random_invertible(QQ, 1, rng)})


def test_framed_point_rejects_a_mismatched_block():
    s = a1_point()
    with pytest.raises(ShapeMismatch, match=r"gamma\[1\] must be \(1, 2\)"):
        FramedPoint(s.quiver, s.dims, s.field, {}, {1: s.delta[1]}, s.delta)
