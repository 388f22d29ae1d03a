"""Framed points: vertex (a, b) packaging, moment maps, group action, sampling."""

import json
import random
from fractions import Fraction

import pytest

from quiverlab import (
    QQ,
    QQI,
    BlockSystem,
    ChiData,
    DimData,
    FiberSampleFailed,
    FramedPoint,
    GroupElement,
    InvalidQuiver,
    Mat,
    PrimeField,
    Quiver,
    QuiverLabError,
    RangeViolation,
    RootVec,
    ShapeMismatch,
    SingularBlock,
    VertexAB,
    WeightVec,
    WrongField,
    assemble_ab,
    dynkin_quiver,
    group_act,
    identity_group,
    inverse,
    limit_project,
    moment_map,
    moment_map_real,
    moment_matches,
    random_group,
    random_invertible,
    rank,
    reflect_point,
    reflect_word,
    reflection,
    repspace,
    sample_fiber,
    split_ab,
    stratum_dimension,
)
from util import MOMENT_POINTS, a1_point, a1_setup, a2_setup, entries, mat, moment_points

QUIVERS = ["A1", "A2", "A3", "D4"]


def random_point(name, rng, maxdim=3, field=QQ):
    q = dynkin_quiver(name)
    dims = DimData(
        WeightVec(tuple(rng.randint(0, maxdim) for _ in q.vertices)),
        RootVec(tuple(rng.randint(0, maxdim) for _ in q.vertices)),
    )
    return q, dims, FramedPoint.random(q, dims, field, rng)


@pytest.mark.parametrize("d, message", [
    ((1.5, 1), "d[0] is 1.5; dimensions must be integers"),
    ((1, Fraction(2)), "d[1] is Fraction(2, 1); dimensions must be integers"),
], ids=["float", "fraction"])
def test_non_integer_framing_dimension_rejected(d, message):
    q, dims = a2_setup(d=d)
    with pytest.raises(RangeViolation) as err:
        dims.space_dimension(q)
    assert str(err.value) == message
    with pytest.raises(RangeViolation, match=r"d\[\d\] is"):
        sample_fiber(q, dims, WeightVec((0, 0)), seed=0)


class TestAssembly:
    def test_a2_vertex_layouts(self):
        q, dims = a2_setup(d=(1, 2), v=(2, 1))
        rng = random.Random(0)
        s = FramedPoint.random(q, dims, QQ, rng)
        h = q.omega()[0]  # the 1 -> 2 arrow

        ab2 = assemble_ab(s, 2)
        assert ab2.layout == (("D", 2), ("V", h.id, 1))
        # a_2 stacks delta_2 over B_{bar h); b_2 is [gamma_2 | +B_h]
        assert ab2.a.to_lists() == s.delta[2].to_lists() + s.B[h.bar].to_lists()
        assert ab2.b.to_lists() == [
            rg + rb for rg, rb in zip(s.gamma[2].to_lists(), s.B[h.id].to_lists())
        ]

        ab1 = assemble_ab(s, 1)
        assert ab1.layout == (("D", 1), ("V", h.bar, 2))
        assert ab1.a.to_lists() == s.delta[1].to_lists() + s.B[h.id].to_lists()
        # incoming arrow at vertex 1 is bar h with eps = -1
        assert ab1.b.to_lists() == [
            rg + [-x for x in rb]
            for rg, rb in zip(s.gamma[1].to_lists(), s.B[h.bar].to_lists())
        ]

    def test_t_dimension(self):
        q = dynkin_quiver("D4")
        rng = random.Random(1)
        dims = DimData(WeightVec((1, 2, 1, 2)), RootVec((2, 1, 2, 1)))
        s = FramedPoint.random(q, dims, QQ, rng)
        for vert in q.vertices:
            ab = assemble_ab(s, vert)
            t = dims.d_of(q, vert) + sum(
                dims.v_of(q, a.h0) for a in q.arrows_into(vert)
            )
            assert ab.a.shape() == (t, dims.v_of(q, vert))
            assert ab.b.shape() == (dims.v_of(q, vert), t)

    def test_assemble_names_unknown_vertex(self):
        q, dims = a2_setup(d=(1, 2), v=(2, 1))
        s = FramedPoint.random(q, dims, QQ, random.Random(2))
        with pytest.raises(InvalidQuiver, match="unknown vertex 9"):
            assemble_ab(s, 9)

    def test_split_names_unknown_vertex(self):
        q, dims = a2_setup(d=(1, 2), v=(2, 1))
        s = FramedPoint.random(q, dims, QQ, random.Random(3))
        ab = assemble_ab(s, 1)
        ab = VertexAB(9, ab.layout, ab.a, ab.b)
        with pytest.raises(InvalidQuiver, match="unknown vertex 9"):
            split_ab(s, ab, ab.a, ab.b)


class TestMomentMap:
    def test_single_vertex_value(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        assert moment_map(s) == {1: mat(QQ, [[1]])}
        assert moment_matches(s, WeightVec((1,)))
        assert not moment_matches(s, WeightVec((0,)))

    def test_lambda_length_checked(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        s = sample_fiber(q, dims, WeightVec((1, 2)), seed=0)
        assert moment_matches(s, WeightVec((1, 2)))
        with pytest.raises(ShapeMismatch, match="lambda has length 3"):
            moment_matches(s, WeightVec((1, 2, 5)))

    def test_reflect_point_checks_lambda_length(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        s = sample_fiber(q, dims, WeightVec((1, 2)), seed=0)
        with pytest.raises(ShapeMismatch, match="lambda has length 1"):
            reflect_point(s, 1, WeightVec((1,)))

    def test_zero_point(self):
        q, dims = a2_setup(d=(2, 2), v=(1, 2))
        s = FramedPoint.zero(q, dims)
        mu = moment_map(s)
        assert all(m.is_zero() for m in mu.values())
        assert moment_matches(s, WeightVec((0, 0)))

    def test_opposite_signs_cancel(self):
        # B_h B_{bar h} enters with +1 at the head of h, -1 at the head of bar h
        q, dims = a2_setup(d=(0, 0), v=(1, 1))
        h = q.omega()[0]
        one = mat(QQ, [[1]])
        s = FramedPoint(
            q, dims, QQ,
            {h.id: one, h.bar: one},
            {1: Mat.zeros(QQ, 1, 0), 2: Mat.zeros(QQ, 1, 0)},
            {1: Mat.zeros(QQ, 0, 1), 2: Mat.zeros(QQ, 0, 1)},
        )
        mu = moment_map(s)
        assert mu[1] == mat(QQ, [[-1]])
        assert mu[2] == mat(QQ, [[1]])

    @pytest.mark.parametrize("case", sorted(MOMENT_POINTS))
    def test_textbook_sum(self, case):
        # mu_i = sum over arrows h with h1 = i of eps(h) B_h B_{bar h}
        #        + gamma_i delta_i, written out from q.arrows
        for s in moment_points(case):
            q = s.quiver
            want = {}
            for vert in q.vertices:
                want[vert] = s.gamma[vert] * s.delta[vert]
                for h in q.arrows:
                    if h.h1 == vert:
                        want[vert] = want[vert] + (s.B[h.id] * s.B[h.bar]).scale(h.eps)
            assert moment_map(s) == want

    def test_equivariance(self):
        rng = random.Random(7)
        done = 0
        for name in QUIVERS:
            for _ in range(8):
                q, dims, s = random_point(name, rng)
                g = random_group(q, dims, QQ, rng)
                mu_s = moment_map(s)
                mu_gs = moment_map(group_act(g, s))
                from quiverlab import inverse

                for vert in q.vertices:
                    if dims.v_of(q, vert) == 0:
                        continue
                    gi = g.blocks[vert]
                    assert mu_gs[vert] == gi * mu_s[vert] * inverse(gi)
                done += 1
        assert done == 32


class TestRealMomentMap:
    def test_needs_gaussian_field(self):
        with pytest.raises(WrongField):
            moment_map_real(a1_point())

    def test_balanced_point_vanishes(self):
        s = a1_point(gamma=(1, 0), delta=(1, 0), field=QQI)
        assert all(m.is_zero() for m in moment_map_real(s).values())

    def test_scaled_gamma_value(self):
        s = a1_point(gamma=(2, 0), delta=(1, 0), field=QQI)
        m = moment_map_real(s)[1]
        assert m == Mat(QQI, 1, 1, [QQI.i() * Fraction(3, 2)])

    def test_skew_hermitian(self):
        rng = random.Random(15)
        for _ in range(10):
            q, dims, s = random_point("A2", rng, field=QQI)
            for m in moment_map_real(s).values():
                assert m.conj_transpose() == m.scale(QQI.from_int(-1))


class TestGroupAction:
    def test_identity(self):
        rng = random.Random(2)
        q, dims, s = random_point("A3", rng)
        assert group_act(identity_group(q, dims), s) == s

    def test_composition(self):
        rng = random.Random(3)
        q, dims, s = random_point("A2", rng)
        g = random_group(q, dims, QQ, rng)
        h = random_group(q, dims, QQ, rng)
        gh = GroupElement({v: g.blocks[v] * h.blocks[v] for v in q.vertices})
        assert group_act(gh, s) == group_act(g, group_act(h, s))

    def test_framing_side_preserves_moment(self):
        rng = random.Random(4)
        q, dims, s = random_point("A2", rng)
        fr = {
            vert: random_invertible(QQ, dims.d_of(q, vert), rng, 5)
            for vert in q.vertices
        }
        g = GroupElement(
            {vert: Mat.identity(QQ, dims.v_of(q, vert)) for vert in q.vertices},
            framing_blocks=fr,
        )
        t = group_act(g, s)
        assert t.B == s.B
        assert moment_map(t) == moment_map(s)

    def test_singular_block_rejected(self):
        with pytest.raises(SingularBlock):
            GroupElement({1: Mat.zeros(QQ, 1, 1)})
        with pytest.raises(SingularBlock):
            GroupElement({1: Mat.zeros(QQ, 1, 2)})


class TestSampler:
    def test_points_land_on_fiber(self):
        # every returned point is exactly on its fiber; empty fibers may
        # legitimately raise, so those draws are skipped
        rng = random.Random(11)
        landed = 0
        for name in QUIVERS:
            q = dynkin_quiver(name)
            for _ in range(5):
                dims = DimData(
                    WeightVec(tuple(rng.randint(1, 2) for _ in q.vertices)),
                    RootVec(tuple(rng.randint(0, 2) for _ in q.vertices)),
                )
                lam = WeightVec(tuple(rng.randint(-1, 1) for _ in q.vertices))
                try:
                    s = sample_fiber(q, dims, lam, rng=rng, retries=5)
                except FiberSampleFailed:
                    continue
                assert moment_matches(s, lam)
                landed += 1
        assert landed >= 12

    def test_zero_level_always_succeeds(self):
        rng = random.Random(12)
        for name in QUIVERS:
            q = dynkin_quiver(name)
            dims = DimData(
                WeightVec(tuple(rng.randint(0, 2) for _ in q.vertices)),
                RootVec(tuple(rng.randint(0, 2) for _ in q.vertices)),
            )
            lam = WeightVec(tuple(0 for _ in q.vertices))
            s = sample_fiber(q, dims, lam, rng=rng)
            assert moment_matches(s, lam)

    def test_seed_reproducible(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 2))
        lam = WeightVec((0, 0))
        s1 = sample_fiber(q, dims, lam, seed=5)
        s2 = sample_fiber(q, dims, lam, seed=5)
        assert s1 == s2
        assert s1.to_json() == s2.to_json()

    def test_empty_fiber_reported(self):
        q, dims = a1_setup(d=0, v=1)
        with pytest.raises(FiberSampleFailed):
            sample_fiber(q, dims, WeightVec((1,)), seed=0)

    def test_gaussian_and_prime_fields(self):
        q, dims = a1_setup(d=2, v=1)
        lam = WeightVec((1,))
        s = sample_fiber(q, dims, lam, seed=1, field=QQI)
        assert moment_matches(s, lam)
        f = PrimeField(101)
        s = sample_fiber(q, dims, lam, seed=1, field=f)
        assert moment_matches(s, lam)

    def test_wrong_vector_lengths_rejected(self):
        q = dynkin_quiver("A2")
        for d, v, lam, msg in [
            ((2, 1), (1,), (1, 1), "v has length 1, quiver has 2 vertices"),
            ((2,), (1, 1), (1, 1), "d has length 1, quiver has 2 vertices"),
            ((2, 1), (1, 1, 1), (1, 1), "v has length 3"),
            ((2, 1), (1, 1), (1,), "lambda has length 1"),
        ]:
            dims = DimData(WeightVec(d), RootVec(v))
            with pytest.raises(ShapeMismatch, match=msg):
                sample_fiber(q, dims, WeightVec(lam), seed=0)

    @pytest.mark.parametrize("field", [QQ, QQI], ids=["Q", "Qi"])
    @pytest.mark.parametrize("kwargs, message", [
        ({"retries": 0}, "retries is 0; it must be >= 1"),
        ({"retries": -2}, "retries is -2; it must be >= 1"),
        ({"height": 0}, "height is 0; it must be >= 1"),
        ({"height": -1}, "height is -1; it must be >= 1"),
    ], ids=["retries-0", "retries-neg", "height-0", "height-neg"])
    def test_out_of_range_counts_rejected(self, field, kwargs, message):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        with pytest.raises(RangeViolation, match=message):
            sample_fiber(q, dims, WeightVec((1, 1)), seed=0, field=field, **kwargs)

    def test_prime_field_ignores_height(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        lam = WeightVec((1, 1))
        f = PrimeField(3)
        s = sample_fiber(q, dims, lam, seed=0, field=f, height=0)
        assert s == sample_fiber(q, dims, lam, seed=0, field=f)
        with pytest.raises(RangeViolation, match="retries is 0"):
            sample_fiber(q, dims, lam, seed=0, field=f, retries=0)


def moment_differential(s):
    """d mu at s as one matrix: unknowns dB (by arrow), d gamma, d delta; one
    equation per vertex, d mu_i = sum eps (dB_h B_bar h + B_h dB_bar h)
    + d gamma_i delta_i + gamma_i d delta_i over the arrows h into i."""
    q, dims = s.quiver, s.dims
    system = BlockSystem(s.field)
    for a in q.arrows:
        system.unknown(("B", a.id), dims.v_of(q, a.h1), dims.v_of(q, a.h0))
    for vert in q.vertices:
        system.unknown(("gamma", vert), dims.v_of(q, vert), dims.d_of(q, vert))
        system.unknown(("delta", vert), dims.d_of(q, vert), dims.v_of(q, vert))
    for vert in q.vertices:
        terms = []
        for arr in q.arrows_into(vert):
            terms.append((None, ("B", arr.id), s.B[arr.bar].scale(arr.eps)))
            terms.append((s.B[arr.id].scale(arr.eps), ("B", arr.bar), None))
        terms.append((None, ("gamma", vert), s.delta[vert]))
        terms.append((s.gamma[vert], ("delta", vert), None))
        vi = dims.v_of(q, vert)
        system.equation(terms, Mat.zeros(s.field, vi, vi))
    return system.matrix()[0]


class TestMomentDifferential:
    """At generic lambda the fiber group acts freely, so d mu is onto and the
    fiber has dimension dim S - sum v_i^2, the v' = v case of the stratum
    dimension formula."""

    @pytest.mark.parametrize("name, d, v, lam, seeds", [
        ("A1", (3,), (2,), (2,), 3),
        ("A2", (2, 1), (2, 1), (1, 3), 5),
        ("A3", (1, 1, 1), (1, 2, 1), (2, 1, 1), 5),
        ("D4", (0, 1, 0, 0), (1, 2, 1, 1), (1, 1, 1, 1), 5),
    ])
    def test_rank_is_group_dimension(self, name, d, v, lam, seeds):
        q = dynkin_quiver(name)
        dims = DimData(WeightVec(d), RootVec(v))
        group_dim = sum(x * x for x in v)
        for seed in range(seeds):
            s = sample_fiber(q, dims, WeightVec(lam), seed=seed)
            dmu = moment_differential(s)
            assert dmu.shape() == (group_dim, dims.space_dimension(q))
            r = rank(dmu)
            assert r == group_dim
            assert dmu.cols - r == stratum_dimension(
                q, WeightVec(d), RootVec(v), RootVec(v)
            )

    def test_linear_in_the_tangent(self):
        # mu is quadratic, so mu(s + X) - mu(s) - mu(X) is d mu at s applied
        # to X; the column lists X in the unknown order of the system
        rng = random.Random(3)
        q, dims = a2_setup(d=(2, 1), v=(2, 1))
        s = sample_fiber(q, dims, WeightVec((1, 3)), seed=4)
        x = FramedPoint.random(q, dims, QQ, rng, 4)
        col = Mat(QQ, dims.space_dimension(q), 1, [
            e for a in q.arrows for e in entries(x.B[a.id])
        ] + [
            e for vert in q.vertices for e in entries(x.gamma[vert]) + entries(x.delta[vert])
        ])
        got = moment_differential(s) * col
        mu_s, mu_x = moment_map(s), moment_map(x)
        both = FramedPoint(q, dims, QQ,
                           {a: s.B[a] + x.B[a] for a in s.B},
                           {v: s.gamma[v] + x.gamma[v] for v in s.gamma},
                           {v: s.delta[v] + x.delta[v] for v in s.delta})
        mu_sum = moment_map(both)
        want = [e for vert in q.vertices
                for e in entries(mu_sum[vert] - mu_s[vert] - mu_x[vert])]
        assert entries(got) == want


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(19)
        for name in ["A2", "D4"]:
            q, dims, s = random_point(name, rng)
            obj = s.to_json()
            t = FramedPoint.from_json(obj)
            assert t == s
            assert t.to_json() == obj

    def test_gaussian_round_trip(self):
        rng = random.Random(20)
        q, dims, s = random_point("A2", rng, field=QQI)
        assert FramedPoint.from_json(s.to_json()) == s

    def test_prime_field_round_trip(self):
        rng = random.Random(21)
        q, dims, s = random_point("A2", rng, field=PrimeField(13))
        obj = s.to_json()
        assert obj["field"] == "Fp:13"
        assert FramedPoint.from_json(obj) == s

    def test_extra_keys_tolerated(self):
        s = a1_point()
        obj = s.to_json()
        obj["lambda"] = ["1"]
        obj["comment"] = "anything"
        assert FramedPoint.from_json(obj) == s

    def test_shape_validation(self):
        q, dims = a1_setup(d=2, v=1)
        with pytest.raises(ShapeMismatch):
            FramedPoint(q, dims, QQ, {}, {1: Mat.zeros(QQ, 2, 2)}, {1: Mat.zeros(QQ, 2, 1)})

    def test_field_validation(self):
        q, dims = a1_setup(d=1, v=1)
        with pytest.raises(WrongField):
            FramedPoint(
                q, dims, QQ, {}, {1: Mat.zeros(QQI, 1, 1)}, {1: Mat.zeros(QQ, 1, 1)}
            )

    def test_space_dimension_counts_entries(self):
        rng = random.Random(23)
        for name in QUIVERS:
            q, dims, s = random_point(name, rng, maxdim=2)
            n_entries = sum(m.rows * m.cols for m in s.B.values())
            n_entries += sum(m.rows * m.cols for m in s.gamma.values())
            n_entries += sum(m.rows * m.cols for m in s.delta.values())
            assert dims.space_dimension(q) == n_entries


# each JSON reader: a valid object to break, and the call that reads it
A1_CHI = {"target_copies": [1], "source_copies": [0], "vectors": [[1, 0]], "covectors": [],
          "entries": [{"key": ["av", 1, 1, 1], "expr": "e1"}]}
JSON_READERS = {
    "quiver": (lambda: dynkin_quiver("A2").to_json(), Quiver.from_json),
    "point": (lambda: a1_point().to_json(), FramedPoint.from_json),
    "chi": (lambda: json.loads(json.dumps(A1_CHI)),
            lambda obj: ChiData.from_json(dynkin_quiver("A1"), obj)),
}
MISSING = object()  # in place of a value: the entry is deleted


@pytest.mark.parametrize("reader, keys, value, error", [
    ("quiver", ("vertices",), 5, InvalidQuiver),
    ("quiver", ("arrows", 0, "eps"), "1", InvalidQuiver),
    ("point", ("quiver", "arrows"), 5, InvalidQuiver),
    ("point", ("d",), "x", ShapeMismatch),
    ("point", ("v",), [1.5], ShapeMismatch),
    ("point", ("gamma", "1"), 5, ShapeMismatch),
    ("point", ("gamma", "1"), [["1", "0", "1"]], ShapeMismatch),
    ("point", ("field",), "R", WrongField),
    ("point", ("gamma", "1"), [["x", "1"]], WrongField),
    ("chi", ("target_copies",), 1, QuiverLabError),
    ("chi", ("vectors",), 5, QuiverLabError),
    ("chi", ("entries",), 5, QuiverLabError),
    ("chi", ("entries", 0, "key"), "av", QuiverLabError),
    ("chi", ("entries", 0, "expr"), 5, QuiverLabError),
    ("chi", ("entries",), A1_CHI["entries"] * 2, QuiverLabError),  # a repeated key
    ("quiver", ("arrows",), MISSING, QuiverLabError),
    ("point", ("delta", "1"), MISSING, QuiverLabError),
    ("chi", ("entries", 0, "expr"), MISSING, QuiverLabError),
], ids=lambda x: ("missing" if x is MISSING else x.__name__ if isinstance(x, type)
                  else "".join(f"[{k!r}]" for k in x) if isinstance(x, tuple) else repr(x)))
def test_json_reader_error_class(reader, keys, value, error):
    """Each reader raises its own class for a malformed entry, and the base
    QuiverLabError for a missing one; the CLI tests read only the message."""
    make, read = JSON_READERS[reader]
    obj = parent = make()
    for key in keys[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    with pytest.raises(QuiverLabError) as info:
        read(obj)
    assert type(info.value) is error, info.value


class TestLayout:
    @pytest.mark.parametrize("name", QUIVERS)
    def test_space_dimension_closed_form(self, name):
        # sum over the arrows of the double of v_{h1} v_{h0}, plus 2 sum d_i v_i
        q = dynkin_quiver(name)
        n = q.n
        rng = random.Random(29)
        cases = [((0,) * n, (0,) * n), ((0,) * n, (1,) * n), ((2,) * n, (0,) * n)]
        cases += [(tuple(rng.randint(0, 3) for _ in range(n)),
                   tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(6)]
        cases.append(((0,) + (1,) * (n - 1), (2,) * (n - 1) + (0,)))
        for d, v in cases:
            at = {vert: k for k, vert in enumerate(q.vertices)}
            closed = sum(v[at[a.h1]] * v[at[a.h0]] for a in q.arrows)
            closed += 2 * sum(d[k] * v[k] for k in range(n))
            assert DimData(WeightVec(d), RootVec(v)).space_dimension(q) == closed

    def test_every_block_once(self):
        q = dynkin_quiver("D4")
        blocks = q.layout
        assert [b.key for b in blocks if b.part == "B"] == [a.id for a in q.arrows]
        for part in ("gamma", "delta"):
            assert [b.key for b in blocks if b.part == part] == list(q.vertices)
        for b in blocks:
            if b.part == "B":
                a = q.arrow(b.key)
                assert (b.row, b.col) == (("V", a.h1), ("V", a.h0))
            elif b.part == "gamma":
                assert (b.row, b.col) == (("V", b.key), ("D", b.key))
            else:
                assert (b.row, b.col) == (("D", b.key), ("V", b.key))

    def test_build_calls_make_in_layout_order(self):
        q = dynkin_quiver("A3")
        dims = DimData(WeightVec((1, 0, 2)), RootVec((2, 1, 0)))
        seen = []

        def make(blk, rows, cols):
            seen.append(blk)
            assert (rows, cols) == (dims.sizes(q)[blk.row], dims.sizes(q)[blk.col])
            return Mat.zeros(QQ, rows, cols)

        assert FramedPoint.build(q, dims, QQ, make) == FramedPoint.zero(q, dims)
        assert tuple(seen) == q.layout

    @pytest.mark.parametrize("name, d, v", [
        ("A3", (1, 0, 2), (1, 2, 0)),
        ("D4", (2, 1, 0, 1), (1, 1, 2, 2)),
    ])
    def test_group_act_block_by_block(self, name, d, v):
        # B -> g_{h1} B g_{h0}^{-1}, gamma -> g gamma f^{-1}, delta -> f delta g^{-1}
        rng = random.Random(31)
        q = dynkin_quiver(name)
        dims = DimData(WeightVec(d), RootVec(v))
        s = FramedPoint.random(q, dims, QQ, rng)
        g = {vert: random_invertible(QQ, dims.v_of(q, vert), rng, 5) for vert in q.vertices}
        f = {vert: random_invertible(QQ, dims.d_of(q, vert), rng, 5) for vert in q.vertices}
        t = group_act(GroupElement(g, framing_blocks=f), s)
        for a in q.arrows:
            assert t.B[a.id] == g[a.h1] * s.B[a.id] * inverse(g[a.h0])
        for vert in q.vertices:
            assert t.gamma[vert] == g[vert] * s.gamma[vert] * inverse(f[vert])
            assert t.delta[vert] == f[vert] * s.delta[vert] * inverse(g[vert])

    def test_missing_blocks_act_as_identity(self):
        rng = random.Random(37)
        q, dims, s = random_point("A2", rng)
        assert group_act(GroupElement({}), s) == s

    @pytest.mark.parametrize("name", QUIVERS)
    def test_split_ab_inverts_assemble_ab(self, name):
        rng = random.Random(41)
        q, dims, s = random_point(name, rng)
        for vert in q.vertices:
            ab = assemble_ab(s, vert)
            assert split_ab(s, ab, ab.a, ab.b) == s

    def test_split_ab_rebuilds_the_reflection(self):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        lam = WeightVec((1, 2))
        s = sample_fiber(q, dims, lam, seed=3)
        res = reflect_point(s, 1, lam)
        back = split_ab(s, assemble_ab(s, 1), res.a_prime, res.b_prime)
        assert back == res.point
        assert back.dims.v.coords == (res.a_prime.cols, 1)


def rebuilt(s):
    """A copy of s made block by block from fresh Mats, with nothing memoized."""
    return FramedPoint.build(s.quiver, s.dims, s.field,
                             lambda blk, r, c: Mat(s.field, r, c, entries(s.block(blk))))


def neighbours(q, vertex):
    return {a.h0 for a in q.arrows_into(vertex)} - {vertex}


class TestMomentMemo:
    """`moment_map` memoizes mu_i on the point; `split_ab` carries mu_j over
    only where every block of q.star[j] is the same object."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    @pytest.mark.parametrize("name, d, v, lam, word", [
        ("A1", (3,), (1,), (1,), (1, 1)),
        ("A2", (2, 1), (1, 1), (1, 2), (1, 2, 2, 1)),
        ("A3", (1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 3, 3, 2, 1)),
        ("D4", (1, 1, 1, 2), (1, 2, 1, 2), (1, 2, 1, 1), (1, 2, 3, 4, 2, 1)),
    ])
    def test_memo_matches_a_fresh_copy_along_a_word(self, monkeypatch, field, name, d, v, lam, word):
        q = dynkin_quiver(name)
        seen = []  # (vertex, point, vertices carried over) per split
        real = reflection.split_ab

        def recording(s, ab, a2, b2):
            t = real(s, ab, a2, b2)
            seen.append((ab.vertex, t, set(t._mu)))
            return t

        monkeypatch.setattr(reflection, "split_ab", recording)
        for seed in range(3):
            seen.clear()
            s = sample_fiber(q, DimData(WeightVec(d), RootVec(v)), WeightVec(lam),
                             seed=seed, field=field)
            reflect_word(s, word, WeightVec(lam))
            assert len(seen) == len(word)
            for vertex, t, carried in seen:
                # every reflected point enters split_ab fully memoized
                assert carried == set(q.vertices) - {vertex} - neighbours(q, vertex)
                assert moment_map(t) == moment_map(rebuilt(t))

    def test_stale_memo_cannot_hide_a_moved_block(self, monkeypatch):
        # a split_ab that also swaps gamma at a vertex two steps away from
        # the reflected one: that block is a new object, so mu there is
        # recomputed and the post-check sees the point leave the fiber
        q = dynkin_quiver("A3")
        lam = WeightVec((2, 1, 1))
        s = sample_fiber(q, DimData(WeightVec((1, 1, 1)), RootVec((1, 2, 1))), lam, seed=0)
        assert not (s.gamma[3] * s.delta[3]).is_zero()
        real = reflection.split_ab

        def swapping(s, ab, a2, b2):
            t = real(s, ab, a2, b2)
            gamma = {**t.gamma, 3: t.gamma[3].scale(2)}
            u = FramedPoint(t.quiver, t.dims, t.field, t.B, gamma, t.delta)
            repspace._carry_memos(s, u)
            assert 3 not in u._mu and 3 not in u._ab
            return u

        monkeypatch.setattr(reflection, "split_ab", swapping)
        with pytest.raises(AssertionError, match="reflected point is off the reflected fiber"):
            reflect_point(s, 1, lam)

    def test_returned_dict_is_a_copy(self):
        s = moment_points("A2-Qi", 1)[0]
        want = moment_map(rebuilt(s))
        mu = moment_map(s)
        mu[1] = Mat.zeros(QQI, 0, 0)
        del mu[2]
        assert moment_map(s) == want

    def test_memo_is_not_part_of_the_point(self):
        s = sample_fiber(dynkin_quiver("A2"), DimData(WeightVec((2, 1)), RootVec((1, 1))),
                         WeightVec((1, 2)), seed=0)
        fresh = rebuilt(s)
        assert s._mu and not fresh._mu
        assert s == fresh and repr(s) == repr(fresh) and s.to_json() == fresh.to_json()


def moved_points(field):
    """(name, point) for every function that moves a point, each run on a
    point whose moment is already memoized: reflect_point on both sides,
    reflect_word, limit_project on its image and its kernel branch, and
    split_ab called directly."""
    q = dynkin_quiver("A2")
    lam = WeightVec((1, 2))
    s = sample_fiber(q, DimData(WeightVec((2, 1)), RootVec((1, 1))), lam, seed=3, field=field)
    # the zero fiber of A3 at v = (1, 2, 1): b_2 is not onto, b_3 is and a_3 is not one to one
    z = sample_fiber(dynkin_quiver("A3"), DimData(WeightVec((0, 0, 0)), RootVec((1, 2, 1))),
                     WeightVec((0, 0, 0)), seed=0, field=field)
    assert rank(assemble_ab(z, 2).b) < 2
    assert rank(assemble_ab(z, 3).b) == 1 and rank(assemble_ab(z, 3).a) == 0
    ab = assemble_ab(s, 2)
    g = random_invertible(field, 1, random.Random(5), 5)
    return [
        ("kernel", reflect_point(s, 1, lam, side="kernel").point),
        ("cokernel", reflect_point(s, 2, lam, side="cokernel").point),
        ("word", reflect_word(s, [1, 2, 1], lam).point),
        ("image-branch", limit_project(z, 2)),
        ("kernel-branch", limit_project(z, 3)),
        ("split", split_ab(s, ab, ab.a * g, inverse(g) * ab.b)),
    ]


class TestVertexABMemo:
    """What `assemble_ab` hands out for a moved point is what assembling the
    same blocks on a fresh point gives, at every vertex."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(7), QQI], ids=["Q", "F7", "Qi"])
    def test_moved_points_assemble_as_fresh_ones(self, field):
        for name, t in moved_points(field):
            fresh = rebuilt(t)
            for vert in t.quiver.vertices:
                assert assemble_ab(t, vert) == assemble_ab(fresh, vert), (name, vert)
            assert moment_map(t) == moment_map(fresh), name
