"""Determinant covariants, semistability, contingency shapes, rank probes."""

import itertools
import random
import re

import pytest

from quiverlab import (
    QQ,
    BalanceViolated,
    BlockFamily,
    ChiData,
    ContingencyMatrix,
    DimData,
    FpScalar,
    FramedPoint,
    Mat,
    PrimeField,
    QQI,
    QuiverLabError,
    RootVec,
    ShapeMismatch,
    WeightVec,
    basis_rank_check,
    block,
    certify_semistable,
    det,
    dynkin_quiver,
    empty_path,
    enumerate_S_XY,
    eval_covariant,
    eval_fS,
    eval_phi_ab,
    group_act,
    hstack,
    is_semistable_mplus,
    parse_bpath,
    random_block_family,
    random_group,
    random_matrix,
    reachable_dims,
    sample_fiber,
    validate_chi_data,
)
from util import a1_point, a1_setup, a2_setup, mat, phi_ab_oracle, random_chi_data


def a1_chi():
    """Weight (1,) certificate on the single vertex: the 1x1 block gamma e_0."""
    q = dynkin_quiver("A1")
    return q, ChiData(
        target_copies=(1,),
        source_copies=(0,),
        vectors=((1, 0),),
        covectors=(),
        entries={("av", 1, 1, 1): empty_path(q, 1)},
    )


class TestChiData:
    def test_weight(self):
        _, chi = a1_chi()
        assert chi.weight() == (1,)

    def test_validates_clean(self):
        q, chi = a1_chi()
        dims = DimData(WeightVec((2,)), RootVec((1,)))
        assert validate_chi_data(chi, WeightVec((1,)), dims, q) == []

    @pytest.mark.parametrize("m", [(), (1, 0)], ids=["short", "long"])
    def test_validate_names_m_of_wrong_length(self, m):
        # a short m indexed past its end, a long one was cut silently
        q, chi = a1_chi()
        dims = DimData(WeightVec((2,)), RootVec((1,)))
        with pytest.raises(ShapeMismatch, match=f"m has length {len(m)}, quiver has 1 vertices"):
            validate_chi_data(chi, WeightVec(m), dims, q)
        with pytest.raises(ShapeMismatch, match=f"m has length {len(m)}, quiver has 1 vertices"):
            certify_semistable(a1_point(), chi, WeightVec(m))

    def test_value_on_points(self):
        q, chi = a1_chi()
        s = a1_point(gamma=(1, 0), delta=(1, 0))
        assert eval_covariant(chi, s) == QQ.one()
        z = FramedPoint.zero(q, DimData(WeightVec((2,)), RootVec((1,))))
        assert eval_covariant(chi, z) == QQ.zero()
        assert certify_semistable(s, chi, WeightVec((1,)))
        assert not certify_semistable(z, chi, WeightVec((1,)))

    def test_value_of_empty_matrix_is_one(self):
        # one target copy of V_1 with v = 0 and nothing else: a 0x0 matrix
        q = dynkin_quiver("A1")
        s = FramedPoint.zero(q, DimData(WeightVec((2,)), RootVec((0,))))
        assert eval_covariant(ChiData((1,), (0,), (), (), {}), s) == QQ.one()

    def test_certify_checks_weight(self):
        _, chi = a1_chi()
        s = a1_point()
        with pytest.raises(BalanceViolated):
            certify_semistable(s, chi, WeightVec((2,)))

    def test_balance_enforced(self):
        # v = 2 makes the target side 2-dimensional against one source vector
        q, chi = a1_chi()
        dims = DimData(WeightVec((2,)), RootVec((2,)))
        s = FramedPoint.zero(q, dims)
        with pytest.raises(BalanceViolated):
            eval_covariant(chi, s)

    def test_weight_law(self):
        rng = random.Random(8)
        q, chi = a1_chi()
        dims = DimData(WeightVec((2,)), RootVec((1,)))
        for _ in range(20):
            s = FramedPoint.random(q, dims, QQ, rng)
            g = random_group(q, dims, QQ, rng)
            factor = det(g.blocks[1])  # weight (1,)
            assert eval_covariant(chi, group_act(g, s)) == factor * eval_covariant(chi, s)

    @pytest.mark.parametrize("name, d, v, field", [
        ("A2", (1, 2), (1, 1), QQ),
        ("A3", (1, 1, 1), (1, 2, 1), QQ),
        ("A2", (2, 1), (1, 2), PrimeField(101)),
    ], ids=["A2-Q", "A3-Q", "A2-F101"])
    def test_weight_law_every_entry_kind(self, name, d, v, field):
        """eval(chi, g.s) = prod det(g_i)^{w_i} eval(chi, s), on random
        chi-data whose entries use all four kinds."""
        q = dynkin_quiver(name)
        dims = DimData(WeightVec(d), RootVec(v))
        rng = random.Random(63)
        tested = nonzero = 0
        while tested < 12:
            chi = random_chi_data(q, dims, rng)
            if {key[0] for key in chi.entries} != {"vv", "vb", "av", "ab"}:
                continue
            s = FramedPoint.random(q, dims, field, rng)
            try:
                before = eval_covariant(chi, s)
            except ShapeMismatch:
                continue
            g = random_group(q, dims, field, rng)
            factor = field.one()
            for vert, w in zip(q.vertices, chi.weight()):
                for _ in range(abs(w)):
                    factor = factor * det(g.blocks[vert]) if w > 0 else factor / det(g.blocks[vert])
            assert eval_covariant(chi, group_act(g, s)) == factor * before
            tested += 1
            nonzero += before != field.zero()
        assert nonzero >= 3

    def test_json_round_trip(self):
        q, chi = a1_chi()
        obj = chi.to_json()
        back = ChiData.from_json(q, obj)
        assert back == chi

    def test_condition_violations(self):
        q = dynkin_quiver("A2")
        dims = DimData(WeightVec((1, 1)), RootVec((1, 1)))
        m = WeightVec((1, -1))
        # wrong copy split for m_2 = -1 (puts the copy on the target side)
        bad = ChiData((1, 1), (0, 0), ((1, 0), (2, 0)), (), {})
        msgs = validate_chi_data(bad, m, dims, q)
        assert any("condition1" in t or "weight" in t for t in msgs)

        # direct framing-to-framing block
        bad2 = ChiData(
            (1, 0), (0, 1), ((1, 0),), ((2, 0),),
            {("ab", 1, 1): empty_path(q, 1)},
        )
        msgs2 = validate_chi_data(bad2, m, dims, q)
        assert any("condition2" in t for t in msgs2)

        # framed loops are not path algebra elements
        bad3 = ChiData(
            (1, 0), (0, 1), ((1, 0),), ((2, 0),),
            {("vv", 2, 1, 1, 1): parse_bpath(q, "[1^1 h1b 2^0]")},
        )
        msgs3 = validate_chi_data(bad3, m, dims, q)
        assert any("condition3" in t for t in msgs3)

    @pytest.mark.parametrize("change, message", [
        ({"target_copies": 1}, "chi target_copies must be a tuple of integers, not 1"),
        ({"entries": {("zz", 1, 1, 1): None}}, "chi entry ('zz', 1, 1, 1) is not of kind"),
        ({"entries": {("av", 1, 1): None}}, "chi entry ('av', 1, 1) needs 3 indices"),
        ({"target_copies": (1, 0)}, "chi target_copies has length 2, quiver has 1 vertices"),
        ({"entries": {("av", 2, 1, 1): None}}, "chi entry ('av', 2, 1, 1) names the source summand ('A', 2)"),
        ({"entries": {("av", 1, 1, 2): None}}, "chi entry ('av', 1, 1, 2) names the target summand ('V', 1, 2)"),
        ({"vectors": ((2, 0),)}, "chi vectors[0] = (2, 0) is not a pair (vertex of the quiver, basis index)"),
        ({"vectors": ((1,),)}, "chi vectors[0] = (1,) is not a pair (vertex of the quiver, basis index)"),
        ({"vectors": ((1, -1),)}, "chi vectors[0] = (1, -1) needs a basis index 0 <= index < d_1 = 2"),
        ({"vectors": ((1, 2),)}, "chi vectors[0] = (1, 2) needs a basis index 0 <= index < d_1 = 2"),
        ({"vectors": ((1, 1.0),)}, "chi vectors[0] = (1, 1.0) needs a basis index"),
        ({"covectors": ((1, 0), (1, 3))}, "chi covectors[1] = (1, 3) needs a basis index"),
        ({"vectors": ((True, 0),)}, "chi vectors[0] = (True, 0) is not a pair (vertex of the quiver, basis index)"),
    ], ids=["copies-not-list", "unknown-kind", "arity", "copies-too-long", "no-source-summand",
            "no-target-summand", "vector-vertex", "vector-not-pair", "vector-index-negative", "vector-index-d",
            "vector-index-float", "covector-index", "vector-vertex-true"])
    def test_malformed_chi_data_rejected(self, change, message):
        q, chi = a1_chi()
        chi = ChiData(**{**chi.__dict__, **change})
        s = a1_point()
        with pytest.raises(QuiverLabError, match=re.escape(message)):
            eval_covariant(chi, s)
        with pytest.raises(QuiverLabError, match=re.escape(message)):
            validate_chi_data(chi, WeightVec((1,)), s.dims, q)

    def test_ends(self):
        assert ChiData.ends(("vv", 1, 2, 3, 4)) == (("V", 1, 2), ("V", 3, 4))
        assert ChiData.ends(("vb", 1, 2, 3)) == (("V", 1, 2), ("B", 3))
        assert ChiData.ends(("av", 1, 2, 3)) == (("A", 1), ("V", 2, 3))
        assert ChiData.ends(("ab", 1, 2)) == (("A", 1), ("B", 2))

    def test_too_many_links_flagged(self):
        q = dynkin_quiver("A1")
        dims = DimData(WeightVec((1,)), RootVec((1,)))
        chi = ChiData(
            (2,), (0,), ((1, 0), (1, 0)), (),
            {
                ("av", 1, 1, 1): empty_path(q, 1),
                ("av", 1, 1, 2): empty_path(q, 1),
            },
        )
        msgs = validate_chi_data(chi, WeightVec((2,)), dims, q)
        assert any("condition7" in t for t in msgs)


class TestSemistability:
    def test_reachable_dims(self):
        s = a1_point(gamma=(1, 0), delta=(0, 0))
        assert reachable_dims(s) == (1,)
        z = a1_point(gamma=(0, 0), delta=(0, 0))
        assert reachable_dims(z) == (0,)

    def test_arrows_propagate(self):
        # gamma_2 = 0 but B_h carries Im gamma_1 into V_2
        q, dims = a2_setup(d=(1, 0), v=(1, 1))
        h = q.omega()[0]
        s = FramedPoint(
            q, dims, QQ,
            {h.id: mat(QQ, [[1]]), h.bar: mat(QQ, [[0]])},
            {1: mat(QQ, [[1]]), 2: Mat.zeros(QQ, 1, 0)},
            {1: mat(QQ, [[0]]), 2: Mat.zeros(QQ, 0, 1)},
        )
        assert reachable_dims(s) == (1, 1)
        assert is_semistable_mplus(s)
        t = FramedPoint(
            q, dims, QQ,
            {h.id: mat(QQ, [[0]]), h.bar: mat(QQ, [[0]])},
            s.gamma, s.delta,
        )
        assert reachable_dims(t) == (1, 0)
        assert not is_semistable_mplus(t)

    def test_invariance_under_group(self):
        rng = random.Random(44)
        q, dims = a2_setup(d=(2, 1), v=(2, 2))
        for _ in range(10):
            s = FramedPoint.random(q, dims, QQ, rng)
            g = random_group(q, dims, QQ, rng)
            assert reachable_dims(s) == reachable_dims(group_act(g, s))

    def test_zero_fibers_vacuously_semistable(self):
        q, dims = a2_setup(d=(1, 1), v=(0, 0))
        assert is_semistable_mplus(FramedPoint.zero(q, dims))

    def test_certificate_implies_semistable(self):
        # weight (1, 1) certificate: gamma_1 and gamma_2 entries on the diagonal
        q, dims = a2_setup(d=(1, 1), v=(1, 1))
        chi = ChiData(
            (1, 1), (0, 0), ((1, 0), (2, 0)), (),
            {
                ("av", 1, 1, 1): empty_path(q, 1),
                ("av", 2, 2, 1): empty_path(q, 2),
            },
        )
        assert validate_chi_data(chi, WeightVec((1, 1)), dims, q) == []
        hits = 0
        for seed in range(12):
            s = sample_fiber(q, dims, WeightVec((0, 0)), seed=seed)
            if certify_semistable(s, chi, WeightVec((1, 1))):
                assert is_semistable_mplus(s)
                hits += 1
        assert hits >= 6


class TestContingency:
    def test_single_row(self):
        out = enumerate_S_XY((2,), (1, 1))
        assert out == [ContingencyMatrix(((1, 1),))]

    def test_permutation_case(self):
        out = enumerate_S_XY((1, 1), (1, 1))
        assert [m.entries for m in out] == [((0, 1), (1, 0)), ((1, 0), (0, 1))]

    def test_unequal_sums_empty(self):
        assert enumerate_S_XY((2,), (1,)) == []

    def test_margins(self):
        for m in enumerate_S_XY((2, 1), (1, 1, 1)):
            assert m.row_sums() == (2, 1)
            assert m.col_sums() == (1, 1, 1)

    def test_count_against_brute_force(self):
        y, x = (2, 1), (1, 1, 1)
        cap = max(max(y), max(x))
        brute = 0
        for flat in itertools.product(range(cap + 1), repeat=len(y) * len(x)):
            rows = [flat[i * len(x):(i + 1) * len(x)] for i in range(len(y))]
            cm = ContingencyMatrix(tuple(rows))
            if cm.row_sums() == y and cm.col_sums() == x:
                brute += 1
        assert len(enumerate_S_XY(y, x)) == brute == 3

    def test_lex_order(self):
        out = enumerate_S_XY((2, 2), (2, 2))
        flats = [tuple(v for r in m.entries for v in r) for m in out]
        assert flats == sorted(flats)
        assert len(out) == 3


class TestBlockDeterminants:
    def test_single_row_det(self):
        a11 = mat(QQ, [[1], [3]])
        a12 = mat(QQ, [[2], [4]])
        fam = BlockFamily((2,), (1, 1), {(1, 1, 1): a11, (1, 2, 1): a12})
        shape = ContingencyMatrix(((1, 1),))
        assert eval_fS(shape, fam) == det(hstack([a11, a12]))

    def test_diagonal_and_antidiagonal(self):
        a = mat(QQ, [[2]]); b = mat(QQ, [[3]])
        c = mat(QQ, [[5]]); d = mat(QQ, [[7]])
        fam = BlockFamily(
            (1, 1), (1, 1),
            {(1, 1, 1): a, (1, 2, 1): b, (2, 1, 1): c, (2, 2, 1): d},
        )
        assert eval_fS(ContingencyMatrix(((1, 0), (0, 1))), fam) == QQ.coerce(14)
        assert eval_fS(ContingencyMatrix(((0, 1), (1, 0))), fam) == QQ.coerce(-15)

    def test_margin_mismatch(self):
        fam = random_block_family((1, 1), (1, 1), random.Random(0))
        with pytest.raises(ShapeMismatch):
            eval_fS(ContingencyMatrix(((1, 1),)), fam)

    def test_zero_family(self):
        fam = BlockFamily((1,), (1,), {(1, 1, 1): Mat.zeros(QQ, 1, 1)})
        assert eval_fS(ContingencyMatrix(((1,),)), fam) == QQ.zero()

    def test_empty_case(self):
        fam = BlockFamily((), (), {})
        assert eval_fS(ContingencyMatrix(()), fam) == QQ.one()

    def test_phi_matches_fS_without_border(self):
        rng = random.Random(5)
        fam = random_block_family((2, 1), (1, 2), rng)
        shape = ContingencyMatrix(((1, 1), (0, 1)))
        phi = {(i, j): (QQ.coerce(shape.entries[i - 1][j - 1]),)
               for i in range(1, 3) for j in range(1, 3)}
        assert eval_phi_ab(fam, phi) == eval_fS(shape, fam)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7), QQI], ids=["Q", "F7", "Qi"])
    def test_fS_matches_phi_on_every_field(self, field):
        # every shape, at families with a missing slot and with a second
        # matrix in a slot, which f_S does not read
        rng = random.Random(5)
        for y, x in (((2, 1), (1, 2)), ((1, 1, 1), (2, 1)), ((3,), (1, 1, 1))):
            fam = random_block_family(y, x, rng, field)
            del fam.mats[len(y), 1, 1]
            fam.mats[1, 1, 2] = random_matrix(field, y[0], x[0], rng)
            for shape in enumerate_S_XY(y, x):
                phi = {(i, j): (field.coerce(shape.entries[i - 1][j - 1]),)
                       for i in range(1, len(y) + 1) for j in range(1, len(x) + 1)}
                assert eval_phi_ab(fam, phi) == eval_fS(shape, fam)

    def test_phi_bordered(self):
        # 1x1 interior plus one border row and column
        a = mat(QQ, [[2]])
        fam = BlockFamily(
            (1,), (1,), {(1, 1, 1): a},
            y0_dim=1, x0_dim=1,
            border_in={1: mat(QQ, [[3]])},
            border_out={1: mat(QQ, [[5]])},
        )
        alpha = mat(QQ, [[1]])
        beta = mat(QQ, [[1]])
        got = eval_phi_ab(fam, {(1, 1): (QQ.one(),)}, alpha, beta)
        assert got == det(mat(QQ, [[2, 3], [5, 0]]))

    @staticmethod
    def random_bordered(field, rng):
        """A family with 1-2 block rows and columns of sizes 0-2, multiplicity
        1 or 2, about a fifth of its slot matrices and border blocks missing,
        phi with 0-3 coefficients per slot (some slots absent), and 0-2
        border rows and columns; square but for about one in seven.  alpha
        or beta is None only where it would have no columns or rows, and
        alpha only when there is a slot matrix, since eval_phi_ab reads its
        field off them.  The empty-sided matrices have tests of their own."""
        def rand(r, c):
            return random_matrix(field, r, c, rng, 10)

        square = rng.random() < 0.85
        while True:
            y, x = ([rng.choice((0, 1, 1, 2, 2)) for _ in range(rng.randint(1, 2))] for _ in "yx")
            b_rows, a_cols = rng.randint(0, 2), rng.randint(0, 2)
            if (sum(y) + b_rows == sum(x) + a_cols) == square:
                break
        y0, x0 = rng.randint(max(b_rows, 1), 2), rng.randint(max(a_cols, 1), 2)  # full rank borders
        r = {(i, j): rng.randint(1, 2) for i in range(1, len(y) + 1) for j in range(1, len(x) + 1)}
        mats = {(i, j, q): rand(y[i - 1], x[j - 1]) for (i, j), mult in r.items()
                for q in range(1, mult + 1) if rng.random() < 0.8}
        border_in = {i: rand(yi, x0) for i, yi in enumerate(y, 1) if rng.random() < 0.8}
        border_out = {j: rand(y0, xj) for j, xj in enumerate(x, 1) if rng.random() < 0.8}
        phi = {slot: tuple(field.random(rng, 5) for _ in range(rng.choice((0, 1, 1, 2, 3))))
               for slot in r if rng.random() < 0.9}
        alpha = None if not a_cols and mats and rng.random() < 0.5 else rand(x0, a_cols)
        beta = None if not b_rows and rng.random() < 0.5 else rand(b_rows, y0)
        return BlockFamily(tuple(y), tuple(x), mats, r, y0, x0, border_in, border_out), phi, alpha, beta

    @pytest.mark.parametrize("field", [QQ, PrimeField(7), QQI], ids=["Q", "F7", "Qi"])
    def test_phi_bordered_against_oracle(self, field):
        rng = random.Random(71)
        nonzero = 0
        for _ in range(100):
            fam, phi, alpha, beta = self.random_bordered(field, rng)
            try:
                got = eval_phi_ab(fam, phi, alpha, beta)
            except ShapeMismatch as e:
                got = str(e)
            assert got == phi_ab_oracle(field, fam, phi, alpha, beta), (fam, phi, alpha, beta)
            nonzero += not isinstance(got, str) and got != field.zero()
        assert nonzero >= 25

    @pytest.mark.parametrize("fam, alpha, shape", [
        (random_block_family((2,), (1,), random.Random(1)), None, "2x1"),
        (BlockFamily((), (2,), {}), None, "0x2"),
        (BlockFamily((), (), {}), Mat.zeros(QQ, 0, 1), "0x1"),
    ], ids=["2x1", "no-rows", "border-column-only"])
    def test_phi_not_square(self, fam, alpha, shape):
        with pytest.raises(ShapeMismatch, match=f"^assembled matrix is {shape}, not square$"):
            eval_phi_ab(fam, {(1, 1): (QQ.one(),)}, alpha)

    def test_phi_of_empty_matrix_is_one(self):
        # one block row of height 0 and no block column: a 0x0 matrix
        assert eval_phi_ab(BlockFamily((0,), (), {}), {}) == QQ.one()

    @pytest.mark.parametrize("fam, beta", [
        (BlockFamily((), (1,), {}), Mat(PrimeField(7), 1, 1, [1])),
        (BlockFamily((), (1, 1), {}, border_out={1: Mat(PrimeField(7), 1, 1, [3])}),
         Mat(PrimeField(7), 2, 1, [1, 2])),
    ], ids=["beta", "border-out"])
    def test_phi_field_without_slot_matrices(self, fam, beta):
        got = eval_phi_ab(fam, {}, beta=beta)
        assert isinstance(got, FpScalar) and (got.p, got.val) == (7, 0)


class TestRankProbe:
    def test_small_values(self):
        assert basis_rank_check((1, 1), (1, 1), samples=6, seed=3) == 2
        assert basis_rank_check((2,), (1, 1), samples=5, seed=3) == 1
        assert basis_rank_check((2,), (1,), samples=4, seed=3) == 0

    def test_monotone_in_samples(self):
        y, x = (2, 1), (1, 1, 1)
        ranks = [basis_rank_check(y, x, samples=k, seed=9) for k in (1, 2, 4, 8)]
        assert ranks == sorted(ranks)
        assert ranks[-1] == len(enumerate_S_XY(y, x))

    def test_prime_field_agrees(self):
        y, x = (2, 1), (1, 1, 1)
        n = len(enumerate_S_XY(y, x))
        assert basis_rank_check(y, x, samples=n + 3, seed=1, field=PrimeField(1000003)) == n

    @pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["Q", "F1000003"])
    def test_empty_margins(self, field):
        # one shape, the empty matrix, whose f_S is the determinant 1 of a 0x0 matrix
        assert basis_rank_check((), (), 4, field=field) == 1


class TestDeterminantIdentities:
    @staticmethod
    def _col(m, j):
        return m.submatrix([0, 1], [j - 1])

    def test_polarization(self):
        rng = random.Random(61)
        col = TestDeterminantIdentities._col
        for _ in range(60):
            a = random_matrix(QQ, 2, 2, rng, 9)
            b = random_matrix(QQ, 2, 2, rng, 9)
            lhs = det(hstack([col(a, 1), col(b, 2)])) + det(hstack([col(b, 1), col(a, 2)]))
            assert lhs == det(a + b) - det(a) - det(b)

    def test_block_exchange(self):
        rng = random.Random(62)
        col = TestDeterminantIdentities._col
        z = Mat.zeros(QQ, 2, 2)
        for _ in range(60):
            a, b, c, d = (random_matrix(QQ, 2, 2, rng, 9) for _ in range(4))
            lhs = (
                det(hstack([col(a, 1), col(b, 1)])) * det(hstack([col(c, 2), col(d, 2)]))
                - det(hstack([col(a, 1), col(b, 2)])) * det(hstack([col(c, 2), col(d, 1)]))
                - det(hstack([col(a, 2), col(b, 1)])) * det(hstack([col(c, 1), col(d, 2)]))
                + det(hstack([col(a, 2), col(b, 2)])) * det(hstack([col(c, 1), col(d, 1)]))
            )
            rhs = (
                -det(block([[a, b], [c, d]]))
                + det(block([[a, z], [z, d]]))
                + det(block([[z, b], [c, z]]))
            )
            assert lhs == rhs
