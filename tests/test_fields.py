"""Exact scalar arithmetic: Q, Q(i), and prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quiverlab import (
    QQ,
    QQI,
    FpScalar,
    GaussianRational,
    GaussianRationalField,
    PrimeField,
    WrongField,
    field_from_name,
)


def gi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestGaussianRational:
    def test_product(self):
        assert gi(1, 2) * gi(3, -1) == gi(5, 5)

    def test_i_squared(self):
        i = QQI.i()
        assert i * i == gi(-1)

    def test_division(self):
        assert gi(1) / gi(1, 1) == gi(Fraction(1, 2), Fraction(-1, 2))
        x = gi(Fraction(3, 7), Fraction(-2, 5))
        assert x / x == gi(1)
        with pytest.raises(ZeroDivisionError):
            gi(1) / gi(0)

    def test_conjugate_is_multiplicative(self):
        x, y = gi(2, 3), gi(-1, Fraction(1, 2))
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate() == gi(2, -3)

    def test_mixed_coercion(self):
        assert 1 + gi(1, 1) == gi(2, 1)
        assert gi(1, 1) - Fraction(1, 2) == gi(Fraction(1, 2), 1)
        assert 2 * gi(0, 1) == gi(0, 2)
        assert gi(4) / 2 == gi(2)

    def test_hash_eq(self):
        assert hash(gi(2)) == hash(gi(2, 0))
        assert gi(2) != gi(2, 1)
        assert len({gi(1, 1), gi(1, 1), gi(1, -1)}) == 2

    def test_bool(self):
        assert not gi(0)
        assert gi(0, Fraction(1, 3))


class TestPrimeField:
    def test_arithmetic(self):
        f = PrimeField(7)
        a, b = f.coerce(3), f.coerce(5)
        assert a + b == f.coerce(1)
        assert a * b == f.coerce(1)
        assert a - b == f.coerce(5)
        assert (a / b) * b == a

    def test_inverse_via_fermat(self):
        f = PrimeField(11)
        for k in range(1, 11):
            x = f.coerce(k)
            assert x * (f.one() / x) == f.one()

    def test_zero_division(self):
        f = PrimeField(5)
        with pytest.raises(ZeroDivisionError):
            f.one() / f.zero()

    def test_modulus_mix_rejected(self):
        a = PrimeField(5).coerce(2)
        b = PrimeField(7).coerce(2)
        with pytest.raises(WrongField):
            a + b

    def test_composite_modulus_rejected(self):
        with pytest.raises(WrongField):
            PrimeField(6)
        with pytest.raises(WrongField):
            PrimeField(1)

    def test_rejects_fractions(self):
        with pytest.raises(WrongField):
            PrimeField(5).coerce(Fraction(1, 2))

    def test_hash_agrees_with_equal_residues(self):
        f = PrimeField(7)
        for k in range(-7, 15):
            x = f.from_int(k)
            assert x == k % 7
            assert hash(x) == hash(k % 7)
        assert {f.from_int(3): "a"}.get(3) == "a"
        assert {3: "a"}.get(f.from_int(10)) == "a"
        assert len({f.from_int(2), f.from_int(9), 2}) == 1
        # equal residues in two fields hash alike but are unequal, not an error
        f5_2, f7_2 = PrimeField(5).from_int(2), f.from_int(2)
        assert f5_2 != f7_2
        assert len({f5_2, f7_2}) == 2
        assert {f5_2: "a", f7_2: "b"}[f7_2] == "b"


class TestFieldProtocol:
    @pytest.mark.parametrize("field", [QQ, QQI, PrimeField(13)])
    def test_parse_dump_round_trip(self, field):
        import random

        rng = random.Random(4)
        for _ in range(40):
            x = field.random(rng, 9)
            assert field.parse(field.dump(x)) == x

    def test_q_parse_forms(self):
        assert QQ.parse("3/4") == Fraction(3, 4)
        assert QQ.parse("-2") == Fraction(-2)
        assert QQ.parse(5) == Fraction(5)

    def test_qi_parse_forms(self):
        assert QQI.parse(["1/2", "-3"]) == gi(Fraction(1, 2), -3)
        assert QQI.parse(7) == gi(7)

    def test_field_from_name(self):
        assert field_from_name("Q") is QQ
        assert field_from_name("Q(i)") is QQI
        f = field_from_name("Fp:101")
        assert f.p == 101
        with pytest.raises(WrongField):
            field_from_name("GF(4)")

    def test_names(self):
        assert QQ.name == "Q"
        assert QQI.name == "Q(i)"
        assert PrimeField(3).name == "Fp:3"
        assert isinstance(QQI, GaussianRationalField)

    def test_conjugation_support(self):
        assert QQI.has_conjugation
        assert not QQ.has_conjugation


small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)
gaussians = st.builds(GaussianRational, small_fracs, small_fracs)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x - x == gi(0)


@given(gaussians)
def test_gaussian_norm_positive(x):
    n = x * x.conjugate()
    assert n.im == 0
    assert (n.re > 0) == bool(x)


@given(st.integers(0, 12), st.integers(0, 12))
def test_fp_sum_matches_integers(a, b):
    f = PrimeField(13)
    assert f.coerce(a) + f.coerce(b) == f.coerce((a + b) % 13)


def test_fpscalar_repr_is_plain():
    assert isinstance(FpScalar, type)
    f = PrimeField(7)
    assert f.dump(f.coerce(12)) == 5
