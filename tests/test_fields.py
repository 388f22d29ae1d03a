"""Exact scalar arithmetic: Q, Q(i), and prime fields."""

import math
import operator
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quiverlab import (
    QQ,
    QQI,
    FpScalar,
    GaussianRational,
    GaussianRationalField,
    PrimeField,
    RationalField,
    WrongField,
    field_from_name,
)
from quiverlab.fields import _is_prime


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


def trial_division_is_prime(p):
    return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


class TestPrimality:
    def test_agrees_with_trial_division_below_10_5(self):
        assert [p for p in range(-3, 10**5) if _is_prime(p)] == \
            [p for p in range(-3, 10**5) if trial_division_is_prime(p)]

    # Carmichael numbers fool the Fermat test to every coprime base; psi_k,
    # the least strong pseudoprime to the first k primes as bases, fools
    # Miller-Rabin on those k bases (psi_1, psi_2, psi_3, psi_4, psi_6, psi_9
    # and psi_12)
    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                                   825265, 321197185, 2047, 1373653, 25326001, 3215031751,
                                   341550071728321, 3825123056546413051,
                                   318665857834031151167461])
    def test_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n) and not sympy.isprime(n)

    @pytest.mark.parametrize("p", [10**18 + 3, 2**61 - 1, 2**64 - 59, 10**24 + 7])
    def test_large_primes(self, p):
        assert _is_prime(p) and sympy.isprime(p)
        assert PrimeField(p).p == p

    def test_agrees_with_sympy_on_random_large_odd_numbers(self):
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randrange(10**12, 3 * 10**24) | 1
            assert _is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("p", [3317044064679887385961981, 2**89 - 1])
    def test_beyond_the_exact_range_is_refused_by_name(self, p):
        with pytest.raises(WrongField, match=f"^{p} is too large: primality is decided only "
                                             r"below 3\.317 \* 10\^24$"):
            PrimeField(p)

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


# -- the scalar protocol: reflected operators, zero division, mixed primes ----

BINARY_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def fp7(k):
    return FpScalar(k, 7)


@pytest.mark.parametrize("left, right, expected", [
    (2, fp7(3), {"add": 5, "sub": 6, "mul": 6, "truediv": 3}),
    (fp7(3), 2, {"add": 5, "sub": 1, "mul": 6, "truediv": 5}),
    (3, gi(1, 2), {"add": gi(4, 2), "sub": gi(2, -2), "mul": gi(3, 6),
                   "truediv": gi(Fraction(3, 5), Fraction(-6, 5))}),
    (gi(1, 2), 3, {"add": gi(4, 2), "sub": gi(-2, 2), "mul": gi(3, 6),
                   "truediv": gi(Fraction(1, 3), Fraction(2, 3))}),
    (Fraction(1, 2), gi(1, 2), {"add": gi(Fraction(3, 2), 2), "sub": gi(Fraction(-1, 2), -2),
                                "mul": gi(Fraction(1, 2), 1),
                                "truediv": gi(Fraction(1, 10), Fraction(-1, 5))}),
    (gi(1, 2), Fraction(1, 2), {"add": gi(Fraction(3, 2), 2), "sub": gi(Fraction(1, 2), 2),
                                "mul": gi(Fraction(1, 2), 1), "truediv": gi(2, 4)}),
], ids=["int-Fp", "Fp-int", "int-Qi", "Qi-int", "Fraction-Qi", "Qi-Fraction"])
@pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
def test_operator_with_a_plain_number_on_either_side(left, right, expected, op):
    result = op(left, right)
    scalar = left if isinstance(left, (FpScalar, GaussianRational)) else right
    assert type(result) is type(scalar)
    assert result == expected[op.__name__]
    if isinstance(scalar, FpScalar):
        assert result.p == 7 and 0 <= result.val < 7


@pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("x, foreign", [
    (fp7(3), (0.5, "1", None, Fraction(1, 2))),
    (gi(1, 2), (0.5, "1", None)),
], ids=["Fp", "Qi"])
def test_operand_outside_the_field_is_a_type_error(x, foreign, op):
    for other in foreign:
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)


@pytest.mark.parametrize("x, zero, message", [
    (fp7(3), fp7(0), "division by zero in F_7"),
    (gi(1, 2), gi(0), "division by zero in Q(i)"),
], ids=["Fp", "Qi"])
def test_division_by_zero(x, zero, message):
    for num, den in ((x, zero), (x, 0), (x, 7 if isinstance(x, FpScalar) else Fraction(0)),
                     (1, zero), (zero, zero)):
        with pytest.raises(ZeroDivisionError, match=re.escape(message)):
            num / den


@pytest.mark.parametrize("name", ["add", "radd", "sub", "rsub", "mul", "rmul",
                                  "truediv", "rtruediv"])
def test_mixed_primes_rejected_in_every_binary_operator(name):
    a, b = FpScalar(2, 5), FpScalar(3, 7)
    with pytest.raises(WrongField, match=re.escape("mixing F_5 and F_7")):
        getattr(a, f"__{name}__")(b)
    if not name.startswith("r"):
        with pytest.raises(WrongField, match=re.escape("mixing F_7 and F_5")):
            getattr(operator, name)(b, a)


def test_scalar_results_are_new_normalized_values():
    x = FpScalar(-1, 7)
    assert (x.val, repr(x)) == (6, "6")
    assert (-x).val == 1 and (x - x).val == 0
    z = gi(Fraction(2, 4), -1)
    assert ((-z).re, (-z).im) == (Fraction(-1, 2), 1)
    assert repr(z) == "1/2+-1i" and repr(gi(3)) == "3"
    assert repr(z.conjugate()) == "1/2+1i"


def test_field_equality_and_hash_across_instances():
    fields = [PrimeField(7), PrimeField(7), PrimeField(5), QQ, QQI,
              RationalField(), GaussianRationalField()]
    for f in fields:
        for g in fields:
            assert (f == g) == (f.name == g.name)
            if f == g:
                assert hash(f) == hash(g)
    assert PrimeField(7) != PrimeField(5)
    assert len(set(fields)) == 4
    assert {PrimeField(7): "a"}[PrimeField(7)] == "a"
    assert QQ != "Q" and PrimeField(7) != 7


@pytest.mark.parametrize("field, kind", [(QQ, Fraction), (QQI, GaussianRational),
                                         (PrimeField(7), FpScalar)], ids=["Q", "Qi", "Fp"])
def test_field_constants_have_the_field_type(field, kind):
    for x, value in ((field.zero(), 0), (field.one(), 1), (field.from_int(-9), -9),
                     (field.from_int(12), 12)):
        assert type(x) is kind
        assert x == field.coerce(value)
    assert not field.zero() and field.one()
    if kind is FpScalar:
        assert field.from_int(-9).val == 5 and field.from_int(12).p == 7


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "Fp"])
def test_conjugation_is_only_for_qi(field):
    assert not field.has_conjugation
    with pytest.raises(WrongField, match=re.escape("conjugation is only defined over Q(i)")):
        field.conj(field.one())
    assert QQI.has_conjugation
    assert QQI.conj(gi(1, 2)) == gi(1, -2) and QQI.conj(3) == gi(3)


def to_sympy(x):
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator)


@settings(max_examples=60, deadline=None)
@given(gaussians, gaussians, st.sampled_from(BINARY_OPS))
def test_gaussian_arithmetic_matches_sympy(x, y, op):
    """Q(i) + - * / against sympy's Rational and I, used here as an oracle."""
    if op is operator.truediv and not y:
        return
    got = op(x, y)
    want = op(to_sympy(x), to_sympy(y))
    assert to_sympy(got.conjugate()) == sympy.conjugate(to_sympy(got))
    assert sympy.expand_complex(want).as_real_imag() == (
        sympy.Rational(got.re.numerator, got.re.denominator),
        sympy.Rational(got.im.numerator, got.im.denominator))
