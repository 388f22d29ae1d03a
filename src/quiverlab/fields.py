"""Exact scalar fields: rationals Q, Gaussian rationals Q(i), prime fields F_p.

Every scalar operation is exact, so every downstream comparison is a decision,
never a tolerance.  A field object knows how to build, coerce, serialize and
randomize its scalars; matrices carry a field reference and stay generic.

Serialization forms (used by the JSON interfaces):
    Q      "p/q" or "p"
    Q(i)   ["p/q", "r/s"]         (real part, imaginary part)
    F_p    plain int, modulus announced once in the container header
"""

from __future__ import annotations

from fractions import Fraction

from .errors import WrongField


def _arithmetic(cls):
    """Class decorator: `+ - * /` and their reflected forms, written once
    from the scalar type's `_coerce` (None for an operand it does not take),
    `_add`, `_mul`, `_inv` and negation.  The operators are set on each class
    itself, so every scalar type holds them in its own `__dict__`."""

    def binary(fn):
        def op(self, other):
            o = self._coerce(other)
            return NotImplemented if o is None else fn(self, o)
        return op

    cls.__add__ = cls.__radd__ = binary(cls._add)
    cls.__sub__ = binary(lambda x, y: x._add(-y))
    cls.__rsub__ = binary(lambda x, y: y._add(-x))
    cls.__mul__ = cls.__rmul__ = binary(cls._mul)
    cls.__truediv__ = binary(lambda x, y: x._mul(y._inv()))
    cls.__rtruediv__ = binary(lambda x, y: y._mul(x._inv()))
    return cls


@_arithmetic
class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def _add(self, o):
        return GaussianRational(self.re + o.re, self.im + o.im)

    def _mul(self, o):
        return GaussianRational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def _inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


@_arithmetic
class FpScalar:
    """Element of F_p, normalized to 0..p-1.

    It equals the ints congruent to it mod p, and hashes like its residue,
    so x == r and hash(x) == hash(r) for the int r in 0..p-1.  Any other int
    congruent to it compares equal too, but cannot share its hash.  Scalars
    of two different F_p are unequal; arithmetic mixing them raises
    WrongField."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _coerce(self, x):
        if isinstance(x, FpScalar):
            if x.p != self.p:
                raise WrongField(f"mixing F_{self.p} and F_{x.p}")
            return x
        if isinstance(x, int):
            return FpScalar(x, self.p)
        return None

    def _add(self, o):
        return FpScalar(self.val + o.val, self.p)

    def _mul(self, o):
        return FpScalar(self.val * o.val, self.p)

    def _inv(self):
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpScalar(pow(self.val, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpScalar(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpScalar):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val}"


class _Field:
    """What the three fields share: `zero`, `one` and `from_int` are `coerce`
    of 0, 1 and n; conjugation raises unless a field defines it; two fields
    are equal, and hash alike, when their names are."""

    has_conjugation = False

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def from_int(self, n):
        return self.coerce(n)

    def conj(self, x):
        raise WrongField("conjugation is only defined over Q(i)")

    def __eq__(self, other):
        return isinstance(other, _Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


class RationalField(_Field):
    name = "Q"
    kind = "Q"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise WrongField(f"cannot coerce {x!r} into Q")

    def parse(self, obj):
        if type(obj) in (str, int):  # a JSON boolean is no entry
            return Fraction(obj)
        raise WrongField(f"bad rational literal {obj!r}")

    def dump(self, x):
        return str(x)

    def random(self, rng, height=10):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def __repr__(self):
        return "QQ"


class GaussianRationalField(_Field):
    name = "Q(i)"
    kind = "Qi"
    has_conjugation = True

    def i(self):
        return GaussianRational(0, 1)

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise WrongField(f"cannot coerce {x!r} into Q(i)")

    def parse(self, obj):
        if (isinstance(obj, (list, tuple)) and len(obj) == 2
                and all(type(x) in (str, int) for x in obj)):
            return GaussianRational(Fraction(obj[0]), Fraction(obj[1]))
        if type(obj) in (str, int):
            return GaussianRational(Fraction(obj))
        raise WrongField(f"bad Gaussian rational literal {obj!r}")

    def dump(self, x):
        return [str(x.re), str(x.im)]

    def random(self, rng, height=10):
        return GaussianRational(
            Fraction(rng.randint(-height, height), rng.randint(1, height)),
            Fraction(rng.randint(-height, height), rng.randint(1, height)),
        )

    def conj(self, x):
        return self.coerce(x).conjugate()

    def __repr__(self):
        return "QQI"


def _is_prime(p):
    """Miller-Rabin on the 13 smallest primes as bases, which decides
    primality exactly below 3.317 * 10^24 (Sorenson and Webster, Math.
    Comp. 86, 2017); a larger p is a WrongField that names it."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p >= 3_317_044_064_679_887_385_961_981:
        raise WrongField(f"{p} is too large: primality is decided only below 3.317 * 10^24")
    if p in bases:
        return True
    if p < 2 or any(p % b == 0 for b in bases):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(_Field):
    kind = "Fp"

    def __init__(self, p):
        if not _is_prime(p):
            raise WrongField(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def coerce(self, x):
        if isinstance(x, FpScalar):
            if x.p != self.p:
                raise WrongField(f"element of F_{x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpScalar(x, self.p)
        raise WrongField(f"cannot coerce {x!r} into F_{self.p}")

    def parse(self, obj):
        if type(obj) is int:
            return FpScalar(obj, self.p)
        if type(obj) is str:
            return FpScalar(int(obj), self.p)
        raise WrongField(f"bad F_{self.p} literal {obj!r}")

    def dump(self, x):
        return x.val

    def random(self, rng, height=None):
        return FpScalar(rng.randrange(self.p), self.p)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
QQI = GaussianRationalField()


def field_from_name(name):
    """Inverse of `field.name`, used by the JSON loaders."""
    if name == "Q":
        return QQ
    if name == "Q(i)":
        return QQI
    if isinstance(name, str) and name.startswith("Fp:") and name[3:].isdigit():
        return PrimeField(int(name[3:]))
    raise WrongField(f"unknown field name {name!r}")
