"""Exact arithmetic in the 24th cyclotomic field.

Elements are represented by 8 rational coordinates in the power basis
1, z, ..., z^7 where z is a primitive 24th root of unity, reduced modulo
the minimal polynomial x^8 - x^4 + 1.  They are stored as 8 integer
numerators over one positive integer denominator, in lowest terms, so equal
elements have equal storage and compare and hash as tuples, except that a
rational element hashes as the int or Fraction it equals.  An int or
Fraction operand scales or shifts the numerators directly, and a rational
Cyc factor scales them too.  The field contains sqrt(-1) = z^6,
sqrt(2) = z^3 + z^21 and every exp(pi*i/k) for k = 1, 2, 3, 4, which is
all the realization formulas ever need.

A rational Cyc is a valid value, but the sums of the loop realization do
not keep one: exact.acc stores every rational coefficient as an int, or a
Fraction when its denominator is > 1, so a Cyc it stores lies outside Q.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

_ZERO8 = (0,) * 8
# the exponents k with z -> z^k a Galois automorphism other than the identity
_CONJUGATES = (5, 7, 11, 13, 17, 19, 23)

Scalar = Union[int, Fraction, "Cyc"]


class Cyc:
    """An element of Q(zeta_24), immutable and hashable."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Fraction] = _ZERO8):
        c = [Fraction(x) for x in coeffs]
        if len(c) != 8:
            raise ValueError("need exactly 8 coordinates")
        # over the lcm of the denominators the numerators share no factor
        self.den = lcm(*(x.denominator for x in c))
        self.num = tuple(x.numerator * (self.den // x.denominator) for x in c)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(q) -> "Cyc":
        q = Fraction(q)
        return _make((q.numerator,) + _ZERO8[1:], q.denominator)

    @staticmethod
    def zeta_pow(n: int) -> "Cyc":
        """z^n for any integer n (z has order 24)."""
        p = [0] * 24
        p[n % 24] = 1
        return _make(_fold(p), 1)

    # -- ring ops -----------------------------------------------------
    def __add__(self, other: Scalar) -> "Cyc":
        if isinstance(other, Cyc):
            if self.den == other.den:
                return _lowest(tuple(a + b for a, b in zip(self.num, other.num)),
                               self.den)
            d1, d2 = self.den, other.den
            return _lowest(tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num)),
                           d1 * d2)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.numerator, other.denominator
        if q == 1:
            return _make((self.num[0] + p * self.den,) + self.num[1:], self.den)
        num = [a * q for a in self.num]
        num[0] += p * self.den
        return _lowest(tuple(num), self.den * q)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return _make(tuple(-a for a in self.num), self.den)

    def __sub__(self, other: Scalar) -> "Cyc":
        if not isinstance(other, (Cyc, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Scalar) -> "Cyc":
        return -self + other

    def __mul__(self, other: Scalar) -> "Cyc":
        if isinstance(other, Cyc):
            # a rational operand q only scales the other's numerators: the
            # product below would give the same lowest terms
            x, q = (other, self) if any(other.num[1:]) else (self, other)
            if not any(q.num[1:]):
                return _lowest(tuple(a * q.num[0] for a in x.num),
                               self.den * other.den)
            p = [0] * 15
            for i, a in enumerate(self.num):
                if a:
                    for j, b in enumerate(other.num):
                        if b:
                            p[i + j] += a * b
            return _lowest(_fold(p), self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p = other.numerator
        return _lowest(tuple(a * p for a in self.num), self.den * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyc":
        if isinstance(other, Cyc):
            return self * other.inverse()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other: Scalar) -> "Cyc":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Cyc":
        """Multiplicative inverse: the product of the 7 other Galois
        conjugates of self, divided by the norm (the product of all 8)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        # self = a / den with a integral, so 1/self = den * rest / N(a)
        a = _make(self.num, 1)
        rest = ONE
        for k in _CONJUGATES:
            p = [0] * 24
            for i, x in enumerate(self.num):
                p[i * k % 24] += x
            rest = rest * _make(_fold(p), 1)
        return rest * Fraction(self.den, (a * rest).rational_value())

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyc):
            return self.den == other.den and self.num == other.num
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (self.den == other.denominator and self.num[0] == other.numerator
                and self.is_rational())

    def __hash__(self):
        # a rational element equals, so hashes as, the Fraction of its value
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.rational_value()})"
        terms = [f"{Fraction(a, self.den)}*z^{i}" for i, a in enumerate(self.num) if a]
        return "Cyc(" + " + ".join(terms) + ")"

    def serialize(self) -> list[str]:
        """The 8 coordinates as exact fraction strings."""
        return [str(Fraction(a, self.den)) for a in self.num]


def _make(num: tuple, den: int) -> Cyc:
    """The element num / den, for integers already in lowest terms."""
    out = object.__new__(Cyc)
    out.num = num
    out.den = den
    return out


def _lowest(num: tuple, den: int) -> Cyc:
    """The element num / den, for den > 0, brought to lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple(a // g for a in num)
        den //= g
    return _make(num, den)


def _fold(p: list[int]) -> tuple:
    """The 8 coordinates of sum p[e] z^e, folded in place through
    z^e = z^(e-4) - z^(e-8) from the top power down."""
    for e in range(len(p) - 1, 7, -1):
        c = p[e]
        if c:
            p[e - 4] += c
            p[e - 8] -= c
    return tuple(p[:8])


ZERO = Cyc()
ONE = Cyc.from_rational(1)
ZETA24 = Cyc.zeta_pow(1)
SQRT_M1 = Cyc.zeta_pow(6)
SQRT2 = Cyc.zeta_pow(3) + Cyc.zeta_pow(-3)


def exp_pi_i_over(k: int) -> Cyc:
    """exp(pi*i/k) for k in {1, 2, 3, 4}."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"no exact primitive value for k={k}")
    return Cyc.zeta_pow(12 // k)
