"""Exact linear algebra over Q.

One reduced-row-echelon routine, built a row at a time so that a caller
who only needs to know whether a rank is reached can stop reading rows;
rank, kernel and solve are read off its result.  Entries may be ints or
Fractions; results are Fractions.

One sparse accumulator, acc, for linear combinations stored as
{key: nonzero coefficient} dicts with any exact scalars (ints, Fractions,
Cyc): every such sum in the package goes through it, so it is the one
place that drops a coefficient once it cancels to zero, and the one place
that stores a rational coefficient as an int, or as a Fraction when its
denominator is > 1, leaving Cyc to the values outside Q.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclo import Cyc


def acc(out: dict, elem: dict, scalar=1) -> None:
    """out += scalar * elem, in place, removing every entry of out that
    becomes zero.  New keys are appended in the order of elem.  Every
    coefficient is stored in its one exact form (`canonical`), and the
    scalar is brought to that form first, so any scalar equal to 1 (the int
    1, Fraction(1) or the Cyc 1) skips the product."""
    if not scalar:
        return
    if type(scalar) is not int:
        scalar = canonical(scalar)
    one = type(scalar) is int and scalar == 1
    for key, c in elem.items():
        if not one:
            c = scalar * c
        old = out.get(key)
        if old is not None:
            c = old + c
        if c:
            out[key] = c if type(c) is int else canonical(c)
        elif old is not None:
            del out[key]


def canonical(c):
    """The one stored form of an exact scalar: an int for an integer, a
    Fraction for any other rational, a Cyc only for a value outside Q."""
    t = type(c)
    if t is Cyc:
        num = c.num
        if any(num[1:]):
            return c
        return num[0] if c.den == 1 else Fraction(num[0], c.den)
    if t is Fraction and c.denominator == 1:
        return c.numerator
    return c


def rref(rows, stop: int | None = None) -> dict[int, list[Fraction]]:
    """Reduced row echelon form of the span of rows, as {pivot column: row}.

    Each row is 1 at its pivot column and 0 at every other pivot column
    (and at every column before its pivot), so the result is the unique
    RREF whatever the row order.  With stop, rows are read only until that
    many pivots are found."""
    piv: dict[int, list[Fraction]] = {}
    for row in rows:
        row = list(row)
        for c, p in piv.items():
            f = row[c]
            if f:
                row = [x - f * y if y else x for x, y in zip(row, p)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = 1 / Fraction(row[lead])
        row = [x * inv for x in row]
        for c, p in piv.items():
            f = p[lead]
            if f:
                piv[c] = [x - f * y if y else x for x, y in zip(p, row)]
        piv[lead] = row
        if len(piv) == stop:
            break
    return piv


def rank(rows, stop: int | None = None) -> int:
    """Rank of rows over Q, or stop if it is at least stop."""
    return len(rref(rows, stop))


def kernel(matrix) -> list[list[Fraction]]:
    """A basis of {v : matrix v = 0}, one vector per non-pivot column, with
    1 at that column and 0 at the other non-pivot columns."""
    n = len(matrix[0])
    piv = rref(matrix)
    basis = []
    for free in range(n):
        if free in piv:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for c, p in piv.items():
            v[c] = -p[free]
        basis.append(v)
    return basis


def solve(matrix, rhs) -> list[Fraction] | None:
    """One solution of matrix v = rhs (0 at every non-pivot column), or None
    when the system is inconsistent."""
    n = len(matrix[0])
    piv = rref(list(row) + [b] for row, b in zip(matrix, rhs))
    if n in piv:
        return None
    v = [Fraction(0)] * n
    for c, p in piv.items():
        v[c] = p[n]
    return v


def primitive(v) -> list[int]:
    """The coprime integer vector that is a positive multiple of the rational
    vector v; the zero vector stays zero."""
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints
