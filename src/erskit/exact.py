"""Exact linear algebra over Q.

One row elimination, expansions: it reads rows one at a time and expands
each row that depends on the rows before it in the independent ones.  The
graded build of unfold reads it; rank, kernel and solve are read off it.
Entries may be ints or Fractions; kernel and solve return Fractions.

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


def expansions(rows):
    """For each row, None when it is independent of the rows before it, else
    its exact expansion {position of an independent row: c} in them.

    Rows are sparse {column: nonzero entry} dicts, read lazily and reduced
    in place.  Each pivot row (its pivot is its first key) carries its
    expression in the independent rows, so a row that reduces to zero is
    the combination it met; being unique, that does not depend on the
    pivot rule."""
    pivots: list[tuple] = []  # (pivot column, reduced row, expression)
    for pos, vec in enumerate(rows):
        expr: dict = {}
        for pcol, prow, rexpr in pivots:
            if pcol in vec:
                fac = Fraction(vec[pcol], prow[pcol])
                acc(expr, rexpr, fac)
                acc(vec, prow, -fac)
        if vec:
            rexpr = {pos: 1}
            acc(rexpr, expr, -1)
            pivots.append((next(iter(vec)), vec, rexpr))
            yield None
        else:
            yield expr


def _sparse(row) -> dict:
    return {c: x for c, x in enumerate(row) if x}


def _dense(n: int, combo: dict) -> list[Fraction]:
    v = [Fraction(0)] * n
    for k, x in combo.items():
        v[k] = Fraction(x)
    return v


def rank(rows, stop: int | None = None) -> int:
    """Rank of rows over Q, or stop if it is at least stop: no row past the
    stop-th independent one is read."""
    r = 0
    for combo in expansions(_sparse(row) for row in rows):
        if combo is None:
            r += 1
            if r == stop:
                break
    return r


def kernel(matrix) -> list[list[Fraction]]:
    """The nullspace basis of the RREF: for each column that depends on the
    columns before it, 1 there and minus its expansion in them."""
    cols = expansions(_sparse(col) for col in zip(*matrix))
    return [_dense(len(matrix[0]), {c: 1, **{k: -x for k, x in combo.items()}})
            for c, combo in enumerate(cols) if combo is not None]


def solve(matrix, rhs) -> list[Fraction] | None:
    """The solution of matrix v = rhs that is 0 off the independent columns,
    or None when the system is inconsistent."""
    *_, combo = expansions(_sparse(col) for col in [*zip(*matrix), rhs])
    return None if combo is None else _dense(len(matrix[0]), combo)


def primitive(v) -> list[int]:
    """The coprime integer vector that is a positive multiple of the rational
    vector v; the zero vector stays zero."""
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g else ints
