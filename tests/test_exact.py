from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from erskit import exact


# an independent oracle: sympy's exact matrices over QQ
@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def matrices(draw):
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    return [draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]


def _times(matrix, v):
    return [sum(Fraction(a) * x for a, x in zip(row, v)) for row in matrix]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_matches_sympy(sympy, matrix):
    want = sympy.Matrix(matrix).rank()
    assert exact.rank(matrix) == want
    for k in range(1, len(matrix[0]) + 1):
        assert exact.rank(matrix, stop=k) == min(k, want)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_is_sympys_whatever_the_row_order(sympy, matrix):
    reduced, pivots = sympy.Matrix(matrix).rref()
    want = {c: [Fraction(int(x.p), int(x.q)) for x in reduced.row(r)]
            for r, c in enumerate(pivots)}
    assert exact.rref(matrix) == want
    assert exact.rref(matrix[::-1]) == want


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_is_annihilated_and_has_full_dimension(sympy, matrix):
    n = len(matrix[0])
    basis = exact.kernel(matrix)
    assert len(basis) == n - sympy.Matrix(matrix).rank()
    for v in basis:
        assert _times(matrix, v) == [0] * len(matrix)
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_exactly_when_consistent(sympy, matrix, data):
    rhs = data.draw(st.lists(st.integers(-3, 3), min_size=len(matrix),
                             max_size=len(matrix)))
    a = sympy.Matrix(matrix)
    consistent = a.rank() == a.row_join(sympy.Matrix(rhs)).rank()
    v = exact.solve(matrix, rhs)
    if consistent:
        assert v is not None and _times(matrix, v) == rhs
    else:
        assert v is None


def test_primitive():
    assert exact.primitive([Fraction(1, 2), Fraction(-3, 4), 0]) == [2, -3, 0]
    assert exact.primitive([Fraction(-6), Fraction(4)]) == [-3, 2]
    assert exact.primitive([0, 0]) == [0, 0]
