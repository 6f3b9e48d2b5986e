from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from erskit.ambient import (
    AffineType,
    ConfigError,
    DomainError,
    _kernel_marks,
    build_ambient,
)
from conftest import SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_null_root_identities(name):
    sp = build_ambient(name)
    marks = sp.delta_marks()
    delta = tuple(
        Fraction(marks[i]) if i < sp.n_nodes else Fraction(0)
        for i in range(sp.dim)
    )
    assert sp.j(delta, delta) == 0
    assert sp.j(sp.basis_vector(sp.idx_Ld), delta) == 1
    assert sp.j(sp.basis_vector(sp.idx_a), sp.basis_vector(sp.idx_a)) == 0
    assert sp.j(sp.basis_vector(sp.idx_La), sp.basis_vector(sp.idx_a)) == 1
    assert sp.j(delta, sp.basis_vector(sp.idx_a)) == 0


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_cartan_vs_form(name):
    sp = build_ambient(name)
    for i in range(sp.n_nodes):
        norm = sp.j(sp.basis_vector(i), sp.basis_vector(i))
        assert norm > 0
        for j in range(sp.n_nodes):
            pair = 2 * sp.j(sp.basis_vector(i), sp.basis_vector(j)) / norm
            assert pair == sp.cartan[i][j]
    for i in range(sp.n_nodes):
        assert sp.cartan[i][i] == 2
        for j in range(sp.n_nodes):
            if i != j:
                assert sp.cartan[i][j] <= 0
                assert (sp.cartan[i][j] == 0) == (sp.cartan[j][i] == 0)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_cartan_corank_one(name):
    # the affine matrix kills exactly the delta-marks vector
    sp = build_ambient(name)
    marks = sp.delta_marks()
    for i in range(sp.n_nodes):
        assert sum(sp.cartan[i][j] * marks[j] for j in range(sp.n_nodes)) == 0


coords = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4)


@settings(max_examples=60)
@given(x=coords, y=coords, i=st.integers(min_value=0, max_value=2))
def test_reflection_involution(x, y, i):
    sp = build_ambient("D3(2)")

    def lift(c):
        out = [Fraction(0)] * sp.dim
        out[0], out[1], out[2] = (Fraction(v) for v in c[:3])
        out[sp.idx_a] = Fraction(c[3])
        return tuple(out)

    mirror = sp.basis_vector(i)
    v = lift(x)
    assert sp.reflect(mirror, sp.reflect(mirror, v)) == v
    # reflections are J-isometries
    w = lift(y)
    assert sp.j(sp.reflect(mirror, v), sp.reflect(mirror, w)) == sp.j(v, w)


def test_reflect_isotropic_rejected():
    sp = build_ambient("A2(1)")
    with pytest.raises(DomainError):
        sp.reflect(sp.basis_vector(sp.idx_a), sp.basis_vector(0))


def test_type_validation():
    with pytest.raises(ConfigError):
        AffineType("A(1)", 1)
    with pytest.raises(ConfigError):
        AffineType("D(3)", 3)
    assert AffineType("D(2)", 2).name == "D3^(2)"
    assert AffineType("A_even(2)", 2).name == "A4^(2)"


def test_basis_labels_shape():
    sp = build_ambient("D3(2)")
    labels = sp.basis_labels()
    assert labels == ["a0", "a1", "a2", "Ld", "a", "La"]
    assert sp.dim == sp.n_nodes + 3


@pytest.mark.parametrize("block", [
    [[2, -1], [-1, 2]],  # finite A2: no kernel
    [[0, 0], [0, 0]],    # corank 2
    [[1, 1], [1, 1]],    # kernel (1, -1): a mark of each sign
])
def test_kernel_marks_rejects_non_affine_blocks(block):
    with pytest.raises(ConfigError):
        _kernel_marks([[Fraction(x) for x in row] for row in block])


def test_affine_block_check_rejects_negative_semidefinite_block():
    # corank 1 with the positive kernel (1, 1): the sign pattern rejects it
    block = [[Fraction(x) for x in row] for row in [[-2, 2], [2, -2]]]
    with pytest.raises(ConfigError, match="lacks the sign pattern"):
        _kernel_marks(block)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_symmetrized_block_is_psd_of_corank_one(name):
    # what _kernel_marks reads off the positive null vector, checked by sympy
    sympy = pytest.importorskip("sympy")
    B = sympy.Matrix(build_ambient(name).sym)
    assert B.is_positive_semidefinite
    assert B.rank() == B.rows - 1
