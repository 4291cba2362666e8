"""Exact linear algebra primitives."""

from fractions import Fraction

import pytest

from dendrikit.exact import (
    ONE,
    ZERO,
    BilinForm,
    DegenerateFormError,
    LinMap,
    Tensor2,
    Vec,
    determinant,
    dual_basis,
    flip,
    identity_matrix,
    mat_inverse,
    mat_mul,
    sharp,
    transpose,
)


def test_mat_inverse_exact():
    m = ((Fraction(2), Fraction(1)), (Fraction(7), Fraction(4)))
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == identity_matrix(2)
    assert mat_mul(inv, m) == identity_matrix(2)


def test_mat_inverse_singular_raises():
    m = ((ONE, ONE), (ONE, ONE))
    with pytest.raises(DegenerateFormError):
        mat_inverse(m)


def test_determinant():
    m = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    assert determinant(m) == Fraction(-2)


def test_vec_arithmetic():
    v = Vec.basis(3, 1)
    w = Vec((ONE, ZERO, ONE))
    s = v + w
    assert s.coords == (ONE, ONE + ZERO, ONE)
    assert (s - s).is_zero()
    assert v.scale(Fraction(1, 2)).coords[1] == Fraction(1, 2)


def test_flip_is_involution():
    r = Tensor2(((ONE, Fraction(2)), (Fraction(3), ZERO)))
    assert flip(flip(r)).coeffs == r.coeffs
    assert flip(r).coeffs == transpose(r.coeffs)


def test_sharp_pairing_convention():
    # ⟨ξ₂, r♯(ξ₁)⟩ = ⟨ξ₁⊗ξ₂, r⟩ means the matrix is the transpose
    r = Tensor2(((ZERO, ONE), (Fraction(5), ZERO)))
    assert sharp(r).matrix == transpose(r.coeffs)


def test_dual_basis_identity():
    omega = BilinForm(((ZERO, ONE), (-ONE, ZERO)))
    F = dual_basis(omega)
    for i in range(2):
        for j in range(2):
            fj = Vec(tuple(F.matrix[p][j] for p in range(2)))
            expected = ONE if i == j else ZERO
            assert omega.pair(Vec.basis(2, i), fj) == expected


def test_bilin_form_kernel_detection():
    degenerate = BilinForm(((ZERO, ZERO), (ZERO, ZERO)))
    assert degenerate.kernel_vector() is not None
    nondegen = BilinForm(((ZERO, ONE), (-ONE, ZERO)))
    assert nondegen.kernel_vector() is None


def test_linmap_apply():
    m = LinMap(((ZERO, ONE), (ONE, ZERO)))
    assert m.apply(Vec.basis(2, 0)).coords == (ZERO, ONE)
