"""Exact linear algebra primitives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- one Gauss-Jordan reduction behind the inverse, determinant and kernel -------
# The three eliminations it replaced, kept as the reference.


def _old_inverse(a):
    n = len(a)
    m = [list(row) + list(idrow) for row, idrow in zip(a, identity_matrix(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv_p = ONE / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def _old_determinant(a):
    n = len(a)
    m = [list(row) for row in a]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv_p = ONE / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv_p
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _old_kernel_vector(matrix):
    n = len(matrix)
    m = [list(row) for row in transpose(matrix)]
    pivots, row = {}, 0
    for col in range(n):
        p = next((r for r in range(row, n) if m[r][col] != 0), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        inv_p = ONE / m[row][col]
        m[row] = [x * inv_p for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots[col] = row
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    v = [ZERO] * n
    v[free[0]] = ONE
    for col, r in pivots.items():
        v[col] = -m[r][free[0]]
    return tuple(v)


@st.composite
def square_matrices(draw):
    """A small matrix of small rationals, often singular: some rows are
    combinations of others, and a column may vanish."""
    n = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    for i in range(n):
        if i and draw(st.integers(0, 3)) == 0:
            j, c = draw(st.integers(0, i - 1)), draw(entry)
            rows[i] = [c * x for x in rows[j]]
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = ZERO
    return tuple(tuple(row) for row in rows)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_the_reduction_gives_what_the_three_eliminations_gave(m):
    det = determinant(m)
    assert det == _old_determinant(m) and type(det) is Fraction
    want = _old_inverse(m)
    if want is None:
        assert det == 0
        with pytest.raises(DegenerateFormError, match="matrix is singular"):
            mat_inverse(m)
    else:
        assert det != 0 and mat_inverse(m) == want
    kv = BilinForm(m).kernel_vector()
    assert (kv if kv is None else kv.coords) == _old_kernel_vector(m)
    assert (kv is None) == (det != 0)


def test_the_reduction_stays_exact_on_int_entries():
    assert determinant(((2, 1), (1, 1))) == 1 and type(determinant(((2, 1), (1, 1)))) is Fraction
    assert mat_inverse(((2, 0), (0, 4))) == ((Fraction(1, 2), 0), (0, Fraction(1, 4)))
