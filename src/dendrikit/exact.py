"""Exact rational linear algebra over a fixed basis.

Scalars are `fractions.Fraction` (always reduced, exact equality).  Vectors,
matrices and order-2/3 tensors are immutable nested tuples wrapped in small
dataclasses.  Dual-space vectors are expressed in the dual basis of the
declared primal basis.

Every contraction goes through one sparse kernel, `combine`: a linear
combination of sparse rows that touches only nonzero coefficients.  Products
of structure constants are mostly zero, so skipping zeros is where the time
goes, and the result is the same exact value as the dense sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def freeze_vector(coords: Iterable) -> tuple[Fraction, ...]:
    return tuple(_frac(c) for c in coords)


def freeze_matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_frac(c) for c in row) for row in rows)


def freeze_cube(planes) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    return tuple(freeze_matrix(plane) for plane in planes)


def identity_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a):
    return tuple(tuple(c * x for x in row) for row in a)


def nonzero(coords) -> list:
    """The (index, value) pairs of the nonzero entries of a flat sequence."""
    return [(i, x) for i, x in enumerate(coords) if x]


def sparse_flat(matrix) -> tuple:
    """The nonzero entries of a matrix as (row·width + column, value) pairs."""
    width = len(matrix[0]) if matrix else 0
    return tuple(
        (i * width + j, x) for i, row in enumerate(matrix) for j, x in enumerate(row) if x
    )


def reshape(flat, width: int) -> tuple:
    """Cut a flat sequence into the rows of a matrix of the given width."""
    return tuple(tuple(flat[i : i + width]) for i in range(0, len(flat), width))


def combine(terms, table, size: int) -> list:
    """Σ a·table[idx] over the (idx, a) in ``terms``, as a dense list of length ``size``.

    ``table[idx]`` lists the nonzero (position, c) entries of one sparse
    vector.  The cost is the number of nonzero products a·c, not ``size``
    times the number of terms.
    """
    out = [ZERO] * size
    for idx, a in terms:
        for k, c in table[idx]:
            out[k] += a * c
    return out


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    rows_b = [nonzero(row) for row in b]
    return tuple(tuple(combine(nonzero(ra), rows_b, cols)) for ra in a)


def mat_vec(a, v):
    terms = nonzero(v)
    cols = {k: tuple((i, row[k]) for i, row in enumerate(a) if row[k]) for k, _ in terms}
    return tuple(combine(terms, cols, len(a)))


def transpose(a):
    if not a:
        return ()
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def cube_is_zero(t) -> bool:
    return all(x == 0 for plane in t for row in plane for x in row)


def first_nonzero_matrix(a):
    """First (i, j, value) with a nonzero entry, or None."""
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x != 0:
                return (i, j), x
    return None


def first_nonzero_cube(t):
    for i, plane in enumerate(t):
        for j, row in enumerate(plane):
            for k, x in enumerate(row):
                if x != 0:
                    return (i, j, k), x
    return None


class DegenerateFormError(ValueError):
    """Raised when a bilinear form (or matrix) that must be invertible is singular."""


def mat_inverse(a):
    """Exact inverse by Gaussian elimination with first-nonzero pivoting.

    Raises DegenerateFormError on a singular matrix.
    """
    n = len(a)
    m = [list(row) + list(idrow) for row, idrow in zip(a, identity_matrix(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise DegenerateFormError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv_p = ONE / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def determinant(a) -> Fraction:
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


@dataclass(frozen=True)
class Vec:
    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence):
        object.__setattr__(self, "coords", freeze_vector(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def basis(n: int, i: int) -> "Vec":
        return Vec(tuple(ONE if j == i else ZERO for j in range(n)))

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vec") -> "Vec":
        return Vec(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def scale(self, c) -> "Vec":
        c = _frac(c)
        return Vec(tuple(c * x for x in self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)


@dataclass(frozen=True)
class Tensor2:
    """Element of V⊗W over fixed bases: coeffs[i][j] is the coefficient of vᵢ⊗wⱼ."""

    coeffs: tuple[tuple[Fraction, ...], ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", freeze_matrix(coeffs))

    @property
    def dim_left(self) -> int:
        return len(self.coeffs)

    @property
    def dim_right(self) -> int:
        return len(self.coeffs[0]) if self.coeffs else 0

    def __add__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(mat_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(mat_sub(self.coeffs, other.coeffs))

    def scale(self, c) -> "Tensor2":
        return Tensor2(mat_scale(_frac(c), self.coeffs))

    def is_zero(self) -> bool:
        return mat_is_zero(self.coeffs)

    def first_nonzero(self):
        return first_nonzero_matrix(self.coeffs)


@dataclass(frozen=True)
class Tensor3:
    """Element of U⊗V⊗W: coeffs[i][j][k] is the coefficient of uᵢ⊗vⱼ⊗wₖ."""

    coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", freeze_cube(coeffs))

    @property
    def dims(self) -> tuple[int, int, int]:
        d1 = len(self.coeffs)
        d2 = len(self.coeffs[0]) if d1 else 0
        d3 = len(self.coeffs[0][0]) if d2 else 0
        return (d1, d2, d3)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(mat_add(p, q) for p, q in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(mat_sub(p, q) for p, q in zip(self.coeffs, other.coeffs))
        )

    def is_zero(self) -> bool:
        return cube_is_zero(self.coeffs)

    def first_nonzero(self):
        return first_nonzero_cube(self.coeffs)


@dataclass(frozen=True)
class BilinForm:
    """Bilinear form on V: matrix[i][j] = ω(vᵢ, vⱼ)."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __init__(self, matrix):
        object.__setattr__(self, "matrix", freeze_matrix(matrix))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def pair(self, u: Vec, v: Vec) -> Fraction:
        return sum(
            (
                u.coords[i] * self.matrix[i][j] * v.coords[j]
                for i in range(self.dim)
                for j in range(self.dim)
            ),
            ZERO,
        )

    def is_antisymmetric(self) -> bool:
        return all(
            self.matrix[i][j] == -self.matrix[j][i]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def is_nondegenerate(self) -> bool:
        return determinant(self.matrix) != 0

    def kernel_vector(self):
        """A nonzero vector v with ω(v, -) = 0, or None if nondegenerate."""
        n = self.dim
        m = [list(row) for row in transpose(self.matrix)]
        # Solve ωᵀ v = 0 by elimination; a free column yields a kernel vector.
        pivots: dict[int, int] = {}
        row = 0
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
        c0 = free[0]
        v = [ZERO] * n
        v[c0] = ONE
        for col, r in pivots.items():
            v[col] = -m[r][c0]
        return Vec(v)


@dataclass(frozen=True)
class LinMap:
    """Linear map given by its matrix: (Lv)ᵢ = Σⱼ matrix[i][j] vⱼ."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __init__(self, matrix):
        object.__setattr__(self, "matrix", freeze_matrix(matrix))

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def apply(self, v: Vec) -> Vec:
        return Vec(mat_vec(self.matrix, v.coords))

    def compose(self, other: "LinMap") -> "LinMap":
        return LinMap(mat_mul(self.matrix, other.matrix))

    def __add__(self, other: "LinMap") -> "LinMap":
        return LinMap(mat_add(self.matrix, other.matrix))

    def __sub__(self, other: "LinMap") -> "LinMap":
        return LinMap(mat_sub(self.matrix, other.matrix))

    def is_zero(self) -> bool:
        return mat_is_zero(self.matrix)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and determinant(self.matrix) != 0

    def determinant(self) -> Fraction:
        return determinant(self.matrix)


def flip(r: Tensor2) -> Tensor2:
    """τ(Σ aᵢ⊗bⱼ) = Σ bⱼ⊗aᵢ on a square tensor."""
    if r.dim_left != r.dim_right:
        raise ValueError("flip requires a square tensor")
    return Tensor2(transpose(r.coeffs))


def flip3(t: Tensor3, slots: tuple[int, int]) -> Tensor3:
    """Swap two tensor slots of a rank-3 tensor (τ⊗id, id⊗τ, or outer swap)."""
    d = t.dims
    out = [[[ZERO] * d[2] for _ in range(d[1])] for _ in range(d[0])]
    for i in range(d[0]):
        for j in range(d[1]):
            for k in range(d[2]):
                idx = [i, j, k]
                a, b = slots
                idx[a], idx[b] = idx[b], idx[a]
                out[idx[0]][idx[1]][idx[2]] = t.coeffs[i][j][k]
    return Tensor3(out)


def sharp(r: Tensor2) -> LinMap:
    """r♯ : V* → V with ⟨ξ₂, r♯(ξ₁)⟩ = ⟨ξ₁⊗ξ₂, r⟩, i.e. matrix = rᵀ."""
    if r.dim_left != r.dim_right:
        raise ValueError("sharp requires a square tensor")
    return LinMap(transpose(r.coeffs))


def dual_basis(omega: BilinForm) -> LinMap:
    """Matrix F whose j-th column is fⱼ in the eᵢ basis, with ω(eᵢ, fⱼ) = δᵢⱼ.

    Equivalently ω·F = identity.  Raises DegenerateFormError if ω is singular.
    """
    return LinMap(mat_inverse(omega.matrix))


def tensor_product_elem(u: Vec, v: Vec) -> Tensor2:
    return Tensor2(
        tuple(tuple(x * y for y in v.coords) for x in u.coords)
    )


def on_left(m, t):
    """(M⊗id) on a Tensor2 coefficient matrix."""
    return mat_mul(m, t)


def on_right(m, t):
    """(id⊗M) on a Tensor2 coefficient matrix."""
    return mat_mul(t, transpose(m))
