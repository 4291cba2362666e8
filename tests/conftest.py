"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import pytest

from dendrikit import examples
from dendrikit.affinization import Mono, mono_product
from dendrikit.algebras import FinAlgebra
from dendrikit.bialgebras import CoalgStruct
from dendrikit.exact import (
    ZERO,
    BilinForm,
    LinMap,
    Tensor2,
    Vec,
    mat_inverse,
    mat_mul,
    transpose,
)


@pytest.fixture
def dend_pair():
    return examples.dendriform_pair()


@pytest.fixture
def perm_pair():
    return examples.perm_pair()


@pytest.fixture
def qperm_pair():
    return examples.perm_pair_quadratic()


@pytest.fixture
def dend_theta():
    return examples.dendriform_pair_coalgebra()


@pytest.fixture
def rb_dendriform():
    return examples.rota_baxter_dendriform()


def conjugate_algebra(alg: FinAlgebra, S) -> FinAlgebra:
    """Transport the products along the invertible basis change S.

    The new product is x ∘' y = S⁻¹(Sx ∘ Sy); an algebra of any kind stays
    an algebra of that kind under this change of basis.
    """
    n = alg.dim
    Sinv = mat_inverse(S)
    cubes = {}
    for nm in alg.products:
        cube = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                u = Vec(tuple(S[p][i] for p in range(n)))
                v = Vec(tuple(S[p][j] for p in range(n)))
                w = alg.multiply(nm, u, v)
                out = tuple(
                    sum((Sinv[k][p] * w.coords[p] for p in range(n)), ZERO)
                    for k in range(n)
                )
                for k in range(n):
                    cube[k][i][j] = out[k]
        cubes[nm] = cube
    return FinAlgebra(alg.kind, n, cubes)


def conjugate_tensor(r: Tensor2, S) -> Tensor2:
    """Transport a 2-tensor: r' = (S⁻¹⊗S⁻¹)(r)."""
    Sinv = mat_inverse(S)
    return Tensor2(mat_mul(mat_mul(Sinv, r.coeffs), transpose(Sinv)))


def conjugate_form(form: BilinForm, S) -> BilinForm:
    """Transport a bilinear form: ω'(x, y) = ω(Sx, Sy)."""
    return BilinForm(mat_mul(mat_mul(transpose(S), form.matrix), S))


def conjugate_operator(P: LinMap, S) -> LinMap:
    """Transport an operator V* → V: P' = S⁻¹ · P · S⁻ᵀ."""
    Sinv = mat_inverse(S)
    return LinMap(mat_mul(mat_mul(Sinv, P.matrix), transpose(Sinv)))


def int_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def perturb_product(D: FinAlgebra, op: str, k: int, i: int, j: int, delta) -> FinAlgebra:
    """Copy of the algebra with one structure constant shifted by ``delta``."""
    cubes = {name: [[list(row) for row in plane] for plane in cube]
             for name, cube in D.products.items()}
    cubes[op][k][i][j] += Fraction(delta)
    return FinAlgebra(D.kind, D.dim, cubes)


def perturb_coproduct(theta: CoalgStruct, name: str, i: int, j: int, k: int,
                      delta) -> CoalgStruct:
    """Copy of the coalgebra with one coproduct coefficient shifted by ``delta``."""
    cubes = {nm: [[list(row) for row in plane] for plane in cube]
             for nm, cube in theta.coproducts.items()}
    cubes[name][i][j][k] += Fraction(delta)
    return CoalgStruct(theta.kind, theta.dim, cubes)


def affine_product(D: FinAlgebra, t1, t2) -> dict:
    """(d₁⊗b₁)∗(d₂⊗b₂) = (d₁≻d₂)⊗(b₁b₂) + (d₁≺d₂)⊗(b₂b₁) as a finite sum.

    ``t1``/``t2`` are pairs (basis index of the dendriform algebra D,
    GradedPermIndex); the result maps such pairs to nonzero coefficients.  It
    reads D's cubes term by term, an oracle independent of the pattern tables
    of `dendrikit.affinization`.
    """
    (d1, b1), (d2, b2) = t1, t2
    out = defaultdict(Fraction)
    for k in range(D.dim):
        out[k, mono_product(b1, b2)] += D.products["gt"][k][d1][d2]
        out[k, mono_product(b2, b1)] += D.products["lt"][k][d1][d2]
    return {key: c for key, c in out.items() if c}


# Proof-predicted localization of the dendriform axioms inside affine
# associativity: comparing the coefficient of x₁²∂₂ in the stated ∂-triples,
# with the orientation of the finite residual relative to the associator.
ASSOC_LOCALIZATION = {
    (2, 1, 1): "dendriform_1",
    (1, 2, 1): "dendriform_2",
    (1, 1, 2): "dendriform_3",
}
ASSOC_LOCALIZATION_TARGET = Mono(2, 0, 2)
LOCALIZATION_SIGN = {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): -1}


def affine_associator(D: FinAlgebra, t1, t2, t3) -> dict:
    """The nonzero coefficients of (a₁∗a₂)∗a₃ − a₁∗(a₂∗a₃), by `affine_product`."""
    out = defaultdict(Fraction)
    for m, c in affine_product(D, t1, t2).items():
        for key, c2 in affine_product(D, m, t3).items():
            out[key] += c * c2
    for m, c in affine_product(D, t2, t3).items():
        for key, c2 in affine_product(D, t1, m).items():
            out[key] -= c * c2
    return {key: c for key, c in out.items() if c}


def ybe_residual_loop(alg: FinAlgebra, r: Tensor2) -> tuple:
    """The Yang-Baxter residual of r, nested [a][b][c], summed term by term
    over pairs of nonzero entries of r in Fractions.

    An oracle independent of the term tables of `dendrikit.ybe`: each term
    places the product of two legs in the slot the other legs leave free.
    """
    n = alg.dim
    entries = [((x, y), c) for x, row in enumerate(r.coeffs) for y, c in enumerate(row) if c]
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]

    def add(slot: int, fixed, op: str, i: int, j: int, c):
        """Add c · (the product bᵢ·bⱼ in ``slot``, basis indices elsewhere)."""
        p, q = fixed
        for k in range(n):
            x = alg.products[op][k][i][j]
            if x:
                a, b, cc = ((k, p, q), (p, k, q), (p, q, k))[slot]
                out[a][b][cc] += c * x

    for (x1, y1), c1 in entries:
        for (x2, y2), c2 in entries:
            c = c1 * c2
            if alg.kind == "lie":
                add(0, (y1, y2), "bracket", x1, x2, c)      # [r₁₂, r₁₃]
                add(2, (x1, x2), "bracket", y1, y2, c)      # [r₁₃, r₂₃]
                add(1, (x1, y2), "bracket", y1, x2, c)      # [r₁₂, r₂₃]
            elif alg.kind == "prelie":
                add(0, (y2, y1), "mul", x1, x2, c)          # + r₁₃⋄r₁₂
                add(1, (x2, y1), "mul", x1, y2, c)          # + r₂₃⋄r₁₂
                add(0, (x1, y2), "mul", y1, x2, c)          # + r₂₁⋄r₁₃
                add(2, (x2, x1), "mul", y1, y2, c)          # + r₂₃⋄r₁₃
                add(1, (y2, y1), "mul", x1, x2, -c)         # − r₂₃⋄r₂₁
                add(1, (x1, y2), "mul", y1, x2, -c)         # − r₁₂⋄r₂₃
                add(0, (x2, y1), "mul", x1, y2, -c)         # − r₁₃⋄r₂₁
                add(2, (x1, x2), "mul", y1, y2, -c)         # − r₁₃⋄r₂₃
            elif alg.kind == "assoc":
                add(0, (y1, y2), "mul", x1, x2, c)          # + r₁₂∗r₁₃
                add(2, (x1, x2), "mul", y1, y2, c)          # + r₁₃∗r₂₃
                add(1, (x2, y1), "mul", x1, y2, -c)         # − r₂₃∗r₁₂
            elif alg.kind == "dendriform":
                add(0, (y1, y2), "lt", x1, x2, c)           # + r₁₂≺r₁₃
                add(0, (y1, y2), "gt", x1, x2, c)           # + r₁₂≻r₁₃
                add(2, (x1, x2), "lt", y1, y2, -c)          # − r₁₃≺r₂₃
                add(1, (x2, y1), "gt", x1, y2, -c)          # − r₂₃≻r₁₂
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def first_nonzero(x, path=()):
    """The first nonzero scalar of nested tuples or dicts, depth first with
    dict keys in sorted order, as (index path, value), or None.

    A plain recursion into every block: the oracle for the first violation
    that a report reads off a law's integer cells.
    """
    if isinstance(x, Fraction):
        return (path, x) if x != 0 else None
    items = ((k, x[k]) for k in sorted(x)) if isinstance(x, dict) else enumerate(x)
    for i, y in items:
        hit = first_nonzero(y, path + (i,))
        if hit is not None:
            return hit
    return None
