"""Builders for the bundled worked examples and their exact expected values.

Everything here is data: small algebras, forms, r-matrices and the expected
outcomes of the constructions applied to them.  The ``reproduce`` CLI command
and the test suite both verify the constructions against these values, so
they are written out explicitly rather than computed.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import FinAlgebra, dendriform_from_rota_baxter
from .bialgebras import CoalgStruct, QuadraticPerm, make_quadratic_perm
from .exact import ONE, ZERO, BilinForm, LinMap, Tensor2


def _cube(dim: int, entries: dict):
    """Dense dim³ cube from a sparse {(k, i, j): coeff} mapping."""
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (k, i, j), v in entries.items():
        c[k][i][j] = Fraction(v)
    return c


def _matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# --- the 2-dimensional dendriform algebra and its companions -----------------

def dendriform_pair() -> FinAlgebra:
    """2-dim dendriform algebra with e₁≻e₁ = e₁ and e₂≺e₁ = e₂ (all else 0)."""
    return FinAlgebra(
        "dendriform",
        2,
        {"lt": _cube(2, {(1, 1, 0): 1}), "gt": _cube(2, {(0, 0, 0): 1})},
    )


def dendriform_pair_coalgebra() -> CoalgStruct:
    """Dendriform coproducts θ_≻(eᵢ) = e₁⊗eᵢ, θ_≺ = 0.

    These are the coboundary coproducts of r = e₁⊗e₁ on ``dendriform_pair``;
    together they form a dendriform D-bialgebra.
    """
    return CoalgStruct(
        "dendriform",
        2,
        {"co_lt": _cube(2, {}), "co_gt": _cube(2, {(0, 0, 0): 1, (1, 0, 1): 1})},
    )


def perm_pair() -> FinAlgebra:
    """2-dim perm algebra with x₂·x₁ = x₁ and x₂·x₂ = x₂ (all else 0)."""
    return FinAlgebra("perm", 2, {"mul": _cube(2, {(0, 1, 0): 1, (1, 1, 1): 1})})


def perm_pair_quadratic() -> QuadraticPerm:
    """The perm pair with the antisymmetric invariant form ω(x₁, x₂) = 1."""
    return make_quadratic_perm(
        perm_pair(), BilinForm(((ZERO, ONE), (-ONE, ZERO)))
    )


def prelie_pair() -> FinAlgebra:
    """Expected pre-Lie algebra induced from the dendriform pair.

    e₁⋄e₁ = e₁ and e₁⋄e₂ = −e₂.
    """
    return FinAlgebra("prelie", 2, {"mul": _cube(2, {(0, 0, 0): 1, (1, 0, 1): -1})})


def prelie_pair_coalgebra() -> CoalgStruct:
    """Expected pre-Lie coproduct ϑ(e₁) = e₁⊗e₁, ϑ(e₂) = e₁⊗e₂."""
    return CoalgStruct(
        "prelie", 2, {"co": _cube(2, {(0, 0, 0): 1, (1, 0, 1): 1})}
    )


# --- r-matrices on the dendriform pair ---------------------------------------


def r_corner(alpha=1) -> Tensor2:
    """The symmetric family α·e₁⊗e₁ of dendriform Yang-Baxter solutions."""
    a = Fraction(alpha)
    return Tensor2(((a, ZERO), (ZERO, ZERO)))


def r_family(beta=1, gamma=1) -> Tensor2:
    """The symmetric family β(e₁⊗e₂ + e₂⊗e₁) + γ·e₂⊗e₂ of solutions."""
    b, g = Fraction(beta), Fraction(gamma)
    return Tensor2(((ZERO, b), (b, g)))


def r_nonsolution() -> Tensor2:
    """A symmetric tensor that does not solve the dendriform equation."""
    return Tensor2(((ONE, ZERO), (ZERO, ONE)))


# --- expected tensor-product structures on the 4-dim basis y = eᵢ⊗xⱼ ---------


def expected_tensor_assoc() -> FinAlgebra:
    """Associative products on D⊗B: y₂y₁ = y₁, y₂y₂ = y₂, y₃y₂ = y₃, y₄y₂ = y₄."""
    return FinAlgebra(
        "assoc",
        4,
        {"mul": _cube(4, {(0, 1, 0): 1, (1, 1, 1): 1, (2, 2, 1): 1, (3, 3, 1): 1})},
    )


def expected_tensor_lie() -> FinAlgebra:
    """Lie brackets on A⊗B: [y₁,y₂] = −y₁, [y₂,y₃] = −y₃, [y₂,y₄] = −y₄."""
    return FinAlgebra(
        "lie",
        4,
        {
            "bracket": _cube(
                4,
                {
                    (0, 0, 1): -1,
                    (0, 1, 0): 1,
                    (2, 1, 2): -1,
                    (2, 2, 1): 1,
                    (3, 1, 3): -1,
                    (3, 3, 1): 1,
                },
            )
        },
    )


def expected_lie_cobracket() -> CoalgStruct:
    """Induced Lie cobracket: δ(y₁) = 0, δ(yᵢ) = y₁⊗yᵢ − yᵢ⊗y₁ for i = 2, 3, 4."""
    return CoalgStruct(
        "lie",
        4,
        {
            "co": _cube(
                4,
                {
                    (1, 0, 1): 1,
                    (1, 1, 0): -1,
                    (2, 0, 2): 1,
                    (2, 2, 0): -1,
                    (3, 0, 3): 1,
                    (3, 3, 0): -1,
                },
            )
        },
    )


def expected_asi_coproduct() -> CoalgStruct:
    """Induced infinitesimal coproduct: Δ(yᵢ) = y₁⊗yᵢ for all i."""
    return CoalgStruct(
        "assoc",
        4,
        {"co": _cube(4, {(0, 0, 0): 1, (1, 0, 1): 1, (2, 0, 2): 1, (3, 0, 3): 1})},
    )


def expected_lift() -> Tensor2:
    """r̂ = y₁⊗y₂ − y₂⊗y₁ for r = e₁⊗e₁ on the quadratic perm pair."""
    m = [[ZERO] * 4 for _ in range(4)]
    m[0][1] = ONE
    m[1][0] = -ONE
    return Tensor2(m)


def expected_r_sharp() -> LinMap:
    """r♯ for r = e₁⊗e₁: sends ξ₁ ↦ e₁, ξ₂ ↦ 0."""
    return LinMap(_matrix([[1, 0], [0, 0]]))


def expected_kappa_sharp() -> LinMap:
    """κ♯ for the quadratic perm pair: η₁ ↦ x₂, η₂ ↦ −x₁."""
    return LinMap(_matrix([[0, -1], [1, 0]]))


def expected_lift_sharp() -> LinMap:
    """r̂♯ = r♯⊗κ♯ blockwise on the flattened basis."""
    return LinMap(
        _matrix(
            [
                [0, -1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ]
        )
    )


# --- the 3-dimensional truncated-polynomial fixture --------------------------

def truncated_polynomials() -> FinAlgebra:
    """Associative algebra k[t]/(t³) on the basis 1, t, t²."""
    return FinAlgebra(
        "assoc",
        3,
        {
            "mul": _cube(
                3,
                {
                    (0, 0, 0): 1,
                    (1, 0, 1): 1,
                    (1, 1, 0): 1,
                    (2, 0, 2): 1,
                    (2, 2, 0): 1,
                    (2, 1, 1): 1,
                },
            )
        },
    )


def integration_operator() -> LinMap:
    """Weight-zero Rota-Baxter operator: 1 ↦ t, t ↦ t²/2, t² ↦ 0."""
    return LinMap(_matrix([[0, 0, 0], [1, 0, 0], [0, Fraction(1, 2), 0]]))


def rota_baxter_dendriform() -> FinAlgebra:
    """Dendriform algebra split off the truncated polynomials by integration."""
    return dendriform_from_rota_baxter(truncated_polynomials(), integration_operator())
