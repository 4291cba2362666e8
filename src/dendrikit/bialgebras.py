"""Coalgebras, bialgebras and the quadratic-perm induction machinery.

A coproduct on a based space is stored as a cube ``t[i][j][k]`` = coefficient
of bⱼ⊗bₖ in the coproduct of bᵢ.  Bialgebra checks pair a FinAlgebra with a
CoalgStruct of the same kind and verify the compatibility laws exhaustively
on basis elements, reporting exact residual tensors.

The co-laws and the compatibility laws are data: ``COALGEBRA_LAWS`` and
``BIALGEBRA_LAWS`` (with the three readings of ``dbi6``) write each one as a
signed list of products of labelled structure cubes (see `exact.contract`).
Each CoalgStruct builds one `exact.IntTable` per coproduct cube in its
constructor, as a FinAlgebra does per product cube; a check reads those
tables, evaluates every law with one integer contraction over a common
denominator,
builds a Fraction only for a nonzero coefficient, and nests the result in
the same order as the residual it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import CheckReport, FinAlgebra, first_nonzero_nested, law_residuals
from .exact import (
    BilinForm,
    IntTable,
    Vec,
    ZERO,
    dual_basis,
    freeze_cube,
    mat_add,
    mat_inverse,
    mat_sub,
    transpose,
)
from .functors import (
    commutator_lie,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_index,
    tensor_lie,
)

KIND_COOPS = {
    "dendriform": ("co_lt", "co_gt"),
    "prelie": ("co",),
    "perm": ("co",),
    "assoc": ("co",),
    "lie": ("co",),
}


@dataclass(frozen=True)
class CoalgStruct:
    kind: str
    dim: int
    coproducts: dict
    tables: dict = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, dim: int, coproducts: dict):
        if kind not in KIND_COOPS:
            raise ValueError(f"unknown coalgebra kind {kind!r}")
        expected = KIND_COOPS[kind]
        if set(coproducts) != set(expected):
            raise ValueError(
                f"{kind} coalgebra needs coproducts {sorted(expected)}, "
                f"got {sorted(coproducts)}"
            )
        frozen = {name: freeze_cube(cube) for name, cube in coproducts.items()}
        for name, cube in frozen.items():
            if len(cube) != dim or any(
                len(plane) != dim or any(len(row) != dim for row in plane)
                for plane in cube
            ):
                raise ValueError(f"coproduct {name!r} cube is not {dim}^3")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coproducts", frozen)
        object.__setattr__(self, "tables", {
            name: IntTable(cube) for name, cube in frozen.items()})

    def basis_coproduct(self, name: str, i: int):
        """Coefficient matrix of the coproduct of basis element i."""
        return self.coproducts[name][i]


# Co-laws on each basis element bᵢ, nested [i][p][q][r]: the coefficient of
# b_p⊗b_q⊗b_r (co_antisymmetry: [i][p][q]).  Coproduct cubes are labelled
# θ[i][p][q]; (θ_Y⊗id)θ_X is X isr · Y spq, (id⊗θ_Y)θ_X is X ips · Y sqr,
# and τ⊗id swaps p and q.
COALGEBRA_LAWS = {
    "dendriform": {
        # (θ_≺⊗id)θ_≺ = (id⊗θ_≺)θ_≺ + (id⊗θ_≻)θ_≺
        "co_dendriform_1": ("ipqr", (
            (+1, ("co_lt", "isr"), ("co_lt", "spq")),
            (-1, ("co_lt", "ips"), ("co_lt", "sqr")),
            (-1, ("co_lt", "ips"), ("co_gt", "sqr")))),
        # (θ_≻⊗id)θ_≺ = (id⊗θ_≺)θ_≻
        "co_dendriform_2": ("ipqr", (
            (+1, ("co_lt", "isr"), ("co_gt", "spq")),
            (-1, ("co_gt", "ips"), ("co_lt", "sqr")))),
        # (id⊗θ_≻)θ_≻ = (θ_≺⊗id)θ_≻ + (θ_≻⊗id)θ_≻
        "co_dendriform_3": ("ipqr", (
            (+1, ("co_gt", "ips"), ("co_gt", "sqr")),
            (-1, ("co_gt", "isr"), ("co_lt", "spq")),
            (-1, ("co_gt", "isr"), ("co_gt", "spq")))),
    },
    "prelie": {
        # (id⊗ϑ)ϑ − (τ⊗id)(id⊗ϑ)ϑ = (ϑ⊗id)ϑ − (τ⊗id)(ϑ⊗id)ϑ
        "co_pre_lie": ("ipqr", (
            (+1, ("co", "ips"), ("co", "sqr")),
            (-1, ("co", "iqs"), ("co", "spr")),
            (-1, ("co", "isr"), ("co", "spq")),
            (+1, ("co", "isr"), ("co", "sqp")))),
    },
    "lie": {
        # τδ = −δ
        "co_antisymmetry": ("ipq", (
            (+1, ("co", "iqp")),
            (+1, ("co", "ipq")))),
        # (id⊗δ)δ − (τ⊗id)(id⊗δ)δ = (δ⊗id)δ
        "co_jacobi": ("ipqr", (
            (+1, ("co", "ips"), ("co", "sqr")),
            (-1, ("co", "iqs"), ("co", "spr")),
            (-1, ("co", "isr"), ("co", "spq")))),
    },
    "perm": {
        # (ν⊗id)ν = (id⊗ν)ν
        "co_perm_assoc": ("ipqr", (
            (+1, ("co", "isr"), ("co", "spq")),
            (-1, ("co", "ips"), ("co", "sqr")))),
        # (id⊗ν)ν = (τ⊗id)(id⊗ν)ν
        "co_perm_left_commute": ("ipqr", (
            (+1, ("co", "ips"), ("co", "sqr")),
            (-1, ("co", "iqs"), ("co", "spr")))),
    },
    "assoc": {
        # (Δ⊗id)Δ = (id⊗Δ)Δ
        "coassociativity": ("ipqr", (
            (+1, ("co", "isr"), ("co", "spq")),
            (-1, ("co", "ips"), ("co", "sqr")))),
    },
}


def check_coalgebra(coalg: CoalgStruct) -> CheckReport:
    """Verify the co-version of the defining laws on every basis element."""
    residuals = law_residuals(COALGEBRA_LAWS[coalg.kind], coalg.tables, coalg.dim)
    return CheckReport.from_residuals(f"{coalg.kind} coalgebra", residuals)


# Compatibility laws on basis pairs (x₁, x₂) = (bᵢ, bⱼ), nested [i][j][p][q]:
# the coefficient of b_p⊗b_q.  With c[k][i][j] a product cube and θ[i][p][q]
# a coproduct cube, 𝔩(x₁) and 𝔯(x₂) have the matrices c[p][i][r] and
# c[p][r][j], so
#   θ(x₁·x₂)            is  c kij · θ kpq,
#   (𝔩(x₁)⊗id)(θ(x₂))   is  c pir · θ jrq,    (id⊗𝔩(x₁))(θ(x₂))  is  θ jpr · c qir,
#   (𝔯(x₂)⊗id)(θ(x₁))   is  c prj · θ irq,    (id⊗𝔯(x₂))(θ(x₁))  is  θ ipr · c qrj,
# and τ swaps p and q.
BIALGEBRA_LAWS = {
    "lie": {
        # δ([g₁,g₂]) = (ad(g₁)⊗id + id⊗ad(g₁))(δ(g₂)) − (ad(g₂)⊗id + id⊗ad(g₂))(δ(g₁))
        "lie_cocycle": ("ijpq", (
            (+1, ("bracket", "kij"), ("co", "kpq")),
            (-1, ("bracket", "pir"), ("co", "jrq")),
            (-1, ("co", "jpr"), ("bracket", "qir")),
            (+1, ("bracket", "pjr"), ("co", "irq")),
            (+1, ("co", "ipr"), ("bracket", "qjr")))),
    },
    "prelie": {
        # (ϑ−τϑ)(a₁⋄a₂) = (𝔩(a₁)⊗id + id⊗𝔩(a₁))((ϑ−τϑ)(a₂))
        #   + (id⊗𝔯(a₂))(ϑ(a₁)) − (𝔯(a₂)⊗id)(τ(ϑ(a₁)))
        "prelie_bi_1": ("ijpq", (
            (+1, ("mul", "kij"), ("co", "kpq")),
            (-1, ("mul", "kij"), ("co", "kqp")),
            (-1, ("mul", "pir"), ("co", "jrq")),
            (+1, ("mul", "pir"), ("co", "jqr")),
            (-1, ("co", "jpr"), ("mul", "qir")),
            (+1, ("co", "jrp"), ("mul", "qir")),
            (-1, ("co", "ipr"), ("mul", "qrj")),
            (+1, ("mul", "prj"), ("co", "iqr")))),
        # ϑ([a₁,a₂]) = (id⊗(𝔯(a₂)−𝔩(a₂)))(ϑ(a₁)) + (id⊗(𝔩(a₁)−𝔯(a₁)))(ϑ(a₂))
        #   + (𝔩(a₁)⊗id)(ϑ(a₂)) − (𝔩(a₂)⊗id)(ϑ(a₁))
        "prelie_bi_2": ("ijpq", (
            (+1, ("mul", "kij"), ("co", "kpq")),
            (-1, ("mul", "kji"), ("co", "kpq")),
            (-1, ("co", "ipr"), ("mul", "qrj")),
            (+1, ("co", "ipr"), ("mul", "qjr")),
            (-1, ("co", "jpr"), ("mul", "qir")),
            (+1, ("co", "jpr"), ("mul", "qri")),
            (-1, ("mul", "pir"), ("co", "jrq")),
            (+1, ("mul", "pjr"), ("co", "irq")))),
    },
    "assoc": {
        # Δ(a₁∗a₂) = (𝔯(a₂)⊗id)(Δ(a₁)) + (id⊗𝔩(a₁))(Δ(a₂))
        "asi_bi_1": ("ijpq", (
            (+1, ("mul", "kij"), ("co", "kpq")),
            (-1, ("mul", "prj"), ("co", "irq")),
            (-1, ("co", "jpr"), ("mul", "qir")))),
        # (𝔩(a₁)⊗id − id⊗𝔯(a₁))(Δ(a₂)) = τ((id⊗𝔯(a₂) − 𝔩(a₂)⊗id)(Δ(a₁)))
        "asi_bi_2": ("ijpq", (
            (+1, ("mul", "pir"), ("co", "jrq")),
            (-1, ("co", "jpr"), ("mul", "qri")),
            (-1, ("co", "iqr"), ("mul", "prj")),
            (+1, ("mul", "qjr"), ("co", "irp")))),
    },
    # dbi6 is in DBI6_READINGS
    "dendriform": {
        # θ_≺(d₁∗d₂) = (id⊗𝔩_≻(d₁))(θ_≺(d₂)) + ((𝔯_≺+𝔯_≻)(d₂)⊗id)(θ_≺(d₁))
        "dbi1": ("ijpq", (
            (+1, ("lt", "kij"), ("co_lt", "kpq")),
            (+1, ("gt", "kij"), ("co_lt", "kpq")),
            (-1, ("co_lt", "jpr"), ("gt", "qir")),
            (-1, ("lt", "prj"), ("co_lt", "irq")),
            (-1, ("gt", "prj"), ("co_lt", "irq")))),
        # θ_≻(d₁∗d₂) = (id⊗(𝔩_≺+𝔩_≻)(d₁))(θ_≻(d₂)) + (𝔯_≺(d₂)⊗id)(θ_≻(d₁))
        "dbi2": ("ijpq", (
            (+1, ("lt", "kij"), ("co_gt", "kpq")),
            (+1, ("gt", "kij"), ("co_gt", "kpq")),
            (-1, ("co_gt", "jpr"), ("lt", "qir")),
            (-1, ("co_gt", "jpr"), ("gt", "qir")),
            (-1, ("lt", "prj"), ("co_gt", "irq")))),
        # (θ_≺+θ_≻)(d₁≺d₂) = (id⊗𝔩_≺(d₁))(θ_≻(d₂))
        #   + (𝔯_≺(d₂)⊗id)((θ_≺+θ_≻)(d₁))
        "dbi3": ("ijpq", (
            (+1, ("lt", "kij"), ("co_lt", "kpq")),
            (+1, ("lt", "kij"), ("co_gt", "kpq")),
            (-1, ("co_gt", "jpr"), ("lt", "qir")),
            (-1, ("lt", "prj"), ("co_lt", "irq")),
            (-1, ("lt", "prj"), ("co_gt", "irq")))),
        # (θ_≺+θ_≻)(d₁≻d₂) = (id⊗𝔩_≻(d₁))((θ_≺+θ_≻)(d₂))
        #   + (𝔯_≻(d₂)⊗id)(θ_≺(d₁))
        # (the ≻-mirror of the third condition; the ≺-operator variant
        # rejects valid triangular bialgebras)
        "dbi4": ("ijpq", (
            (+1, ("gt", "kij"), ("co_lt", "kpq")),
            (+1, ("gt", "kij"), ("co_gt", "kpq")),
            (-1, ("co_lt", "jpr"), ("gt", "qir")),
            (-1, ("co_gt", "jpr"), ("gt", "qir")),
            (-1, ("gt", "prj"), ("co_lt", "irq")))),
        # ((𝔩_≺+𝔩_≻)(d₁)⊗id − id⊗𝔯_≺(d₁))(θ_≺(d₂))
        #   = −τ((𝔩_≻(d₂)⊗id − id⊗(𝔯_≺+𝔯_≻)(d₂))(θ_≻(d₁)))
        "dbi5": ("ijpq", (
            (+1, ("lt", "pir"), ("co_lt", "jrq")),
            (+1, ("gt", "pir"), ("co_lt", "jrq")),
            (-1, ("co_lt", "jpr"), ("lt", "qri")),
            (+1, ("gt", "qjr"), ("co_gt", "irp")),
            (-1, ("co_gt", "iqr"), ("lt", "prj")),
            (-1, ("co_gt", "iqr"), ("gt", "prj")))),
    },
}

# (𝔩_≻(d₂)⊗id − id⊗𝔯_≺(d₂))((θ_≺+θ_≻)(d₁))
#   = τ((id⊗𝔯_≻(·))(θ_≻(·')) − (𝔩_≺(·)⊗id)(θ_≺(·')))
# with (·,·') = (d₁,d₂) for the default "corrected" reading, (d₂,d₁) for
# "symmetric" and (d₂,d₂) for "literal"; the readings differ only in the
# last two terms.  Only the corrected reading makes the pair {fifth, sixth}
# equivalent to the second completed compatibility law.
DBI6_READINGS = {
    "corrected": ("ijpq", (
        (+1, ("gt", "pjr"), ("co_lt", "irq")),
        (+1, ("gt", "pjr"), ("co_gt", "irq")),
        (-1, ("co_lt", "ipr"), ("lt", "qrj")),
        (-1, ("co_gt", "ipr"), ("lt", "qrj")),
        (-1, ("co_gt", "jqr"), ("gt", "pri")),
        (+1, ("lt", "qir"), ("co_lt", "jrp")))),
    "symmetric": ("ijpq", (
        (+1, ("gt", "pjr"), ("co_lt", "irq")),
        (+1, ("gt", "pjr"), ("co_gt", "irq")),
        (-1, ("co_lt", "ipr"), ("lt", "qrj")),
        (-1, ("co_gt", "ipr"), ("lt", "qrj")),
        (-1, ("co_gt", "iqr"), ("gt", "prj")),
        (+1, ("lt", "qjr"), ("co_lt", "irp")))),
    "literal": ("ijpq", (
        (+1, ("gt", "pjr"), ("co_lt", "irq")),
        (+1, ("gt", "pjr"), ("co_gt", "irq")),
        (-1, ("co_lt", "ipr"), ("lt", "qrj")),
        (-1, ("co_gt", "ipr"), ("lt", "qrj")),
        (-1, ("co_gt", "jqr"), ("gt", "prj")),
        (+1, ("lt", "qjr"), ("co_lt", "jrp")))),
}


def check_bialgebra(
    alg: FinAlgebra, coalg: CoalgStruct, dbi6_reading: str = "corrected"
) -> CheckReport:
    """Verify the product/coproduct compatibility laws on all basis pairs.

    For dendriform bialgebras there are six labelled conditions ``dbi1`` ..
    ``dbi6``.  The sixth is implemented in three readings that differ in
    which argument feeds the right-hand operators and coproducts:
    ``"corrected"`` (the default; together with the fifth condition it is
    exactly equivalent to the completed compatibility laws on the
    affinization), ``"symmetric"`` and ``"literal"``.  The reading used is
    recorded in the report subject.
    """
    if alg.kind != coalg.kind or alg.dim != coalg.dim:
        raise ValueError("algebra and coalgebra must share kind and dimension")
    if alg.kind not in BIALGEBRA_LAWS:
        raise ValueError(f"no bialgebra notion for kind {alg.kind!r}")
    laws = BIALGEBRA_LAWS[alg.kind]
    subject = f"{alg.kind} bialgebra"
    if alg.kind == "dendriform":
        if dbi6_reading not in DBI6_READINGS:
            raise ValueError(
                "dbi6_reading must be 'corrected', 'symmetric' or 'literal'"
            )
        laws = {**laws, "dbi6": DBI6_READINGS[dbi6_reading]}
        subject = f"dendriform bialgebra (dbi6 reading: {dbi6_reading})"
    residuals = law_residuals(laws, {**alg.tables, **coalg.tables}, alg.dim)
    return CheckReport.from_residuals(subject, residuals)


@dataclass(frozen=True)
class QuadraticPerm:
    """A perm algebra with an antisymmetric, invariant, nondegenerate form."""

    algebra: FinAlgebra
    form: BilinForm


# The form ω is labelled w[i][j] = ω(bᵢ, bⱼ) and the perm product c[k][i][j].
QUADRATIC_LAWS = {
    # ω(bᵢbⱼ, bₖ) = ω(bᵢ, bⱼbₖ − bₖbⱼ), nested [i][j][k]
    "invariance": ("ijk", (
        (+1, ("mul", "mij"), ("w", "mk")),
        (-1, ("w", "im"), ("mul", "mjk")),
        (+1, ("w", "im"), ("mul", "mkj")))),
}

# ν(bᵢ) = Σ F·R_bᵢ·Fᵀ with R_bᵢ[j][k] = ω(bᵢ, bⱼbₖ) and F = (ωᵀ)⁻¹, nested
# [i][p][q]: the coefficient of b_p⊗b_q.
NU_COPRODUCT = {
    "co": ("ipq", ((+1, ("w", "im"), ("mul", "mjk"), ("F", "pj"), ("F", "qk")),)),
}


def make_quadratic_perm(algebra: FinAlgebra, form: BilinForm) -> QuadraticPerm:
    """Validate and build a quadratic perm algebra, with witnesses on failure.

    Requires ω antisymmetric, nondegenerate, and invariant in the sense
    ω(b₁b₂, b₃) = ω(b₁, b₂b₃ − b₃b₂).
    """
    if algebra.kind != "perm":
        raise ValueError("quadratic structure needs a perm algebra")
    if form.dim != algebra.dim:
        raise ValueError("form dimension does not match the algebra")
    if not form.is_antisymmetric():
        bad = next(
            (i, j)
            for i in range(form.dim)
            for j in range(form.dim)
            if form.matrix[i][j] != -form.matrix[j][i]
        )
        raise ValueError(f"form is not antisymmetric: fails at entry {bad}")
    kv = form.kernel_vector()
    if kv is not None:
        raise ValueError(
            f"form is degenerate: kernel vector with coordinates {kv.coords}"
        )
    tables = {"mul": algebra.tables["mul"], "w": IntTable(form.matrix)}
    hit = first_nonzero_nested(
        law_residuals(QUADRATIC_LAWS, tables, algebra.dim)["invariance"])
    if hit is not None:
        i, j, k = hit[0]
        raise ValueError(f"form is not invariant: fails on basis triple ({i}, {j}, {k})")
    return QuadraticPerm(algebra, form)


def perm_coalgebra_from_quadratic(qp: QuadraticPerm) -> CoalgStruct:
    """The perm coproduct ν defined by ω-duality.

    ν(b) is determined by ⟨ν(b), b₂⊗b₃⟩ = ω(b, b₂b₃), where the pairing of
    2-tensors is the product of the pairwise form values.  Equivalently
    ν(b) = Σⱼ eⱼ⊗(fⱼ·b) for a dual basis with ω(eᵢ, fⱼ) = δᵢⱼ; this is the
    normalization under which the induced Lie/ASI coproducts of triangular
    structures coincide with the coboundary coproducts of the lifted
    r-matrix.  Writing W for the form matrix, the coefficient matrix of
    ν(b) is N_b = (Wᵀ)⁻¹·R_b·W⁻¹ with R_b[j][k] = ω(b, bⱼbₖ).
    """
    alg, form = qp.algebra, qp.form
    tables = {"mul": alg.tables["mul"], "w": IntTable(form.matrix),
              "F": IntTable(mat_inverse(transpose(form.matrix)))}
    return CoalgStruct("perm", alg.dim, law_residuals(NU_COPRODUCT, tables, alg.dim))


def dual_basis_vectors(qp: QuadraticPerm) -> list[Vec]:
    """Vectors fⱼ with ω(eᵢ, fⱼ) = δᵢⱼ."""
    F = dual_basis(qp.form).matrix
    return [Vec(tuple(F[i][j] for i in range(qp.algebra.dim))) for j in range(qp.algebra.dim)]


def check_quadratic_perm_identities(qp: QuadraticPerm) -> CheckReport:
    """Structural identities tying ν, the products and the dual basis.

    With ν(b) = Σ b₍₁₎⊗b₍₂₎ and dual basis pairs (eⱼ, fⱼ) (ω(eᵢ, fⱼ) = δᵢⱼ):
      (i)   Σ b₍₁₎⊗b₍₂₎ = Σⱼ eⱼ⊗(fⱼb)
      (ii)  Σ b₍₂₎⊗b₍₁₎ = −Σⱼ (eⱼb)⊗fⱼ
      (iii) Σⱼ (beⱼ)⊗fⱼ = Σⱼ eⱼ⊗(bfⱼ) = Σ(b₍₁₎⊗b₍₂₎ − b₍₂₎⊗b₍₁₎)
      (iv)  Σⱼ eⱼ⊗fⱼ = −Σⱼ fⱼ⊗eⱼ
    """
    alg = qp.algebra
    n = alg.dim
    nu = perm_coalgebra_from_quadratic(qp)
    fs = dual_basis_vectors(qp)
    es = [alg.basis(j) for j in range(n)]
    mul = lambda x, y: alg.multiply("mul", x, y)

    def outer_sum(pairs):
        acc = [[ZERO] * n for _ in range(n)]
        for u, v in pairs:
            for p in range(n):
                for q in range(n):
                    acc[p][q] += u.coords[p] * v.coords[q]
        return tuple(tuple(row) for row in acc)

    res_i, res_ii, res_iii_a, res_iii_b = [], [], [], []
    for b_idx in range(n):
        b = alg.basis(b_idx)
        nub = nu.basis_coproduct("co", b_idx)
        rhs_i = outer_sum((es[j], mul(fs[j], b)) for j in range(n))
        res_i.append(mat_sub(nub, rhs_i))
        # ν(b)ᵀ − (−Σⱼ (eⱼb)⊗fⱼ)
        res_ii.append(mat_add(transpose(nub), outer_sum((mul(es[j], b), fs[j]) for j in range(n))))
        anti = mat_sub(nub, transpose(nub))
        res_iii_a.append(
            mat_sub(outer_sum((mul(b, es[j]), fs[j]) for j in range(n)), anti)
        )
        res_iii_b.append(
            mat_sub(outer_sum((es[j], mul(b, fs[j])) for j in range(n)), anti)
        )
    can = outer_sum((es[j], fs[j]) for j in range(n))
    res_iv = mat_add(can, transpose(can))
    residuals = {
        "nu_left_expansion": tuple(res_i),
        "nu_right_expansion": tuple(res_ii),
        "mixed_expansion_left": tuple(res_iii_a),
        "mixed_expansion_right": tuple(res_iii_b),
        "canonical_antisymmetry": res_iv,
    }
    return CheckReport.from_residuals("quadratic perm identities", residuals)


def bullet(ta, tb, dim_a: int, dim_b: int):
    """(Σ a'⊗a'') • (Σ b'⊗b'') = Σ (a'⊗b')⊗(a''⊗b'') on flattened indices."""
    n = dim_a * dim_b
    out = [[ZERO] * n for _ in range(n)]
    for a1 in range(dim_a):
        for a2 in range(dim_a):
            c = ta[a1][a2]
            if c != 0:
                for b1 in range(dim_b):
                    for b2 in range(dim_b):
                        out[tensor_index(dim_b, a1, b1)][
                            tensor_index(dim_b, a2, b2)
                        ] += c * tb[b1][b2]
    return tuple(tuple(row) for row in out)


def induce_lie_bialgebra(
    prelie: FinAlgebra, theta: CoalgStruct, qp: QuadraticPerm
) -> tuple[FinAlgebra, CoalgStruct]:
    """Lie bialgebra on A⊗B: δ(a⊗b) = (id − τ)(ϑ(a) • ν(b))."""
    if prelie.kind != "prelie" or theta.kind != "prelie":
        raise ValueError("expected a pre-Lie algebra with a pre-Lie coproduct")
    nu = perm_coalgebra_from_quadratic(qp)
    na, nb = prelie.dim, qp.algebra.dim
    lie = tensor_lie(prelie, qp.algebra)
    n = na * nb
    cube = []
    for a in range(na):
        for b in range(nb):
            t = bullet(theta.basis_coproduct("co", a), nu.basis_coproduct("co", b), na, nb)
            cube.append(mat_sub(t, transpose(t)))
    # reorder: flattened basis index is a*nb + b, which matches the fill order
    return lie, CoalgStruct("lie", n, {"co": tuple(cube)})


def induce_asi_bialgebra(
    dend: FinAlgebra, theta: CoalgStruct, qp: QuadraticPerm
) -> tuple[FinAlgebra, CoalgStruct]:
    """ASI bialgebra on D⊗B: Δ(d⊗b) = θ_≻(d) • ν(b) + θ_≺(d) • τ(ν(b))."""
    if dend.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    nu = perm_coalgebra_from_quadratic(qp)
    nd, nb = dend.dim, qp.algebra.dim
    assoc = tensor_assoc(dend, qp.algebra)
    cube = []
    for d in range(nd):
        for b in range(nb):
            nub = nu.basis_coproduct("co", b)
            t = mat_add(
                bullet(theta.basis_coproduct("co_gt", d), nub, nd, nb),
                bullet(theta.basis_coproduct("co_lt", d), transpose(nub), nd, nb),
            )
            cube.append(t)
    return assoc, CoalgStruct("assoc", nd * nb, {"co": tuple(cube)})


def asi_to_lie_bialgebra(
    assoc: FinAlgebra, delta: CoalgStruct
) -> tuple[FinAlgebra, CoalgStruct]:
    """Commutator Lie algebra with cocommutator δ = Δ − τΔ."""
    if assoc.kind != "assoc" or delta.kind != "assoc":
        raise ValueError("expected an associative algebra with a coproduct")
    cube = tuple(
        mat_sub(m, transpose(m)) for m in delta.coproducts["co"]
    )
    return commutator_lie(assoc), CoalgStruct("lie", assoc.dim, {"co": cube})


def dendriform_to_prelie_bialgebra(
    dend: FinAlgebra, theta: CoalgStruct
) -> tuple[FinAlgebra, CoalgStruct]:
    """Pre-Lie bialgebra with coproduct ϑ = θ_≻ − τθ_≺."""
    if dend.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    cube = tuple(
        mat_sub(g, transpose(l))
        for g, l in zip(theta.coproducts["co_gt"], theta.coproducts["co_lt"])
    )
    return dendriform_to_prelie(dend), CoalgStruct("prelie", dend.dim, {"co": cube})


def check_bialgebra_square(
    dend: FinAlgebra, theta: CoalgStruct, qp: QuadraticPerm
) -> CheckReport:
    """Both routes from a dendriform D-bialgebra to a Lie bialgebra agree.

    Route 1: induce the ASI bialgebra on D⊗B, then take commutators.
    Route 2: pass to the pre-Lie bialgebra, then induce the Lie bialgebra.
    """
    asi_alg, asi_co = induce_asi_bialgebra(dend, theta, qp)
    lie1, co1 = asi_to_lie_bialgebra(asi_alg, asi_co)
    pl_alg, pl_co = dendriform_to_prelie_bialgebra(dend, theta)
    lie2, co2 = induce_lie_bialgebra(pl_alg, pl_co, qp)
    residuals = {
        "bracket_agree": tuple(
            mat_sub(p, q) for p, q in zip(lie1.products["bracket"], lie2.products["bracket"])
        ),
        "cobracket_agree": tuple(
            mat_sub(p, q) for p, q in zip(co1.coproducts["co"], co2.coproducts["co"])
        ),
    }
    return CheckReport.from_residuals("bialgebra commuting square", residuals)
