"""Coalgebras, bialgebras and the quadratic-perm induction machinery.

A coproduct on a based space is stored as a cube ``t[i][j][k]`` = coefficient
of bⱼ⊗bₖ in the coproduct of bᵢ.  Bialgebra checks pair a FinAlgebra with a
CoalgStruct of the same kind and verify the compatibility laws exhaustively
on basis elements, reporting exact residual tensors.

The co-laws and the compatibility laws are data: ``COALGEBRA_LAWS`` (perm
and associative coassociativity are one law) and ``BIALGEBRA_LAWS`` (the
three readings of ``dbi6`` share four terms) write each one as a signed list
of products of labelled structure cubes (see `exact.contract`).  So are the
quadratic perm structure (``QUADRATIC_LAWS``, ``NU_COPRODUCT``,
``QUADRATIC_PERM_IDENTITIES``), the coproducts of the induced and derived
bialgebras (``COPRODUCT_CONSTRUCTIONS``, on the flattened tensor-product
basis) and the bialgebra square (``BIALGEBRA_SQUARE_LAWS``).
A CoalgStruct stores one `exact.IntTable` per coproduct cube, as a
FinAlgebra does per product cube, and its ``coproducts`` are a view on them
built on first read (`algebras.Nested`).  Its constructor reads the tables
from nested cubes; a coproduct constructed here (ν, the induced and derived
coproducts) reads them straight from the integers of the contraction
(`algebras._structure`), and `io` from the entries of a file.  A check reads
those tables, evaluates every law with one integer contraction over a
common denominator, finds each law's first violation on the integer cells,
builds a Fraction only for a nonzero coefficient, and nests the result in
the same order as the residual it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebras import (CheckReport, FinAlgebra, _cube_tables, _fill, _structure, law_residuals,
                       symmetry_violation)
from .exact import BilinForm, IntTable, LinMap, dual_basis
from .functors import (
    commutator_lie,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_extents,
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
    """``coproducts[name]`` is the cube t[i][j][k] of the named coproduct, a
    view built on first read from ``tables[name]``."""

    kind: str
    dim: int
    coproducts: dict
    tables: dict = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, dim: int, coproducts: dict):
        if kind not in KIND_COOPS:
            raise ValueError(f"unknown coalgebra kind {kind!r}")
        shape = (dim, dim, dim)
        tables = _cube_tables(coproducts, KIND_COOPS[kind], f"{kind} coalgebra needs coproducts",
                              shape, lambda name, _depth: f"coproduct {name!r} cube is not {dim}^3")
        _fill(self, kind, dim, tables, shape)


# Co-laws on each basis element bᵢ, nested [i][p][q][r]: the coefficient of
# b_p⊗b_q⊗b_r (co_antisymmetry: [i][p][q]).  Coproduct cubes are labelled
# θ[i][p][q]; (θ_Y⊗id)θ_X is X isr · Y spq, (id⊗θ_Y)θ_X is X ips · Y sqr,
# and τ⊗id swaps p and q.

# (Δ⊗id)Δ = (id⊗Δ)Δ, the coassociativity of a perm or an associative coproduct
_COASSOCIATIVITY = ("ipqr", (
    (+1, ("co", "isr"), ("co", "spq")),
    (-1, ("co", "ips"), ("co", "sqr"))))

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
        "co_perm_assoc": _COASSOCIATIVITY,
        # (id⊗ν)ν = (τ⊗id)(id⊗ν)ν
        "co_perm_left_commute": ("ipqr", (
            (+1, ("co", "ips"), ("co", "sqr")),
            (-1, ("co", "iqs"), ("co", "spr")))),
    },
    "assoc": {
        # (Δ⊗id)Δ = (id⊗Δ)Δ
        "coassociativity": _COASSOCIATIVITY,
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
# equivalent to the second completed compatibility law.  The literal
# reading's last two terms do not read d₁: they carry its label on ones.
_DBI6_LEFT = (
    (+1, ("gt", "pjr"), ("co_lt", "irq")),
    (+1, ("gt", "pjr"), ("co_gt", "irq")),
    (-1, ("co_lt", "ipr"), ("lt", "qrj")),
    (-1, ("co_gt", "ipr"), ("lt", "qrj")))
DBI6_READINGS = {
    "corrected": ("ijpq", _DBI6_LEFT + (
        (-1, ("co_gt", "jqr"), ("gt", "pri")),
        (+1, ("lt", "qir"), ("co_lt", "jrp")))),
    "symmetric": ("ijpq", _DBI6_LEFT + (
        (-1, ("co_gt", "iqr"), ("gt", "prj")),
        (+1, ("lt", "qjr"), ("co_lt", "irp")))),
    "literal": ("ijpq", _DBI6_LEFT + (
        (-1, ("co_gt", "jqr"), ("gt", "prj"), ("one", "i")),
        (+1, ("lt", "qjr"), ("co_lt", "jrp"), ("one", "i")))),
}


@lru_cache(maxsize=None)
def _ones(n: int) -> IntTable:
    """n ones, kept per n (at most ``io.MAX_DIM``) with their groupings."""
    return IntTable(entries=[((i,), 1) for i in range(n)], size=n)


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
    tables = {**alg.tables, **coalg.tables}
    if alg.kind == "dendriform":
        if dbi6_reading not in DBI6_READINGS:
            raise ValueError(
                "dbi6_reading must be 'corrected', 'symmetric' or 'literal'"
            )
        laws = {**laws, "dbi6": DBI6_READINGS[dbi6_reading]}
        subject = f"dendriform bialgebra (dbi6 reading: {dbi6_reading})"
        tables["one"] = _ones(alg.dim)
    residuals = law_residuals(laws, tables, alg.dim)
    return CheckReport.from_residuals(subject, residuals)


@dataclass(frozen=True)
class QuadraticPerm:
    """A perm algebra with an antisymmetric, invariant, nondegenerate form.

    The dual basis F = ω⁻¹ (`exact.dual_basis`: column j is fⱼ) and the perm
    coproduct ν defined by ω-duality are built once, in the constructor, in
    derived fields that equality and repr do not read.

    ν(b) is determined by ⟨ν(b), b₂⊗b₃⟩ = ω(b, b₂b₃), where the pairing of
    2-tensors is the product of the pairwise form values.  Equivalently
    ν(b) = Σⱼ eⱼ⊗(fⱼ·b) for a dual basis with ω(eᵢ, fⱼ) = δᵢⱼ; this is the
    normalization under which the induced Lie/ASI coproducts of triangular
    structures coincide with the coboundary coproducts of the lifted
    r-matrix.  Writing W for the form matrix, the coefficient matrix of
    ν(b) is N_b = (Wᵀ)⁻¹·R_b·W⁻¹ with R_b[j][k] = ω(b, bⱼbₖ) (`NU_COPRODUCT`).
    """

    algebra: FinAlgebra
    form: BilinForm
    dual: LinMap = field(init=False, repr=False, compare=False)
    nu: CoalgStruct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        F = dual_basis(self.form)
        n = self.algebra.dim
        tables = {"mul": self.algebra.tables["mul"], "w": self.form.table, "F": F.table}
        object.__setattr__(self, "dual", F)
        object.__setattr__(self, "nu", _structure(CoalgStruct, "perm", n, NU_COPRODUCT,
                                                  tables, n))


# The form ω is labelled w[i][j] = ω(bᵢ, bⱼ) and the perm product c[k][i][j].
QUADRATIC_LAWS = {
    # ω(bᵢbⱼ, bₖ) = ω(bᵢ, bⱼbₖ − bₖbⱼ), nested [i][j][k]
    "invariance": ("ijk", (
        (+1, ("mul", "mij"), ("w", "mk")),
        (-1, ("w", "im"), ("mul", "mjk")),
        (+1, ("w", "im"), ("mul", "mkj")))),
}

# ν(bᵢ) = Fᵀ·R_bᵢ·F with R_bᵢ[j][k] = ω(bᵢ, bⱼbₖ) and F = ω⁻¹ the dual basis
# (`exact.dual_basis`: column j is fⱼ), nested [i][p][q]: the coefficient of
# b_p⊗b_q.
NU_COPRODUCT = {
    "co": ("ipq", ((+1, ("w", "im"), ("mul", "mjk"), ("F", "jp"), ("F", "kq")),)),
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
    bad = symmetry_violation("skew-symmetric", form.table, form.dim)
    if bad is not None:
        raise ValueError(f"form is not antisymmetric: fails at entry {bad[0]}")
    kv = form.kernel_vector()
    if kv is not None:
        raise ValueError(
            f"form is degenerate: kernel vector with coordinates {kv.coords}"
        )
    tables = {"mul": algebra.tables["mul"], "w": form.table}
    hit = law_residuals(QUADRATIC_LAWS, tables, algebra.dim).violations["invariance"]
    if hit is not None:
        i, j, k = hit[0]
        raise ValueError(f"form is not invariant: fails on basis triple ({i}, {j}, {k})")
    return QuadraticPerm(algebra, form)


# The identities of `check_quadratic_perm_identities`, over ν (labelled
# nu[b][p][q]), the perm product c[k][i][j] and the dual basis F[x][j]
# (coordinate x of fⱼ); eⱼ = bⱼ.  Nested [b][p][q], the coefficient of
# b_p⊗b_q; canonical_antisymmetry is nested [p][q].
QUADRATIC_PERM_IDENTITIES = {
    # ν(b) = Σⱼ eⱼ⊗(fⱼb)
    "nu_left_expansion": ("bpq", ((+1, ("nu", "bpq")), (-1, ("F", "xp"), ("mul", "qxb")))),
    # τ(ν(b)) = −Σⱼ (eⱼb)⊗fⱼ
    "nu_right_expansion": ("bpq", ((+1, ("nu", "bqp")), (+1, ("mul", "pjb"), ("F", "qj")))),
    # Σⱼ (beⱼ)⊗fⱼ = ν(b) − τ(ν(b))
    "mixed_expansion_left": ("bpq", (
        (+1, ("mul", "pbj"), ("F", "qj")),
        (-1, ("nu", "bpq")),
        (+1, ("nu", "bqp")))),
    # Σⱼ eⱼ⊗(bfⱼ) = ν(b) − τ(ν(b))
    "mixed_expansion_right": ("bpq", (
        (+1, ("F", "xp"), ("mul", "qbx")),
        (-1, ("nu", "bpq")),
        (+1, ("nu", "bqp")))),
    # Σⱼ eⱼ⊗fⱼ = −Σⱼ fⱼ⊗eⱼ
    "canonical_antisymmetry": ("pq", ((+1, ("F", "qp")), (+1, ("F", "pq")))),
}


def check_quadratic_perm_identities(qp: QuadraticPerm) -> CheckReport:
    """Structural identities tying ν, the products and the dual basis.

    With ν(b) = Σ b₍₁₎⊗b₍₂₎ and dual basis pairs (eⱼ, fⱼ) (ω(eᵢ, fⱼ) = δᵢⱼ):
      (i)   Σ b₍₁₎⊗b₍₂₎ = Σⱼ eⱼ⊗(fⱼb)
      (ii)  Σ b₍₂₎⊗b₍₁₎ = −Σⱼ (eⱼb)⊗fⱼ
      (iii) Σⱼ (beⱼ)⊗fⱼ = Σⱼ eⱼ⊗(bfⱼ) = Σ(b₍₁₎⊗b₍₂₎ − b₍₂₎⊗b₍₁₎)
      (iv)  Σⱼ eⱼ⊗fⱼ = −Σⱼ fⱼ⊗eⱼ
    """
    tables = {"mul": qp.algebra.tables["mul"], "nu": qp.nu.tables["co"],
              "F": qp.dual.table}
    residuals = law_residuals(QUADRATIC_PERM_IDENTITIES, tables, qp.algebra.dim)
    return CheckReport.from_residuals("quadratic perm identities", residuals)


# The coproducts of the bialgebra constructions, nested [i][p][q] like a
# coproduct cube; τ swaps p and q.  On D⊗B (or A⊗B) the labels of B are upper
# case, so "iIpPqQ" is the cube on the flattened basis i·dim(B) + I, and a
# product of a factor over i, p, q by ν over I, P, Q is the • of their
# coefficient matrices: (Σ a'⊗a'')•(Σ b'⊗b'') = Σ (a'⊗b')⊗(a''⊗b'').
COPRODUCT_CONSTRUCTIONS = {
    # Δ(d⊗b) = θ_≻(d)•ν(b) + θ_≺(d)•τ(ν(b))
    "induce_asi": ("iIpPqQ", (
        (+1, ("co_gt", "ipq"), ("nu", "IPQ")),
        (+1, ("co_lt", "ipq"), ("nu", "IQP")))),
    # δ(a⊗b) = (id − τ)(ϑ(a)•ν(b))
    "induce_lie": ("iIpPqQ", (
        (+1, ("co", "ipq"), ("nu", "IPQ")),
        (-1, ("co", "iqp"), ("nu", "IQP")))),
    # δ = Δ − τΔ
    "asi_to_lie": ("ipq", ((+1, ("co", "ipq")), (-1, ("co", "iqp")))),
    # ϑ = θ_≻ − τθ_≺
    "dendriform_to_prelie": ("ipq", ((+1, ("co_gt", "ipq")), (-1, ("co_lt", "iqp")))),
}


def _coconstruct(name: str, kind: str, tables: dict, n: int, extents) -> CoalgStruct:
    """The ``kind`` coalgebra of dimension ``n`` whose coproduct is the
    construction ``name`` evaluated on ``tables`` (`exact.IntTable` each)."""
    return _structure(CoalgStruct, kind, n, {"co": COPRODUCT_CONSTRUCTIONS[name]}, tables,
                      extents)


def induce_lie_bialgebra(
    prelie: FinAlgebra, theta: CoalgStruct, qp: QuadraticPerm
) -> tuple[FinAlgebra, CoalgStruct]:
    """Lie bialgebra on A⊗B: δ(a⊗b) = (id − τ)(ϑ(a) • ν(b))."""
    if prelie.kind != "prelie" or theta.kind != "prelie":
        raise ValueError("expected a pre-Lie algebra with a pre-Lie coproduct")
    na, nb = prelie.dim, qp.algebra.dim
    tables = {"co": theta.tables["co"], "nu": qp.nu.tables["co"]}
    cobracket = _coconstruct("induce_lie", "lie", tables, na * nb,
                             tensor_extents("iIpPqQ", na, nb))
    return tensor_lie(prelie, qp.algebra), cobracket


def induce_asi_bialgebra(
    dend: FinAlgebra, theta: CoalgStruct, qp: QuadraticPerm
) -> tuple[FinAlgebra, CoalgStruct]:
    """ASI bialgebra on D⊗B: Δ(d⊗b) = θ_≻(d) • ν(b) + θ_≺(d) • τ(ν(b))."""
    if dend.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    nd, nb = dend.dim, qp.algebra.dim
    tables = {**theta.tables, "nu": qp.nu.tables["co"]}
    coproduct = _coconstruct("induce_asi", "assoc", tables, nd * nb,
                             tensor_extents("iIpPqQ", nd, nb))
    return tensor_assoc(dend, qp.algebra), coproduct


def asi_to_lie_bialgebra(
    assoc: FinAlgebra, delta: CoalgStruct
) -> tuple[FinAlgebra, CoalgStruct]:
    """Commutator Lie algebra with cocommutator δ = Δ − τΔ."""
    if assoc.kind != "assoc" or delta.kind != "assoc":
        raise ValueError("expected an associative algebra with a coproduct")
    cobracket = _coconstruct("asi_to_lie", "lie", delta.tables, assoc.dim, assoc.dim)
    return commutator_lie(assoc), cobracket


def dendriform_to_prelie_bialgebra(
    dend: FinAlgebra, theta: CoalgStruct
) -> tuple[FinAlgebra, CoalgStruct]:
    """Pre-Lie bialgebra with coproduct ϑ = θ_≻ − τθ_≺."""
    if dend.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    coproduct = _coconstruct("dendriform_to_prelie", "prelie", theta.tables, dend.dim, dend.dim)
    return dendriform_to_prelie(dend), coproduct


# The two routes' Lie bialgebras on D⊗B: route 1 − route 2.
BIALGEBRA_SQUARE_LAWS = {
    "bracket_agree": ("kij", ((+1, ("bracket1", "kij")), (-1, ("bracket2", "kij")))),
    "cobracket_agree": ("ipq", ((+1, ("co1", "ipq")), (-1, ("co2", "ipq")))),
}


def check_bialgebra_square(
    dend: FinAlgebra, theta: CoalgStruct, qp: QuadraticPerm
) -> CheckReport:
    """Both routes from a dendriform D-bialgebra to a Lie bialgebra agree.

    Route 1: induce the ASI bialgebra on D⊗B, then take commutators.
    Route 2: pass to the pre-Lie bialgebra, then induce the Lie bialgebra.
    """
    lie1, co1 = asi_to_lie_bialgebra(*induce_asi_bialgebra(dend, theta, qp))
    lie2, co2 = induce_lie_bialgebra(*dendriform_to_prelie_bialgebra(dend, theta), qp)
    tables = {"bracket1": lie1.tables["bracket"], "bracket2": lie2.tables["bracket"],
              "co1": co1.tables["co"], "co2": co2.tables["co"]}
    residuals = law_residuals(BIALGEBRA_SQUARE_LAWS, tables, lie1.dim)
    return CheckReport.from_residuals("bialgebra commuting square", residuals)
