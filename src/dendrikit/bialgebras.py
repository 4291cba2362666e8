"""Coalgebras, bialgebras and the quadratic-perm induction machinery.

A coproduct on a based space is stored as a cube ``t[i][j][k]`` = coefficient
of bⱼ⊗bₖ in the coproduct of bᵢ.  The cube is the canonical form; a private
sparse table of its nonzero entries, derived once in the constructor, feeds
`exact.combine` for every coproduct evaluation.  Bialgebra checks pair a
FinAlgebra with a CoalgStruct of the same kind and verify the compatibility
laws exhaustively on basis elements, reporting exact residual tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import CheckReport, FinAlgebra
from .exact import (
    BilinForm,
    Tensor2,
    Tensor3,
    Vec,
    ZERO,
    combine,
    dual_basis,
    flip3,
    freeze_cube,
    mat_inverse,
    mat_mul,
    mat_sub,
    nonzero,
    on_left,
    on_right,
    reshape,
    sparse_flat,
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
    _flat: dict = field(init=False, repr=False, compare=False)

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
        # Entry i lists the nonzero (j·dim + k, c) of the coproduct of bᵢ.
        object.__setattr__(self, "_flat", {
            name: tuple(sparse_flat(m) for m in cube) for name, cube in frozen.items()
        })

    def basis_coproduct(self, name: str, i: int):
        """Coefficient matrix of the coproduct of basis element i."""
        return self.coproducts[name][i]

    def coproduct(self, name: str, v: Vec) -> Tensor2:
        n = self.dim
        return Tensor2(reshape(combine(nonzero(v.coords), self._flat[name], n * n), n))


def _co_first(coalg: CoalgStruct, name: str, m) -> Tensor3:
    """(θ⊗id) applied to the 2-tensor with coefficient matrix ``m``, θ = ``name``."""
    n = len(m)
    # Slab k holds (θ⊗id)(Σⱼ m[j][k] bⱼ⊗bₖ) without its last slot, flattened.
    slabs = [
        combine(nonzero(col), coalg._flat[name], n * n) for col in transpose(m)
    ]
    return Tensor3(
        tuple(tuple(tuple(s[p * n + q] for s in slabs) for q in range(n)) for p in range(n))
    )


def _co_second(coalg: CoalgStruct, name: str, m) -> Tensor3:
    """(id⊗θ) applied to the 2-tensor with coefficient matrix ``m``, θ = ``name``."""
    n = len(m)
    return Tensor3(
        tuple(reshape(combine(nonzero(row), coalg._flat[name], n * n), n) for row in m)
    )


def check_coalgebra(coalg: CoalgStruct) -> CheckReport:
    """Verify the co-version of the defining laws on every basis element."""
    n = coalg.dim
    k = coalg.kind
    t12 = lambda t: flip3(t, (0, 1))  # τ⊗id
    if k == "dendriform":
        lt = coalg.coproducts["co_lt"]
        gt = coalg.coproducts["co_gt"]
        res1, res2, res3 = [], [], []
        for i in range(n):
            # (θ_≺⊗id)θ_≺ = (id⊗θ_≺)θ_≺ + (id⊗θ_≻)θ_≺
            res1.append(
                (
                    _co_first(coalg, "co_lt", lt[i])
                    - _co_second(coalg, "co_lt", lt[i])
                    - _co_second(coalg, "co_gt", lt[i])
                ).coeffs
            )
            # (θ_≻⊗id)θ_≺ = (id⊗θ_≺)θ_≻
            res2.append(
                (_co_first(coalg, "co_gt", lt[i]) - _co_second(coalg, "co_lt", gt[i])).coeffs
            )
            # (id⊗θ_≻)θ_≻ = (θ_≺⊗id)θ_≻ + (θ_≻⊗id)θ_≻
            res3.append(
                (
                    _co_second(coalg, "co_gt", gt[i])
                    - _co_first(coalg, "co_lt", gt[i])
                    - _co_first(coalg, "co_gt", gt[i])
                ).coeffs
            )
        residuals = {
            "co_dendriform_1": tuple(res1),
            "co_dendriform_2": tuple(res2),
            "co_dendriform_3": tuple(res3),
        }
    elif k == "prelie":
        co = coalg.coproducts["co"]
        res = []
        for i in range(n):
            # (id⊗ϑ)ϑ − (τ⊗id)(id⊗ϑ)ϑ = (ϑ⊗id)ϑ − (τ⊗id)(ϑ⊗id)ϑ
            a = _co_second(coalg, "co", co[i])
            b = _co_first(coalg, "co", co[i])
            res.append(((a - t12(a)) - (b - t12(b))).coeffs)
        residuals = {"co_pre_lie": tuple(res)}
    elif k == "lie":
        co = coalg.coproducts["co"]
        anti, jac = [], []
        for i in range(n):
            # τδ = −δ
            anti.append(mat_sub(transpose(co[i]), tuple(tuple(-x for x in r) for r in co[i])))
            # (id⊗δ)δ − (τ⊗id)(id⊗δ)δ = (δ⊗id)δ
            a = _co_second(coalg, "co", co[i])
            jac.append((a - t12(a) - _co_first(coalg, "co", co[i])).coeffs)
        residuals = {"co_antisymmetry": tuple(anti), "co_jacobi": tuple(jac)}
    elif k == "perm":
        co = coalg.coproducts["co"]
        r1, r2 = [], []
        for i in range(n):
            a = _co_first(coalg, "co", co[i])
            b = _co_second(coalg, "co", co[i])
            # (ν⊗id)ν = (id⊗ν)ν = (τ⊗id)(id⊗ν)ν
            r1.append((a - b).coeffs)
            r2.append((b - t12(b)).coeffs)
        residuals = {"co_perm_assoc": tuple(r1), "co_perm_left_commute": tuple(r2)}
    elif k == "assoc":
        co = coalg.coproducts["co"]
        res = []
        for i in range(n):
            res.append(
                (_co_first(coalg, "co", co[i]) - _co_second(coalg, "co", co[i])).coeffs
            )
        residuals = {"coassociativity": tuple(res)}
    else:  # pragma: no cover
        raise ValueError(k)
    return CheckReport.from_residuals(f"{k} coalgebra", residuals)


def _tau(t):
    return transpose(t)


def _neg(t):
    return tuple(tuple(-x for x in row) for row in t)


def _madd(*ts):
    acc = ts[0]
    for t in ts[1:]:
        acc = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(acc, t))
    return acc


def _mult_matrices(alg: FinAlgebra, op: str) -> tuple[list, list]:
    """The left and right multiplication matrices of ``op`` by each basis vector."""
    basis = [alg.basis(i) for i in range(alg.dim)]
    return (
        [alg.left_mult(op, e).matrix for e in basis],
        [alg.right_mult(op, e).matrix for e in basis],
    )


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
    n = alg.dim
    subject = f"{alg.kind} bialgebra"

    if alg.kind == "lie":
        co = coalg.coproducts["co"]
        ad, _ = _mult_matrices(alg, "bracket")
        res = []
        for i in range(n):
            row = []
            for j in range(n):
                g1, g2 = alg.basis(i), alg.basis(j)
                ad1, ad2 = ad[i], ad[j]
                dbr = coalg.coproduct("co", alg.multiply("bracket", g1, g2)).coeffs
                rhs = _madd(
                    on_left(ad1, co[j]),
                    on_right(ad1, co[j]),
                    _neg(on_left(ad2, co[i])),
                    _neg(on_right(ad2, co[i])),
                )
                row.append(mat_sub(dbr, rhs))
            res.append(tuple(row))
        residuals = {"lie_cocycle": tuple(res)}
    elif alg.kind == "prelie":
        co = coalg.coproducts["co"]
        left, right = _mult_matrices(alg, "mul")
        res1, res2 = [], []
        for i in range(n):
            row1, row2 = [], []
            for j in range(n):
                a1, a2 = alg.basis(i), alg.basis(j)
                l1, l2 = left[i], left[j]
                r1m, r2m = right[i], right[j]
                th1, th2 = co[i], co[j]
                anti12 = coalg.coproduct(
                    "co", alg.multiply("mul", a1, a2)
                ).coeffs
                anti12 = mat_sub(anti12, transpose(anti12))
                anti2 = mat_sub(th2, transpose(th2))
                # (ϑ−τϑ)(a₁⋄a₂) = (𝔩(a₁)⊗id + id⊗𝔩(a₁))((ϑ−τϑ)(a₂))
                #   + (id⊗𝔯(a₂))(ϑ(a₁)) − (𝔯(a₂)⊗id)(τ(ϑ(a₁)))
                row1.append(
                    mat_sub(
                        anti12,
                        _madd(
                            on_left(l1, anti2),
                            on_right(l1, anti2),
                            on_right(r2m, th1),
                            _neg(on_left(r2m, _tau(th1))),
                        ),
                    )
                )
                thbr = coalg.coproduct(
                    "co",
                    alg.multiply("mul", a1, a2) - alg.multiply("mul", a2, a1),
                ).coeffs
                # ϑ([a₁,a₂]) = (id⊗(𝔯(a₂)−𝔩(a₂)))(ϑ(a₁)) + (id⊗(𝔩(a₁)−𝔯(a₁)))(ϑ(a₂))
                #   + (𝔩(a₁)⊗id)(ϑ(a₂)) − (𝔩(a₂)⊗id)(ϑ(a₁))
                row2.append(
                    mat_sub(
                        thbr,
                        _madd(
                            on_right(mat_sub(r2m, l2), th1),
                            on_right(mat_sub(l1, r1m), th2),
                            on_left(l1, th2),
                            _neg(on_left(l2, th1)),
                        ),
                    )
                )
            res1.append(tuple(row1))
            res2.append(tuple(row2))
        residuals = {"prelie_bi_1": tuple(res1), "prelie_bi_2": tuple(res2)}
    elif alg.kind == "assoc":
        co = coalg.coproducts["co"]
        left, right = _mult_matrices(alg, "mul")
        res1, res2 = [], []
        for i in range(n):
            row1, row2 = [], []
            for j in range(n):
                a1, a2 = alg.basis(i), alg.basis(j)
                l1, l2 = left[i], left[j]
                r1m, r2m = right[i], right[j]
                dmul = coalg.coproduct("co", alg.multiply("mul", a1, a2)).coeffs
                # Δ(a₁∗a₂) = (𝔯(a₂)⊗id)(Δ(a₁)) + (id⊗𝔩(a₁))(Δ(a₂))
                row1.append(
                    mat_sub(dmul, _madd(on_left(r2m, co[i]), on_right(l1, co[j])))
                )
                # (𝔩(a₁)⊗id − id⊗𝔯(a₁))(Δ(a₂)) = τ((id⊗𝔯(a₂) − 𝔩(a₂)⊗id)(Δ(a₁)))
                lhs = mat_sub(on_left(l1, co[j]), on_right(r1m, co[j]))
                rhs = _tau(mat_sub(on_right(r2m, co[i]), on_left(l2, co[i])))
                row2.append(mat_sub(lhs, rhs))
            res1.append(tuple(row1))
            res2.append(tuple(row2))
        residuals = {"asi_bi_1": tuple(res1), "asi_bi_2": tuple(res2)}
    elif alg.kind == "dendriform":
        if dbi6_reading not in ("corrected", "symmetric", "literal"):
            raise ValueError(
                "dbi6_reading must be 'corrected', 'symmetric' or 'literal'"
            )
        subject = f"dendriform bialgebra (dbi6 reading: {dbi6_reading})"
        colt = coalg.coproducts["co_lt"]
        cogt = coalg.coproducts["co_gt"]
        llt, rlt = _mult_matrices(alg, "lt")
        lgt, rgt = _mult_matrices(alg, "gt")
        res = {f"dbi{m}": [] for m in range(1, 7)}
        for i in range(n):
            rows = {f"dbi{m}": [] for m in range(1, 7)}
            for j in range(n):
                d1, d2 = alg.basis(i), alg.basis(j)
                llt1, lgt1, rlt1, rgt1 = llt[i], lgt[i], rlt[i], rgt[i]
                llt2, lgt2, rlt2, rgt2 = llt[j], lgt[j], rlt[j], rgt[j]
                star12 = alg.multiply("lt", d1, d2) + alg.multiply("gt", d1, d2)
                lt12 = alg.multiply("lt", d1, d2)
                gt12 = alg.multiply("gt", d1, d2)
                colt_star = coalg.coproduct("co_lt", star12).coeffs
                cogt_star = coalg.coproduct("co_gt", star12).coeffs
                colt_lt = coalg.coproduct("co_lt", lt12).coeffs
                cogt_lt = coalg.coproduct("co_gt", lt12).coeffs
                colt_gt = coalg.coproduct("co_lt", gt12).coeffs
                cogt_gt = coalg.coproduct("co_gt", gt12).coeffs
                rstar2 = _madd(rlt2, rgt2)
                lstar1 = _madd(llt1, lgt1)
                # θ_≺(d₁∗d₂) = (id⊗𝔩_≻(d₁))(θ_≺(d₂)) + ((𝔯_≺+𝔯_≻)(d₂)⊗id)(θ_≺(d₁))
                rows["dbi1"].append(
                    mat_sub(
                        colt_star,
                        _madd(on_right(lgt1, colt[j]), on_left(rstar2, colt[i])),
                    )
                )
                # θ_≻(d₁∗d₂) = (id⊗(𝔩_≺+𝔩_≻)(d₁))(θ_≻(d₂)) + (𝔯_≺(d₂)⊗id)(θ_≻(d₁))
                rows["dbi2"].append(
                    mat_sub(
                        cogt_star,
                        _madd(on_right(lstar1, cogt[j]), on_left(rlt2, cogt[i])),
                    )
                )
                # (θ_≺+θ_≻)(d₁≺d₂) = (id⊗𝔩_≺(d₁))(θ_≻(d₂))
                #   + (𝔯_≺(d₂)⊗id)((θ_≺+θ_≻)(d₁))
                rows["dbi3"].append(
                    mat_sub(
                        _madd(colt_lt, cogt_lt),
                        _madd(
                            on_right(llt1, cogt[j]),
                            on_left(rlt2, _madd(colt[i], cogt[i])),
                        ),
                    )
                )
                # (θ_≺+θ_≻)(d₁≻d₂) = (id⊗𝔩_≻(d₁))((θ_≺+θ_≻)(d₂))
                #   + (𝔯_≻(d₂)⊗id)(θ_≺(d₁))
                # (the ≻-mirror of the third condition; the ≺-operator variant
                # rejects valid triangular bialgebras)
                rows["dbi4"].append(
                    mat_sub(
                        _madd(colt_gt, cogt_gt),
                        _madd(
                            on_right(lgt1, _madd(colt[j], cogt[j])),
                            on_left(rgt2, colt[i]),
                        ),
                    )
                )
                # ((𝔩_≺+𝔩_≻)(d₁)⊗id − id⊗𝔯_≺(d₁))(θ_≺(d₂))
                #   = −τ((𝔩_≻(d₂)⊗id − id⊗(𝔯_≺+𝔯_≻)(d₂))(θ_≻(d₁)))
                lhs5 = mat_sub(on_left(lstar1, colt[j]), on_right(rlt1, colt[j]))
                rhs5 = _neg(
                    _tau(
                        mat_sub(
                            on_left(lgt2, cogt[i]),
                            on_right(_madd(rlt2, rgt2), cogt[i]),
                        )
                    )
                )
                rows["dbi5"].append(mat_sub(lhs5, rhs5))
                # (𝔩_≻(d₂)⊗id − id⊗𝔯_≺(d₂))((θ_≺+θ_≻)(d₁))
                #   = τ((id⊗𝔯_≻(·))(θ_≻(·')) − (𝔩_≺(·)⊗id)(θ_≺(·')))
                # with (·,·') = (d₁,d₂) for the default "corrected" reading,
                # (d₂,d₁) for "symmetric" and (d₂,d₂) for "literal".  Only the
                # corrected reading makes the pair {fifth, sixth} equivalent
                # to the second completed compatibility law.
                lhs6 = mat_sub(
                    on_left(lgt2, _madd(colt[i], cogt[i])),
                    on_right(rlt2, _madd(colt[i], cogt[i])),
                )
                if dbi6_reading == "corrected":
                    rhs6 = _tau(
                        mat_sub(on_right(rgt1, cogt[j]), on_left(llt1, colt[j]))
                    )
                elif dbi6_reading == "symmetric":
                    rhs6 = _tau(
                        mat_sub(on_right(rgt2, cogt[i]), on_left(llt2, colt[i]))
                    )
                else:
                    rhs6 = _tau(
                        mat_sub(on_right(rgt2, cogt[j]), on_left(llt2, colt[j]))
                    )
                rows["dbi6"].append(mat_sub(lhs6, rhs6))
            for name in res:
                res[name].append(tuple(rows[name]))
        residuals = {name: tuple(v) for name, v in res.items()}
    else:
        raise ValueError(f"no bialgebra notion for kind {alg.kind!r}")
    return CheckReport.from_residuals(subject, residuals)


@dataclass(frozen=True)
class QuadraticPerm:
    """A perm algebra with an antisymmetric, invariant, nondegenerate form."""

    algebra: FinAlgebra
    form: BilinForm


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
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                b1, b2, b3 = algebra.basis(i), algebra.basis(j), algebra.basis(k)
                lhs = form.pair(algebra.multiply("mul", b1, b2), b3)
                rhs = form.pair(
                    b1,
                    algebra.multiply("mul", b2, b3) - algebra.multiply("mul", b3, b2),
                )
                if lhs != rhs:
                    raise ValueError(
                        f"form is not invariant: fails on basis triple ({i}, {j}, {k})"
                    )
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
    n = alg.dim
    F = mat_inverse(transpose(form.matrix))
    cube = []
    for i in range(n):
        R = tuple(
            tuple(
                form.pair(
                    alg.basis(i),
                    alg.multiply("mul", alg.basis(j), alg.basis(k)),
                )
                for k in range(n)
            )
            for j in range(n)
        )
        cube.append(mat_mul(mat_mul(F, R), transpose(F)))
    return CoalgStruct("perm", n, {"co": tuple(cube)})


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
        rhs_ii = _neg(outer_sum((mul(es[j], b), fs[j]) for j in range(n)))
        res_ii.append(mat_sub(transpose(nub), rhs_ii))
        anti = mat_sub(nub, transpose(nub))
        res_iii_a.append(
            mat_sub(outer_sum((mul(b, es[j]), fs[j]) for j in range(n)), anti)
        )
        res_iii_b.append(
            mat_sub(outer_sum((es[j], mul(b, fs[j])) for j in range(n)), anti)
        )
    can = outer_sum((es[j], fs[j]) for j in range(n))
    res_iv = mat_sub(can, _neg(transpose(can)))
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
            t = _madd(
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
    n = lie1.dim
    residuals = {
        "bracket_agree": tuple(
            tuple(
                tuple(
                    lie1.products["bracket"][k][i][j]
                    - lie2.products["bracket"][k][i][j]
                    for j in range(n)
                )
                for i in range(n)
            )
            for k in range(n)
        ),
        "cobracket_agree": tuple(
            mat_sub(co1.coproducts["co"][i], co2.coproducts["co"][i])
            for i in range(n)
        ),
    }
    return CheckReport.from_residuals("bialgebra commuting square", residuals)
