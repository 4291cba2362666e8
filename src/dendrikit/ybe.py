"""Yang-Baxter equations, invariance, O-operators and transfer theorems.

An r-matrix r ∈ A⊗A is stored as a Tensor2 over the algebra basis.  Each
Yang-Baxter residual is computed term by term from the defining expansion in
simple tensors, exactly; r is a solution iff the residual 3-tensor vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import Bimodule, CheckReport, FinAlgebra
from .bialgebras import CoalgStruct, QuadraticPerm, bullet, dual_basis_vectors
from .exact import (
    LinMap,
    Tensor2,
    Tensor3,
    Vec,
    ZERO,
    flip,
    mat_add,
    mat_sub,
    on_left,
    on_right,
    sharp,
    transpose,
)
from .functors import commutator_lie, dendriform_to_prelie, tensor_assoc, tensor_lie


class HypothesisError(ValueError):
    """A transfer theorem was invoked with its hypothesis violated."""


def _entries(r: Tensor2):
    for i, row in enumerate(r.coeffs):
        for j, c in enumerate(row):
            if c != 0:
                yield i, j, c


def ybe_residual(alg: FinAlgebra, r: Tensor2) -> Tensor3:
    """Residual 3-tensor of the Yang-Baxter equation matching the algebra kind.

    Lie: [r₁₂,r₁₃] + [r₁₃,r₂₃] + [r₁₂,r₂₃]
    pre-Lie: the eight-term pre-Lie analogue
    associative: r₁₂∗r₁₃ + r₁₃∗r₂₃ − r₂₃∗r₁₂
    dendriform: r₁₂≺r₁₃ + r₁₂≻r₁₃ − r₁₃≺r₂₃ − r₂₃≻r₁₂
    """
    n = alg.dim
    if r.dim_left != n or r.dim_right != n:
        raise ValueError("r-matrix dimension does not match the algebra")
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]

    def add(vec_slot: int, fixed, terms, c: Fraction):
        """Accumulate c · (tensor with Σ x·bₖ over ``terms`` in vec_slot and
        basis indices elsewhere)."""
        p, q = fixed
        for k, x in terms:
            x = c * x
            if vec_slot == 0:
                out[k][p][q] += x
            elif vec_slot == 1:
                out[p][k][q] += x
            else:
                out[p][q][k] += x

    if alg.kind == "lie":
        br = lambda i, j: alg.product_terms("bracket", i, j)
        for x1, y1, c1 in _entries(r):
            for x2, y2, c2 in _entries(r):
                c = c1 * c2
                add(0, (y1, y2), br(x1, x2), c)      # [r₁₂, r₁₃]
                add(2, (x1, x2), br(y1, y2), c)      # [r₁₃, r₂₃]
                add(1, (x1, y2), br(y1, x2), c)      # [r₁₂, r₂₃]
    elif alg.kind == "prelie":
        mul = lambda i, j: alg.product_terms("mul", i, j)
        for x1, y1, c1 in _entries(r):
            for x2, y2, c2 in _entries(r):
                c = c1 * c2
                add(0, (y2, y1), mul(x1, x2), c)      # + r₁₃⋄r₁₂
                add(1, (x2, y1), mul(x1, y2), c)      # + r₂₃⋄r₁₂
                add(0, (x1, y2), mul(y1, x2), c)      # + r₂₁⋄r₁₃
                add(2, (x2, x1), mul(y1, y2), c)      # + r₂₃⋄r₁₃
                add(1, (y2, y1), mul(x1, x2), -c)     # − r₂₃⋄r₂₁
                add(1, (x1, y2), mul(y1, x2), -c)     # − r₁₂⋄r₂₃
                add(0, (x2, y1), mul(x1, y2), -c)     # − r₁₃⋄r₂₁
                add(2, (x1, x2), mul(y1, y2), -c)     # − r₁₃⋄r₂₃
    elif alg.kind == "assoc":
        mul = lambda i, j: alg.product_terms("mul", i, j)
        for x1, y1, c1 in _entries(r):
            for x2, y2, c2 in _entries(r):
                c = c1 * c2
                add(0, (y1, y2), mul(x1, x2), c)      # + r₁₂∗r₁₃
                add(2, (x1, x2), mul(y1, y2), c)      # + r₁₃∗r₂₃
                add(1, (x2, y1), mul(x1, y2), -c)     # − r₂₃∗r₁₂
    elif alg.kind == "dendriform":
        lt = lambda i, j: alg.product_terms("lt", i, j)
        gt = lambda i, j: alg.product_terms("gt", i, j)
        for x1, y1, c1 in _entries(r):
            for x2, y2, c2 in _entries(r):
                c = c1 * c2
                add(0, (y1, y2), lt(x1, x2), c)       # + r₁₂≺r₁₃
                add(0, (y1, y2), gt(x1, x2), c)       # + r₁₂≻r₁₃
                add(2, (x1, x2), lt(y1, y2), -c)      # − r₁₃≺r₂₃
                add(1, (x2, y1), gt(x1, y2), -c)      # − r₂₃≻r₁₂
    else:
        raise ValueError(f"no Yang-Baxter equation for kind {alg.kind!r}")
    return Tensor3(out)


def is_ybe_solution(alg: FinAlgebra, r: Tensor2) -> bool:
    return ybe_residual(alg, r).is_zero()


def invariance_residual(alg: FinAlgebra, s: Tensor2) -> CheckReport:
    """Invariance of a 2-tensor under the kind-specific coboundary action.

    Lie: (ad(g)⊗id + id⊗ad(g))(s) = 0
    pre-Lie: (𝔩(a)⊗id + id⊗(𝔩−𝔯)(a))(s) = 0
    associative: (id⊗𝔩(a) − 𝔯(a)⊗id)(s) = 0
    """
    n = alg.dim
    res = []
    for i in range(n):
        a = alg.basis(i)
        if alg.kind == "lie":
            ad = alg.left_mult("bracket", a).matrix
            res.append(mat_add(on_left(ad, s.coeffs), on_right(ad, s.coeffs)))
        elif alg.kind == "prelie":
            l = alg.left_mult("mul", a).matrix
            rm = alg.right_mult("mul", a).matrix
            res.append(mat_add(on_left(l, s.coeffs), on_right(mat_sub(l, rm), s.coeffs)))
        elif alg.kind == "assoc":
            l = alg.left_mult("mul", a).matrix
            rm = alg.right_mult("mul", a).matrix
            res.append(mat_sub(on_right(l, s.coeffs), on_left(rm, s.coeffs)))
        else:
            raise ValueError(f"no invariance notion for kind {alg.kind!r}")
    return CheckReport.from_residuals(f"{alg.kind} invariance", {"invariance": tuple(res)})


def coboundary_coproduct(alg: FinAlgebra, r: Tensor2) -> CoalgStruct:
    """Coproduct induced by an r-matrix.

    Lie: δ_r(g) = (ad(g)⊗id + id⊗ad(g))(r)
    pre-Lie: ϑ_r(a) = (𝔩(a)⊗id + id⊗(𝔩−𝔯)(a))(r)
    associative: Δ_r(a) = (id⊗𝔩(a) − 𝔯(a)⊗id)(r)
    dendriform: θ_≺,r from r, θ_≻,r from −τ(r) via the corresponding actions.
    """
    n = alg.dim
    if alg.kind == "lie":
        cube = []
        for i in range(n):
            ad = alg.left_mult("bracket", alg.basis(i)).matrix
            cube.append(mat_add(on_left(ad, r.coeffs), on_right(ad, r.coeffs)))
        return CoalgStruct("lie", n, {"co": tuple(cube)})
    if alg.kind == "prelie":
        cube = []
        for i in range(n):
            a = alg.basis(i)
            l = alg.left_mult("mul", a).matrix
            rm = alg.right_mult("mul", a).matrix
            cube.append(mat_add(on_left(l, r.coeffs), on_right(mat_sub(l, rm), r.coeffs)))
        return CoalgStruct("prelie", n, {"co": tuple(cube)})
    if alg.kind == "assoc":
        cube = []
        for i in range(n):
            a = alg.basis(i)
            l = alg.left_mult("mul", a).matrix
            rm = alg.right_mult("mul", a).matrix
            cube.append(mat_sub(on_right(l, r.coeffs), on_left(rm, r.coeffs)))
        return CoalgStruct("assoc", n, {"co": tuple(cube)})
    if alg.kind == "dendriform":
        r_lt = r.coeffs
        r_gt = tuple(tuple(-x for x in row) for row in transpose(r.coeffs))
        cube_lt, cube_gt = [], []
        for i in range(n):
            d = alg.basis(i)
            llt = alg.left_mult("lt", d).matrix
            lgt = alg.left_mult("gt", d).matrix
            rlt = alg.right_mult("lt", d).matrix
            rgt = alg.right_mult("gt", d).matrix
            # θ_≺,r(d) = ((𝔯_≺+𝔯_≻)(d)⊗id − id⊗𝔩_≻(d))(r)
            cube_lt.append(
                mat_sub(on_left(mat_add(rlt, rgt), r_lt), on_right(lgt, r_lt))
            )
            # θ_≻,r(d) = (𝔯_≺(d)⊗id − id⊗(𝔩_≺+𝔩_≻)(d))(−τ(r))
            cube_gt.append(
                mat_sub(on_left(rlt, r_gt), on_right(mat_add(llt, lgt), r_gt))
            )
        return CoalgStruct(
            "dendriform", n, {"co_lt": tuple(cube_lt), "co_gt": tuple(cube_gt)}
        )
    raise ValueError(f"no coboundary coproduct for kind {alg.kind!r}")


def kappa_tensor(qp: QuadraticPerm) -> Tensor2:
    """κ = Σⱼ eⱼ⊗fⱼ built from the ω-dual basis; satisfies τ(κ) = −κ."""
    n = qp.algebra.dim
    fs = dual_basis_vectors(qp)
    out = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        for q in range(n):
            out[j][q] += fs[j].coords[q]
    return Tensor2(out)


def lift_r(r: Tensor2, qp: QuadraticPerm) -> Tensor2:
    """r̂ = Σᵢⱼ (xᵢ⊗eⱼ)⊗(yᵢ⊗fⱼ) on the flattened A⊗B basis."""
    kap = kappa_tensor(qp)
    return Tensor2(bullet(r.coeffs, kap.coeffs, r.dim_left, qp.algebra.dim))


def coregular_bimodule(alg: FinAlgebra) -> Bimodule:
    """The dual-space bimodule used in the O-operator correspondences.

    Lie: (𝔤*, −ad*).  Pre-Lie: (A*, 𝔯*−𝔩*, 𝔯*).  Associative: (A*, 𝔯*, 𝔩*).
    Dendriform: (D*, −𝔯*_≻, 𝔩*_≺+𝔩*_≻, 𝔯*_≺+𝔯*_≻, −𝔩*_≺) in the action order
    (𝔩_≺, 𝔯_≺, 𝔩_≻, 𝔯_≻).
    The dual of a matrix action is its transpose.
    """
    n = alg.dim

    def dual(m):
        return transpose(m)

    def neg(m):
        return tuple(tuple(-x for x in row) for row in m)

    if alg.kind == "lie":
        mats = {
            "rho": tuple(
                neg(dual(alg.left_mult("bracket", alg.basis(i)).matrix))
                for i in range(n)
            )
        }
    elif alg.kind == "prelie":
        mats = {
            "l": tuple(
                dual(
                    mat_sub(
                        alg.right_mult("mul", alg.basis(i)).matrix,
                        alg.left_mult("mul", alg.basis(i)).matrix,
                    )
                )
                for i in range(n)
            ),
            "r": tuple(
                dual(alg.right_mult("mul", alg.basis(i)).matrix) for i in range(n)
            ),
        }
    elif alg.kind == "assoc":
        mats = {
            "l": tuple(
                dual(alg.right_mult("mul", alg.basis(i)).matrix) for i in range(n)
            ),
            "r": tuple(
                dual(alg.left_mult("mul", alg.basis(i)).matrix) for i in range(n)
            ),
        }
    elif alg.kind == "dendriform":
        mats = {
            "l_lt": tuple(
                neg(dual(alg.right_mult("gt", alg.basis(i)).matrix)) for i in range(n)
            ),
            "r_lt": tuple(
                dual(
                    mat_add(
                        alg.left_mult("lt", alg.basis(i)).matrix,
                        alg.left_mult("gt", alg.basis(i)).matrix,
                    )
                )
                for i in range(n)
            ),
            "l_gt": tuple(
                dual(
                    mat_add(
                        alg.right_mult("lt", alg.basis(i)).matrix,
                        alg.right_mult("gt", alg.basis(i)).matrix,
                    )
                )
                for i in range(n)
            ),
            "r_gt": tuple(
                neg(dual(alg.left_mult("lt", alg.basis(i)).matrix)) for i in range(n)
            ),
        }
    else:
        raise ValueError(f"no coregular bimodule for kind {alg.kind!r}")
    return Bimodule(alg, n, mats)


def check_ooperator(bim: Bimodule, P: LinMap) -> CheckReport:
    """Verify the O-operator identity for P: V → A on all basis pairs of V."""
    alg = bim.algebra
    nv = bim.dim

    def pv(i: int) -> Vec:
        return P.apply(Vec.basis(nv, i))

    res: dict = {}
    if alg.kind == "lie":
        out = []
        for i in range(nv):
            row = []
            for j in range(nv):
                v1, v2 = Vec.basis(nv, i), Vec.basis(nv, j)
                lhs = alg.multiply("bracket", pv(i), pv(j))
                inner = bim.action("rho", pv(i)).apply(v2) - bim.action(
                    "rho", pv(j)
                ).apply(v1)
                row.append((lhs - P.apply(inner)).coords)
            out.append(tuple(row))
        res["ooperator"] = tuple(out)
    elif alg.kind in ("prelie", "assoc"):
        op = "mul"
        out = []
        for i in range(nv):
            row = []
            for j in range(nv):
                v1, v2 = Vec.basis(nv, i), Vec.basis(nv, j)
                lhs = alg.multiply(op, pv(i), pv(j))
                inner = bim.action("l", pv(i)).apply(v2) + bim.action("r", pv(j)).apply(v1)
                row.append((lhs - P.apply(inner)).coords)
            out.append(tuple(row))
        res["ooperator"] = tuple(out)
    elif alg.kind == "dendriform":
        out_lt, out_gt = [], []
        for i in range(nv):
            row_lt, row_gt = [], []
            for j in range(nv):
                v1, v2 = Vec.basis(nv, i), Vec.basis(nv, j)
                lhs_lt = alg.multiply("lt", pv(i), pv(j))
                inner_lt = bim.action("l_lt", pv(i)).apply(v2) + bim.action(
                    "r_lt", pv(j)
                ).apply(v1)
                row_lt.append((lhs_lt - P.apply(inner_lt)).coords)
                lhs_gt = alg.multiply("gt", pv(i), pv(j))
                inner_gt = bim.action("l_gt", pv(i)).apply(v2) + bim.action(
                    "r_gt", pv(j)
                ).apply(v1)
                row_gt.append((lhs_gt - P.apply(inner_gt)).coords)
            out_lt.append(tuple(row_lt))
            out_gt.append(tuple(row_gt))
        res["ooperator_lt"] = tuple(out_lt)
        res["ooperator_gt"] = tuple(out_gt)
    else:
        raise ValueError(f"no O-operator notion for kind {alg.kind!r}")
    return CheckReport.from_residuals(f"{alg.kind} O-operator", res)


FACTORIZABLE_SIGN = {"lie": 1, "assoc": 1, "prelie": -1}


@dataclass(frozen=True)
class FactorizabilityResult:
    kind: str
    sign: int
    operator: LinMap
    determinant: Fraction
    factorizable: bool


def factorizable_check(alg: FinAlgebra, r: Tensor2) -> FactorizabilityResult:
    """Invertibility of 𝓘 = r♯ ± (τr)♯ (plus for Lie/associative, minus for pre-Lie)."""
    if alg.kind not in FACTORIZABLE_SIGN:
        raise ValueError(f"no factorizability notion for kind {alg.kind!r}")
    sign = FACTORIZABLE_SIGN[alg.kind]
    a = sharp(r).matrix
    b = sharp(flip(r)).matrix
    m = mat_add(a, b) if sign == 1 else mat_sub(a, b)
    op = LinMap(m)
    det = op.determinant()
    return FactorizabilityResult(alg.kind, sign, op, det, det != 0)


# --- transfer theorems -------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise HypothesisError(f"hypothesis failed: {msg}")


def transfer_aybe_to_cybe(alg: FinAlgebra, r: Tensor2) -> CheckReport:
    """C_r = A_r − (id⊗τ)(A_r) in the commutator Lie algebra.

    Requires r + τ(r) to be invariant for the associative actions.
    """
    _require(alg.kind == "assoc", "expected an associative algebra")
    s = r + flip(r)
    _require(
        invariance_residual(alg, s).ok,
        "r + τ(r) is not invariant under the associative actions",
    )
    lie = commutator_lie(alg)
    c_res = ybe_residual(lie, r)
    a_res = ybe_residual(alg, r)
    from .exact import flip3

    rhs = a_res - flip3(a_res, (1, 2))
    return CheckReport.from_residuals(
        "associative-to-Lie Yang-Baxter transfer",
        {"cybe_from_aybe": (c_res - rhs).coeffs},
    )


def transfer_dybe_to_plybe(alg: FinAlgebra, r: Tensor2) -> CheckReport:
    """PL_r is a signed slot-permutation combination of D_r, for symmetric r."""
    _require(alg.kind == "dendriform", "expected a dendriform algebra")
    _require((r - flip(r)).is_zero(), "r is not symmetric")
    prelie = dendriform_to_prelie(alg)
    pl_res = ybe_residual(prelie, r)
    d_res = ybe_residual(alg, r)
    from .exact import flip3

    term1 = flip3(flip3(flip3(d_res, (1, 2)), (0, 1)), (1, 2))
    term2 = flip3(flip3(d_res, (1, 2)), (0, 1))
    return CheckReport.from_residuals(
        "dendriform-to-pre-Lie Yang-Baxter transfer",
        {"plybe_from_dybe": (pl_res - (term1 - term2)).coeffs},
    )


def transfer_assoc_cobound_to_lie(alg: FinAlgebra, r: Tensor2) -> CheckReport:
    """Δ_r − τΔ_r equals the Lie coboundary δ_r of the commutator algebra.

    Requires r skew-symmetric.
    """
    _require(alg.kind == "assoc", "expected an associative algebra")
    _require((r + flip(r)).is_zero(), "r is not skew-symmetric")
    delta = coboundary_coproduct(alg, r)
    lie = commutator_lie(alg)
    delta_lie = coboundary_coproduct(lie, r)
    res = tuple(
        mat_sub(
            mat_sub(delta.coproducts["co"][i], transpose(delta.coproducts["co"][i])),
            delta_lie.coproducts["co"][i],
        )
        for i in range(alg.dim)
    )
    return CheckReport.from_residuals(
        "associative-to-Lie coboundary transfer", {"cobracket_agree": res}
    )


def transfer_dend_cobound_to_prelie(alg: FinAlgebra, r: Tensor2) -> CheckReport:
    """θ_≻,r − τθ_≺,r equals the pre-Lie coboundary ϑ_r.

    Requires r symmetric.
    """
    _require(alg.kind == "dendriform", "expected a dendriform algebra")
    _require((r - flip(r)).is_zero(), "r is not symmetric")
    theta = coboundary_coproduct(alg, r)
    prelie = dendriform_to_prelie(alg)
    theta_pl = coboundary_coproduct(prelie, r)
    res = tuple(
        mat_sub(
            mat_sub(
                theta.coproducts["co_gt"][i],
                transpose(theta.coproducts["co_lt"][i]),
            ),
            theta_pl.coproducts["co"][i],
        )
        for i in range(alg.dim)
    )
    return CheckReport.from_residuals(
        "dendriform-to-pre-Lie coboundary transfer", {"coproduct_agree": res}
    )


def transfer_plybe_lift(alg: FinAlgebra, r: Tensor2, qp: QuadraticPerm) -> CheckReport:
    """A pre-Lie Yang-Baxter solution lifts to a Lie solution on A⊗B.

    Requires r to solve the pre-Lie Yang-Baxter equation and r − τ(r) to be
    invariant for the pre-Lie actions.  Checks that r̂ solves the Lie
    Yang-Baxter equation and that r̂ + τ(r̂) is invariant for the adjoint
    action of the tensor-product Lie algebra.
    """
    _require(alg.kind == "prelie", "expected a pre-Lie algebra")
    _require(is_ybe_solution(alg, r), "r does not solve the pre-Lie Yang-Baxter equation")
    _require(
        invariance_residual(alg, r - flip(r)).ok,
        "r - τ(r) is not invariant under the pre-Lie actions",
    )
    rhat = lift_r(r, qp)
    lie = tensor_lie(alg, qp.algebra)
    residuals = {
        "lift_solves_cybe": ybe_residual(lie, rhat).coeffs,
        "lift_symmetric_part_invariant": invariance_residual(
            lie, rhat + flip(rhat)
        ).residuals["invariance"],
    }
    return CheckReport.from_residuals("pre-Lie-to-Lie lift", residuals)


def transfer_induced_lie_cobracket(
    alg: FinAlgebra, r: Tensor2, qp: QuadraticPerm
) -> CheckReport:
    """For symmetric solutions, the induced Lie cobracket is the coboundary δ_r̂.

    Also checks that r̂ is skew-symmetric.
    """
    _require(alg.kind == "prelie", "expected a pre-Lie algebra")
    _require((r - flip(r)).is_zero(), "r is not symmetric")
    _require(is_ybe_solution(alg, r), "r does not solve the pre-Lie Yang-Baxter equation")
    rhat = lift_r(r, qp)
    lie = tensor_lie(alg, qp.algebra)
    from .bialgebras import induce_lie_bialgebra

    theta = coboundary_coproduct(alg, r)
    _, induced = induce_lie_bialgebra(alg, theta, qp)
    delta_rhat = coboundary_coproduct(lie, rhat)
    residuals = {
        "lift_skew": (rhat + flip(rhat)).coeffs,
        "induced_cobracket_is_coboundary": tuple(
            mat_sub(induced.coproducts["co"][i], delta_rhat.coproducts["co"][i])
            for i in range(lie.dim)
        ),
    }
    return CheckReport.from_residuals("induced Lie cobracket", residuals)


def transfer_dybe_lift(alg: FinAlgebra, r: Tensor2, qp: QuadraticPerm) -> CheckReport:
    """A symmetric dendriform Yang-Baxter solution lifts to a skew associative one.

    Checks that r̂ is skew-symmetric and solves the associative Yang-Baxter
    equation in the tensor-product algebra.  Requires r symmetric and a
    solution.
    """
    _require(alg.kind == "dendriform", "expected a dendriform algebra")
    _require((r - flip(r)).is_zero(), "r is not symmetric")
    _require(
        is_ybe_solution(alg, r), "r does not solve the dendriform Yang-Baxter equation"
    )
    rhat = lift_r(r, qp)
    assoc = tensor_assoc(alg, qp.algebra)
    residuals = {
        "lift_skew": (rhat + flip(rhat)).coeffs,
        "lift_solves_aybe": ybe_residual(assoc, rhat).coeffs,
    }
    return CheckReport.from_residuals("dendriform-to-associative lift", residuals)


def transfer_induced_asi_coproduct(
    alg: FinAlgebra, r: Tensor2, qp: QuadraticPerm
) -> CheckReport:
    """For symmetric solutions, the induced ASI coproduct is the coboundary Δ_r̂."""
    _require(alg.kind == "dendriform", "expected a dendriform algebra")
    _require((r - flip(r)).is_zero(), "r is not symmetric")
    _require(
        is_ybe_solution(alg, r), "r does not solve the dendriform Yang-Baxter equation"
    )
    rhat = lift_r(r, qp)
    assoc = tensor_assoc(alg, qp.algebra)
    from .bialgebras import induce_asi_bialgebra

    theta = coboundary_coproduct(alg, r)
    _, induced = induce_asi_bialgebra(alg, theta, qp)
    delta_rhat = coboundary_coproduct(assoc, rhat)
    residuals = {
        "induced_coproduct_is_coboundary": tuple(
            mat_sub(induced.coproducts["co"][i], delta_rhat.coproducts["co"][i])
            for i in range(assoc.dim)
        ),
    }
    return CheckReport.from_residuals("induced ASI coproduct", residuals)


def transfer_assoc_ooperator_to_lie(alg: FinAlgebra, P: LinMap) -> CheckReport:
    """An O-operator on the associative coregular bimodule is one for the
    commutator Lie algebra on its coadjoint-type bimodule.
    """
    _require(alg.kind == "assoc", "expected an associative algebra")
    _require(
        check_ooperator(coregular_bimodule(alg), P).ok,
        "P is not an O-operator for the associative coregular bimodule",
    )
    lie = commutator_lie(alg)
    return check_ooperator(coregular_bimodule(lie), P)


def transfer_dend_ooperator_to_prelie(alg: FinAlgebra, P: LinMap) -> CheckReport:
    """An O-operator on the dendriform coregular bimodule is one for the
    induced pre-Lie algebra on its coregular bimodule.
    """
    _require(alg.kind == "dendriform", "expected a dendriform algebra")
    _require(
        check_ooperator(coregular_bimodule(alg), P).ok,
        "P is not an O-operator for the dendriform coregular bimodule",
    )
    prelie = dendriform_to_prelie(alg)
    return check_ooperator(coregular_bimodule(prelie), P)
