"""Yang-Baxter equations, invariance, O-operators and transfer theorems.

An r-matrix r ∈ A⊗A is stored as a Tensor2 over the algebra basis; r is a
solution iff the residual 3-tensor of its Yang-Baxter equation vanishes.

The Yang-Baxter residuals (``YBE_LAWS``, r·op·r terms contracted through
the product cube), the coboundary coproducts (``COBOUNDARY``, which also
give the invariance residual), the O-operator identity (``OOPERATOR_LAWS``,
whose terms have degree 2 in the operator P and are chained contractions),
the lift r̂ = r•κ (``LIFT``), the actions of the dual-space bimodule
(``COREGULAR_BIMODULE``, transposes written as swapped labels) and the
agreement residuals of the transfer theorems (``TRANSFER_LAWS``, slot flips
written as swapped labels) are term tables evaluated by `exact.contract`,
like the laws in `algebras` and `bialgebras`.  An r-matrix or operator is
read through the `exact.IntTable` it builds once (``table``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    Bimodule,
    CheckReport,
    FinAlgebra,
    _bimodule,
    _structure,
    law_residuals,
)
from .bialgebras import (
    CoalgStruct,
    QuadraticPerm,
    induce_asi_bialgebra,
    induce_lie_bialgebra,
)
from .exact import (
    IntTable,
    LinMap,
    Tensor2,
    Tensor3,
    _unchecked,
    contract,
    contract_cells,
    cube_table,
    flip,
    mat_add,
    mat_sub,
    nest,
    nested,
    sharp,
    transpose,
)
from .functors import (
    commutator_lie,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_extents,
    tensor_lie,
)


class HypothesisError(ValueError):
    """A transfer theorem was invoked with its hypothesis violated."""


def _require_square(alg: FinAlgebra, r: Tensor2):
    if r.dim_left != alg.dim or r.dim_right != alg.dim:
        raise ValueError("r-matrix dimension does not match the algebra")


# The Yang-Baxter residuals as terms over r[x][y] and the product cubes
# c[k][i][j], nested [a][b][c]: the coefficient of bₐ⊗b_b⊗b_c.  With
# r = Σ xₜ⊗yₜ, the product of two legs lands in the slot its r-indices leave
# free, so r₁₂∗r₁₃ = Σ (x₁∗x₂)⊗y₁⊗y₂ is r ib · c aij · r jc.  Each term reads
# r, then a product cube, then r, and the kernel sums over the first r-leg
# before it reads the second.
YBE_LAWS = {
    # [r₁₂,r₁₃] + [r₁₃,r₂₃] + [r₁₂,r₂₃]
    "lie": ("abc", (
        (+1, ("r", "ib"), ("bracket", "aij"), ("r", "jc")),
        (+1, ("r", "ai"), ("bracket", "cij"), ("r", "bj")),
        (+1, ("r", "ai"), ("bracket", "bij"), ("r", "jc")))),
    # r₁₃⋄r₁₂ + r₂₃⋄r₁₂ + r₂₁⋄r₁₃ + r₂₃⋄r₁₃
    #   − r₂₃⋄r₂₁ − r₁₂⋄r₂₃ − r₁₃⋄r₂₁ − r₁₃⋄r₂₃
    "prelie": ("abc", (
        (+1, ("r", "ic"), ("mul", "aij"), ("r", "jb")),
        (+1, ("r", "ic"), ("mul", "bij"), ("r", "aj")),
        (+1, ("r", "bi"), ("mul", "aij"), ("r", "jc")),
        (+1, ("r", "bi"), ("mul", "cij"), ("r", "aj")),
        (-1, ("r", "ic"), ("mul", "bij"), ("r", "ja")),
        (-1, ("r", "ai"), ("mul", "bij"), ("r", "jc")),
        (-1, ("r", "ic"), ("mul", "aij"), ("r", "bj")),
        (-1, ("r", "ai"), ("mul", "cij"), ("r", "bj")))),
    # r₁₂∗r₁₃ + r₁₃∗r₂₃ − r₂₃∗r₁₂
    "assoc": ("abc", (
        (+1, ("r", "ib"), ("mul", "aij"), ("r", "jc")),
        (+1, ("r", "ai"), ("mul", "cij"), ("r", "bj")),
        (-1, ("r", "ic"), ("mul", "bij"), ("r", "aj")))),
    # r₁₂≺r₁₃ + r₁₂≻r₁₃ − r₁₃≺r₂₃ − r₂₃≻r₁₂
    "dendriform": ("abc", (
        (+1, ("r", "ib"), ("lt", "aij"), ("r", "jc")),
        (+1, ("r", "ib"), ("gt", "aij"), ("r", "jc")),
        (-1, ("r", "ai"), ("lt", "cij"), ("r", "bj")),
        (-1, ("r", "ic"), ("gt", "bij"), ("r", "aj")))),
}


def _ybe_cells(alg: FinAlgebra, r: Tensor2) -> tuple[list, int]:
    """The Yang-Baxter residual of r as `exact.contract_cells`' (cells, D)."""
    _require_square(alg, r)
    if alg.kind not in YBE_LAWS:
        raise ValueError(f"no Yang-Baxter equation for kind {alg.kind!r}")
    out, terms = YBE_LAWS[alg.kind]
    return contract_cells(terms, {**alg.tables, "r": r.table}, out, alg.dim)


def ybe_residual(alg: FinAlgebra, r: Tensor2) -> Tensor3:
    """Residual 3-tensor of the Yang-Baxter equation matching the algebra
    kind (``YBE_LAWS``).

    Every term has degree two in r and degree one in the structure
    constants, and is contracted through the product cube: O(n⁴) on a
    dense r.
    """
    n = alg.dim
    # the nested Fractions are final, so Tensor3's constructor need not
    # freeze them again
    return _unchecked(Tensor3, coeffs=nested(*_ybe_cells(alg, r), (n, n, n)))


def is_ybe_solution(alg: FinAlgebra, r: Tensor2) -> bool:
    return not any(_ybe_cells(alg, r)[0])


# The coboundary coproducts as terms over r[a][b] and the product cubes
# c[k][i][j], nested [i][p][q]: the coefficient of b_p⊗b_q in the coproduct
# of bᵢ.  With 𝔩(bᵢ) = c[p][i][a] and 𝔯(bᵢ) = c[p][a][i] as matrices,
#   (X⊗id)(r) is X pa · r aq,   (id⊗X)(r) is r pb · X qb,
# and −τ(r) swaps the two indices of r and flips the sign.
COBOUNDARY = {
    "lie": {
        # δ_r(g) = (ad(g)⊗id + id⊗ad(g))(r)
        "co": ("ipq", (
            (+1, ("bracket", "pia"), ("r", "aq")),
            (+1, ("r", "pb"), ("bracket", "qib")))),
    },
    "prelie": {
        # ϑ_r(a) = (𝔩(a)⊗id + id⊗(𝔩−𝔯)(a))(r)
        "co": ("ipq", (
            (+1, ("mul", "pia"), ("r", "aq")),
            (+1, ("r", "pb"), ("mul", "qib")),
            (-1, ("r", "pb"), ("mul", "qbi")))),
    },
    "assoc": {
        # Δ_r(a) = (id⊗𝔩(a) − 𝔯(a)⊗id)(r)
        "co": ("ipq", (
            (+1, ("r", "pb"), ("mul", "qib")),
            (-1, ("mul", "pai"), ("r", "aq")))),
    },
    "dendriform": {
        # θ_≺,r(d) = ((𝔯_≺+𝔯_≻)(d)⊗id − id⊗𝔩_≻(d))(r)
        "co_lt": ("ipq", (
            (+1, ("lt", "pai"), ("r", "aq")),
            (+1, ("gt", "pai"), ("r", "aq")),
            (-1, ("r", "pb"), ("gt", "qib")))),
        # θ_≻,r(d) = (𝔯_≺(d)⊗id − id⊗(𝔩_≺+𝔩_≻)(d))(−τ(r))
        "co_gt": ("ipq", (
            (-1, ("lt", "pai"), ("r", "qa")),
            (+1, ("r", "bp"), ("lt", "qib")),
            (+1, ("r", "bp"), ("gt", "qib")))),
    },
}


def invariance_residual(alg: FinAlgebra, s: Tensor2) -> CheckReport:
    """Invariance of a 2-tensor under the kind-specific coboundary action.

    Lie: (ad(g)⊗id + id⊗ad(g))(s) = 0
    pre-Lie: (𝔩(a)⊗id + id⊗(𝔩−𝔯)(a))(s) = 0
    associative: (id⊗𝔩(a) − 𝔯(a)⊗id)(s) = 0

    The residual is the coboundary coproduct of s (``COBOUNDARY``).
    """
    if alg.kind not in ("lie", "prelie", "assoc"):
        raise ValueError(f"no invariance notion for kind {alg.kind!r}")
    _require_square(alg, s)
    law = {"invariance": COBOUNDARY[alg.kind]["co"]}
    residuals = law_residuals(law, {**alg.tables, "r": s.table}, alg.dim)
    return CheckReport.from_residuals(f"{alg.kind} invariance", residuals)


def coboundary_coproduct(alg: FinAlgebra, r: Tensor2) -> CoalgStruct:
    """Coproduct induced by an r-matrix.

    Lie: δ_r(g) = (ad(g)⊗id + id⊗ad(g))(r)
    pre-Lie: ϑ_r(a) = (𝔩(a)⊗id + id⊗(𝔩−𝔯)(a))(r)
    associative: Δ_r(a) = (id⊗𝔩(a) − 𝔯(a)⊗id)(r)
    dendriform: θ_≺,r from r, θ_≻,r from −τ(r) via the corresponding actions.
    """
    if alg.kind not in COBOUNDARY:
        raise ValueError(f"no coboundary coproduct for kind {alg.kind!r}")
    _require_square(alg, r)
    tables = {**alg.tables, "r": r.table}
    return _structure(CoalgStruct, alg.kind, alg.dim, COBOUNDARY[alg.kind], tables, alg.dim)


def kappa_tensor(qp: QuadraticPerm) -> Tensor2:
    """κ = Σⱼ eⱼ⊗fⱼ built from the ω-dual basis; satisfies τ(κ) = −κ.

    Its coefficient matrix is Fᵀ, F = `QuadraticPerm.dual` (column j is fⱼ).
    """
    return Tensor2(transpose(qp.dual.matrix))


# r•κ = Σ (x⊗e)⊗(y⊗f) for r = Σ x⊗y and κ = Σ e⊗f, on the flattened basis
# a·dim(B) + A of A⊗B.
LIFT = ("aAbB", ((+1, ("r", "ab"), ("kappa", "AB")),))


def blockwise_product(r: IntTable, kappa: IntTable, n: int, m: int) -> tuple:
    """The matrix of r•κ (``LIFT``) for the tables of an n×n matrix r and an
    m×m matrix κ: entry (a·m + A, b·m + B) is r[a][b]·κ[A][B]."""
    out, terms = LIFT
    tables = {"r": r, "kappa": kappa}
    return nest(contract(terms, tables, out, tensor_extents(out, n, m)), (n * m, n * m))


def lift_r(r: Tensor2, qp: QuadraticPerm) -> Tensor2:
    """r̂ = Σᵢⱼ (xᵢ⊗eⱼ)⊗(yᵢ⊗fⱼ) on the flattened A⊗B basis."""
    kappa = kappa_tensor(qp)
    return Tensor2(blockwise_product(r.table, kappa.table, r.dim_left, kappa.dim_left))


# The actions of the coregular bimodule, each a construction of action
# matrices M[i][p][q] (the matrix of bᵢ) from the product cubes c[k][i][j].
# The dual of a matrix action is its transpose, so 𝔩*(bᵢ)[p][q] = c[q][i][p]
# and 𝔯*(bᵢ)[p][q] = c[q][p][i].
COREGULAR_BIMODULE = {
    # (𝔤*, −ad*)
    "lie": {"rho": ("ipq", ((-1, ("bracket", "qip")),))},
    # (A*, 𝔯*−𝔩*, 𝔯*)
    "prelie": {
        "l": ("ipq", ((+1, ("mul", "qpi")), (-1, ("mul", "qip")))),
        "r": ("ipq", ((+1, ("mul", "qpi")),)),
    },
    # (A*, 𝔯*, 𝔩*)
    "assoc": {
        "l": ("ipq", ((+1, ("mul", "qpi")),)),
        "r": ("ipq", ((+1, ("mul", "qip")),)),
    },
    # (D*, −𝔯*_≻, 𝔩*_≺+𝔩*_≻, 𝔯*_≺+𝔯*_≻, −𝔩*_≺)
    "dendriform": {
        "l_lt": ("ipq", ((-1, ("gt", "qpi")),)),
        "r_lt": ("ipq", ((+1, ("lt", "qip")), (+1, ("gt", "qip")))),
        "l_gt": ("ipq", ((+1, ("lt", "qpi")), (+1, ("gt", "qpi")))),
        "r_gt": ("ipq", ((-1, ("lt", "qip")),)),
    },
}


def coregular_bimodule(alg: FinAlgebra) -> Bimodule:
    """The dual-space bimodule used in the O-operator correspondences
    (``COREGULAR_BIMODULE``).

    Lie: (𝔤*, −ad*).  Pre-Lie: (A*, 𝔯*−𝔩*, 𝔯*).  Associative: (A*, 𝔯*, 𝔩*).
    Dendriform: (D*, −𝔯*_≻, 𝔩*_≺+𝔩*_≻, 𝔯*_≺+𝔯*_≻, −𝔩*_≺) in the action order
    (𝔩_≺, 𝔯_≺, 𝔩_≻, 𝔯_≻).
    """
    return _bimodule(COREGULAR_BIMODULE, "coregular", alg)


# The O-operator identity on basis pairs (v₁, v₂) = (vᵢ, vⱼ) of the module V,
# nested [i][j][k]: coordinate k, in the algebra, of the identity applied to
# (vᵢ, vⱼ).  P: V → A is labelled P[a][i] (column i is P(vᵢ)), the products
# c[k][a][b] and the action matrices M[a][p][q] (the matrix of bₐ).  Every
# term has degree 2 in P and is contracted left to right:
#   P(v₁)·P(v₂)           is  P ai · c kab · P bj,
#   P(X(P(v₁))v₂)         is  P ai · X apj · P kp,
#   P(Y(P(v₂))v₁)         is  P aj · Y api · P kp.
OOPERATOR_LAWS = {
    "lie": {
        # [P(v₁), P(v₂)] = P(ρ(P(v₁))v₂ − ρ(P(v₂))v₁)
        "ooperator": ("ijk", (
            (+1, ("P", "ai"), ("bracket", "kab"), ("P", "bj")),
            (-1, ("P", "ai"), ("rho", "apj"), ("P", "kp")),
            (+1, ("P", "aj"), ("rho", "api"), ("P", "kp")))),
    },
    "prelie": {
        # P(v₁)⋄P(v₂) = P(𝔩(P(v₁))v₂ + 𝔯(P(v₂))v₁)
        "ooperator": ("ijk", (
            (+1, ("P", "ai"), ("mul", "kab"), ("P", "bj")),
            (-1, ("P", "ai"), ("l", "apj"), ("P", "kp")),
            (-1, ("P", "aj"), ("r", "api"), ("P", "kp")))),
    },
    "assoc": {
        # P(v₁)∗P(v₂) = P(𝔩(P(v₁))v₂ + 𝔯(P(v₂))v₁)
        "ooperator": ("ijk", (
            (+1, ("P", "ai"), ("mul", "kab"), ("P", "bj")),
            (-1, ("P", "ai"), ("l", "apj"), ("P", "kp")),
            (-1, ("P", "aj"), ("r", "api"), ("P", "kp")))),
    },
    "dendriform": {
        # P(v₁)≺P(v₂) = P(𝔩_≺(P(v₁))v₂ + 𝔯_≺(P(v₂))v₁)
        "ooperator_lt": ("ijk", (
            (+1, ("P", "ai"), ("lt", "kab"), ("P", "bj")),
            (-1, ("P", "ai"), ("l_lt", "apj"), ("P", "kp")),
            (-1, ("P", "aj"), ("r_lt", "api"), ("P", "kp")))),
        # P(v₁)≻P(v₂) = P(𝔩_≻(P(v₁))v₂ + 𝔯_≻(P(v₂))v₁)
        "ooperator_gt": ("ijk", (
            (+1, ("P", "ai"), ("gt", "kab"), ("P", "bj")),
            (-1, ("P", "ai"), ("l_gt", "apj"), ("P", "kp")),
            (-1, ("P", "aj"), ("r_gt", "api"), ("P", "kp")))),
    },
}


def check_ooperator(bim: Bimodule, P: LinMap) -> CheckReport:
    """Verify the O-operator identity for P: V → A on all basis pairs of V."""
    alg = bim.algebra
    if alg.kind not in OOPERATOR_LAWS:
        raise ValueError(f"no O-operator notion for kind {alg.kind!r}")
    n, m = alg.dim, bim.dim
    if P.rows != n or (n and P.cols != m):
        raise ValueError(f"operator must be {n}x{m} (module to algebra), got {P.rows}x{P.cols}")
    extents = {"i": m, "j": m, "p": m, "k": n, "a": n, "b": n}
    residuals = law_residuals(
        OOPERATOR_LAWS[alg.kind], {**alg.tables, **bim.tables, "P": P.table},
        extents
    )
    return CheckReport.from_residuals(f"{alg.kind} O-operator", residuals)


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


# The agreement residuals of the transfer theorems, over the tensors they
# compare.  A label order other than the output's permutes tensor slots:
# "iqp" is τ on a coproduct cube, "ikj" is id⊗τ on a 3-tensor.
TRANSFER_LAWS = {
    # C_r − (A_r − (id⊗τ)(A_r))
    "cybe_from_aybe": ("ijk", ((+1, ("C", "ijk")), (-1, ("A", "ijk")), (+1, ("A", "ikj")))),
    # PL_r − (τ₁₃(D_r) − σ(D_r)), τ₁₃(x⊗y⊗z) = z⊗y⊗x and σ(x⊗y⊗z) = z⊗x⊗y
    "plybe_from_dybe": ("ijk", ((+1, ("PL", "ijk")), (-1, ("D", "kji")), (+1, ("D", "jki")))),
    # Δ_r − τΔ_r − δ_r
    "cobracket_agree": ("ipq", ((+1, ("co", "ipq")), (-1, ("co", "iqp")), (-1, ("lie", "ipq")))),
    # θ_≻,r − τθ_≺,r − ϑ_r
    "coproduct_agree": ("ipq", (
        (+1, ("co_gt", "ipq")), (-1, ("co_lt", "iqp")), (-1, ("prelie", "ipq")))),
    # r̂ + τ(r̂)
    "lift_skew": ("ab", ((+1, ("rhat", "ab")), (+1, ("rhat", "ba")))),
    # the induced coproduct − the coboundary coproduct of r̂
    "induced_cobracket_is_coboundary": ("ipq", (
        (+1, ("induced", "ipq")), (-1, ("coboundary", "ipq")))),
    "induced_coproduct_is_coboundary": ("ipq", (
        (+1, ("induced", "ipq")), (-1, ("coboundary", "ipq")))),
}


def _transfer_residuals(names: tuple, tables: dict, n: int) -> dict:
    """The residuals of the named ``TRANSFER_LAWS`` on ``tables``
    (`exact.IntTable` each), every label of extent ``n``."""
    return law_residuals({name: TRANSFER_LAWS[name] for name in names}, tables, n)


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
    tables = {"C": cube_table(*_ybe_cells(commutator_lie(alg), r), (alg.dim,) * 3),
              "A": cube_table(*_ybe_cells(alg, r), (alg.dim,) * 3)}
    return CheckReport.from_residuals(
        "associative-to-Lie Yang-Baxter transfer",
        _transfer_residuals(("cybe_from_aybe",), tables, alg.dim),
    )


def transfer_dybe_to_plybe(alg: FinAlgebra, r: Tensor2) -> CheckReport:
    """PL_r is a signed slot-permutation combination of D_r, for symmetric r."""
    _require(alg.kind == "dendriform", "expected a dendriform algebra")
    _require((r - flip(r)).is_zero(), "r is not symmetric")
    tables = {"PL": cube_table(*_ybe_cells(dendriform_to_prelie(alg), r), (alg.dim,) * 3),
              "D": cube_table(*_ybe_cells(alg, r), (alg.dim,) * 3)}
    return CheckReport.from_residuals(
        "dendriform-to-pre-Lie Yang-Baxter transfer",
        _transfer_residuals(("plybe_from_dybe",), tables, alg.dim),
    )


def transfer_assoc_cobound_to_lie(alg: FinAlgebra, r: Tensor2) -> CheckReport:
    """Δ_r − τΔ_r equals the Lie coboundary δ_r of the commutator algebra.

    Requires r skew-symmetric.
    """
    _require(alg.kind == "assoc", "expected an associative algebra")
    _require((r + flip(r)).is_zero(), "r is not skew-symmetric")
    tables = {"co": coboundary_coproduct(alg, r).tables["co"],
              "lie": coboundary_coproduct(commutator_lie(alg), r).tables["co"]}
    return CheckReport.from_residuals(
        "associative-to-Lie coboundary transfer",
        _transfer_residuals(("cobracket_agree",), tables, alg.dim),
    )


def transfer_dend_cobound_to_prelie(alg: FinAlgebra, r: Tensor2) -> CheckReport:
    """θ_≻,r − τθ_≺,r equals the pre-Lie coboundary ϑ_r.

    Requires r symmetric.
    """
    _require(alg.kind == "dendriform", "expected a dendriform algebra")
    _require((r - flip(r)).is_zero(), "r is not symmetric")
    tables = {**coboundary_coproduct(alg, r).tables,
              "prelie": coboundary_coproduct(dendriform_to_prelie(alg), r).tables["co"]}
    return CheckReport.from_residuals(
        "dendriform-to-pre-Lie coboundary transfer",
        _transfer_residuals(("coproduct_agree",), tables, alg.dim),
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
    residuals = law_residuals({"lift_solves_cybe": YBE_LAWS["lie"]},
                              {**lie.tables, "r": rhat.table}, lie.dim)
    invariance = invariance_residual(lie, rhat + flip(rhat))
    residuals.add("lift_symmetric_part_invariant", *invariance.residuals.flat["invariance"])
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
    _, induced = induce_lie_bialgebra(alg, coboundary_coproduct(alg, r), qp)
    tables = {"rhat": rhat.table, "induced": induced.tables["co"],
              "coboundary": coboundary_coproduct(lie, rhat).tables["co"]}
    residuals = _transfer_residuals(
        ("lift_skew", "induced_cobracket_is_coboundary"), tables, lie.dim)
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
    laws = {"lift_skew": TRANSFER_LAWS["lift_skew"], "lift_solves_aybe": YBE_LAWS["assoc"]}
    residuals = law_residuals(laws, {**assoc.tables, "rhat": rhat.table, "r": rhat.table},
                              assoc.dim)
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
    _, induced = induce_asi_bialgebra(alg, coboundary_coproduct(alg, r), qp)
    tables = {"induced": induced.tables["co"],
              "coboundary": coboundary_coproduct(assoc, rhat).tables["co"]}
    residuals = _transfer_residuals(("induced_coproduct_is_coboundary",), tables, assoc.dim)
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
