"""Constructions between algebra kinds.

Covers the splitting-and-collapsing maps (dendriform → pre-Lie, dendriform →
associative, commutator Lie algebras) and the tensor constructions with a perm
algebra, together with the commuting-square check relating them.

Tensor-product algebras live on the flattened basis of A⊗B with index
``a*dim(B) + b`` (algebra factor first).
"""

from __future__ import annotations

from .algebras import CheckReport, FinAlgebra, check_axioms
from .exact import ZERO


def dendriform_to_prelie(alg: FinAlgebra) -> FinAlgebra:
    """d₁⋄d₂ = d₁≻d₂ − d₂≺d₁."""
    if alg.kind != "dendriform":
        raise ValueError("expected a dendriform algebra")
    n = alg.dim
    cube = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = alg.multiply("gt", alg.basis(i), alg.basis(j)) - alg.multiply(
                "lt", alg.basis(j), alg.basis(i)
            )
            for k in range(n):
                cube[k][i][j] = v.coords[k]
    return FinAlgebra("prelie", n, {"mul": cube})


def dendriform_to_assoc(alg: FinAlgebra) -> FinAlgebra:
    """d₁∗d₂ = d₁≺d₂ + d₁≻d₂."""
    if alg.kind != "dendriform":
        raise ValueError("expected a dendriform algebra")
    n = alg.dim
    cube = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = alg.multiply("lt", alg.basis(i), alg.basis(j)) + alg.multiply(
                "gt", alg.basis(i), alg.basis(j)
            )
            for k in range(n):
                cube[k][i][j] = v.coords[k]
    return FinAlgebra("assoc", n, {"mul": cube})


def commutator_lie(alg: FinAlgebra) -> FinAlgebra:
    """[x, y] = x·y − y·x for an associative or pre-Lie algebra."""
    if alg.kind not in ("assoc", "prelie"):
        raise ValueError("commutator Lie algebra needs an associative or pre-Lie algebra")
    n = alg.dim
    cube = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = alg.multiply("mul", alg.basis(i), alg.basis(j)) - alg.multiply(
                "mul", alg.basis(j), alg.basis(i)
            )
            for k in range(n):
                cube[k][i][j] = v.coords[k]
    return FinAlgebra("lie", n, {"bracket": cube})


def tensor_index(dim_b: int, a: int, b: int) -> int:
    return a * dim_b + b


def tensor_lie(prelie: FinAlgebra, perm: FinAlgebra) -> FinAlgebra:
    """Lie bracket on A⊗B: [a₁⊗b₁, a₂⊗b₂] = (a₁⋄a₂)⊗(b₁b₂) − (a₂⋄a₁)⊗(b₂b₁)."""
    if prelie.kind != "prelie" or perm.kind != "perm":
        raise ValueError("expected a pre-Lie algebra and a perm algebra")
    na, nb = prelie.dim, perm.dim
    n = na * nb
    cube = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a1 in range(na):
        for b1 in range(nb):
            i = tensor_index(nb, a1, b1)
            for a2 in range(na):
                for b2 in range(nb):
                    j = tensor_index(nb, a2, b2)
                    p = prelie.multiply("mul", prelie.basis(a1), prelie.basis(a2))
                    q = perm.multiply("mul", perm.basis(b1), perm.basis(b2))
                    p2 = prelie.multiply("mul", prelie.basis(a2), prelie.basis(a1))
                    q2 = perm.multiply("mul", perm.basis(b2), perm.basis(b1))
                    for ka in range(na):
                        for kb in range(nb):
                            k = tensor_index(nb, ka, kb)
                            cube[k][i][j] = (
                                p.coords[ka] * q.coords[kb]
                                - p2.coords[ka] * q2.coords[kb]
                            )
    return FinAlgebra("lie", n, {"bracket": cube})


def tensor_assoc(dendriform: FinAlgebra, perm: FinAlgebra) -> FinAlgebra:
    """Product on D⊗B: (d₁⊗b₁)∗(d₂⊗b₂) = (d₁≻d₂)⊗(b₁b₂) + (d₁≺d₂)⊗(b₂b₁)."""
    if dendriform.kind != "dendriform" or perm.kind != "perm":
        raise ValueError("expected a dendriform algebra and a perm algebra")
    nd, nb = dendriform.dim, perm.dim
    n = nd * nb
    cube = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for d1 in range(nd):
        for b1 in range(nb):
            i = tensor_index(nb, d1, b1)
            for d2 in range(nd):
                for b2 in range(nb):
                    j = tensor_index(nb, d2, b2)
                    g = dendriform.multiply("gt", dendriform.basis(d1), dendriform.basis(d2))
                    qb = perm.multiply("mul", perm.basis(b1), perm.basis(b2))
                    l = dendriform.multiply("lt", dendriform.basis(d1), dendriform.basis(d2))
                    qb2 = perm.multiply("mul", perm.basis(b2), perm.basis(b1))
                    for kd in range(nd):
                        for kb in range(nb):
                            k = tensor_index(nb, kd, kb)
                            cube[k][i][j] = (
                                g.coords[kd] * qb.coords[kb]
                                + l.coords[kd] * qb2.coords[kb]
                            )
    return FinAlgebra("assoc", n, {"mul": cube})


def check_square(dendriform: FinAlgebra, perm: FinAlgebra) -> CheckReport:
    """Both routes from (D, B) to a Lie algebra on D⊗B agree.

    Route 1: dendriform → pre-Lie, then tensor with the perm algebra.
    Route 2: tensor-product associative algebra, then commutator.
    Also re-checks that every intermediate algebra satisfies its axioms.
    """
    via_prelie = tensor_lie(dendriform_to_prelie(dendriform), perm)
    via_assoc = commutator_lie(tensor_assoc(dendriform, perm))
    residuals = {
        "square_commutes": tuple(
            tuple(
                tuple(
                    via_prelie.products["bracket"][k][i][j]
                    - via_assoc.products["bracket"][k][i][j]
                    for j in range(via_prelie.dim)
                )
                for i in range(via_prelie.dim)
            )
            for k in range(via_prelie.dim)
        ),
        "prelie_axioms": check_axioms(dendriform_to_prelie(dendriform)).residuals[
            "pre_lie"
        ],
        "assoc_axioms": check_axioms(dendriform_to_assoc(dendriform)).residuals[
            "associativity"
        ],
        "tensor_lie_jacobi": check_axioms(via_prelie).residuals["jacobi"],
    }
    return CheckReport.from_residuals("dendriform/perm commuting square", residuals)
