"""Constructions between algebra kinds.

Covers the splitting-and-collapsing maps (dendriform → pre-Lie, dendriform →
associative, commutator Lie algebras) and the tensor constructions with a perm
algebra, together with the commuting-square check relating them.

Every construction is a signed sum of structure cubes, written as
`exact.contract` terms like the laws: the splitting and commutator maps sum
cubes with their input axes possibly swapped, and the tensor constructions
multiply an op cube of the first factor by the perm cube, one loop over the
pairs of nonzero constants.  The new constants are summed as integers over
one common denominator, so they are exact, and the new algebra's table is
read straight from those integers (`algebras._structure`).

Tensor-product algebras live on the flattened basis of A⊗B with index
``a*dim(B) + b`` (algebra factor first).
"""

from __future__ import annotations

from .algebras import CheckReport, FinAlgebra, _structure, check_axioms, law_residuals

# Each construction is (output labels, terms) over the input cubes, labelled
# c[k][i][j]; a tensor construction labels the perm cube's axes K, I, J, so
# the output "kKiIjJ" is the cube on the flattened basis k·dim(B) + K.
CONSTRUCTIONS = {
    # d₁⋄d₂ = d₁≻d₂ − d₂≺d₁
    "dendriform_to_prelie": ("kij", ((+1, ("gt", "kij")), (-1, ("lt", "kji")))),
    # d₁∗d₂ = d₁≺d₂ + d₁≻d₂
    "dendriform_to_assoc": ("kij", ((+1, ("lt", "kij")), (+1, ("gt", "kij")))),
    # [x, y] = x·y − y·x
    "commutator_lie": ("kij", ((+1, ("mul", "kij")), (-1, ("mul", "kji")))),
    # [a₁⊗b₁, a₂⊗b₂] = (a₁⋄a₂)⊗(b₁b₂) − (a₂⋄a₁)⊗(b₂b₁)
    "tensor_lie": ("kKiIjJ", (
        (+1, ("mul", "kij"), ("perm", "KIJ")),
        (-1, ("mul", "kji"), ("perm", "KJI")))),
    # (d₁⊗b₁)∗(d₂⊗b₂) = (d₁≻d₂)⊗(b₁b₂) + (d₁≺d₂)⊗(b₂b₁)
    "tensor_assoc": ("kKiIjJ", (
        (+1, ("gt", "kij"), ("perm", "KIJ")),
        (+1, ("lt", "kij"), ("perm", "KJI")))),
}


def _construct(name: str, kind: str, op: str, tables: dict, n: int, extents) -> FinAlgebra:
    """The ``kind`` algebra of dimension ``n`` whose ``op`` cube is the
    construction ``name`` evaluated on ``tables`` (`exact.IntTable` each)."""
    return _structure(FinAlgebra, kind, n, {op: CONSTRUCTIONS[name]}, tables, extents)


def dendriform_to_prelie(alg: FinAlgebra) -> FinAlgebra:
    """d₁⋄d₂ = d₁≻d₂ − d₂≺d₁."""
    if alg.kind != "dendriform":
        raise ValueError("expected a dendriform algebra")
    return _construct("dendriform_to_prelie", "prelie", "mul", alg.tables, alg.dim, alg.dim)


def dendriform_to_assoc(alg: FinAlgebra) -> FinAlgebra:
    """d₁∗d₂ = d₁≺d₂ + d₁≻d₂."""
    if alg.kind != "dendriform":
        raise ValueError("expected a dendriform algebra")
    return _construct("dendriform_to_assoc", "assoc", "mul", alg.tables, alg.dim, alg.dim)


def commutator_lie(alg: FinAlgebra) -> FinAlgebra:
    """[x, y] = x·y − y·x for an associative or pre-Lie algebra."""
    if alg.kind not in ("assoc", "prelie"):
        raise ValueError("commutator Lie algebra needs an associative or pre-Lie algebra")
    return _construct("commutator_lie", "lie", "bracket", alg.tables, alg.dim, alg.dim)


def tensor_extents(labels: str, na: int, nb: int) -> dict:
    """Extents of the labels of a table on A⊗B: a lower-case label runs over
    the basis of A, an upper-case one over the basis of B."""
    return {x: na if x.islower() else nb for x in labels}


def tensor_lie(prelie: FinAlgebra, perm: FinAlgebra) -> FinAlgebra:
    """Lie bracket on A⊗B: [a₁⊗b₁, a₂⊗b₂] = (a₁⋄a₂)⊗(b₁b₂) − (a₂⋄a₁)⊗(b₂b₁)."""
    if prelie.kind != "prelie" or perm.kind != "perm":
        raise ValueError("expected a pre-Lie algebra and a perm algebra")
    tables = {"mul": prelie.tables["mul"], "perm": perm.tables["mul"]}
    return _construct("tensor_lie", "lie", "bracket", tables, prelie.dim * perm.dim,
                      tensor_extents("kKiIjJ", prelie.dim, perm.dim))


def tensor_assoc(dendriform: FinAlgebra, perm: FinAlgebra) -> FinAlgebra:
    """Product on D⊗B: (d₁⊗b₁)∗(d₂⊗b₂) = (d₁≻d₂)⊗(b₁b₂) + (d₁≺d₂)⊗(b₂b₁)."""
    if dendriform.kind != "dendriform" or perm.kind != "perm":
        raise ValueError("expected a dendriform algebra and a perm algebra")
    tables = {**dendriform.tables, "perm": perm.tables["mul"]}
    return _construct("tensor_assoc", "assoc", "mul", tables, dendriform.dim * perm.dim,
                      tensor_extents("kKiIjJ", dendriform.dim, perm.dim))


# The two routes' brackets on D⊗B: [x, y] via pre-Lie − [x, y] via the
# associative algebra.
SQUARE_LAW = {
    "square_commutes": ("kij", ((+1, ("via_prelie", "kij")), (-1, ("via_assoc", "kij")))),
}


def check_square(dendriform: FinAlgebra, perm: FinAlgebra) -> CheckReport:
    """Both routes from (D, B) to a Lie algebra on D⊗B agree.

    Route 1: dendriform → pre-Lie, then tensor with the perm algebra.
    Route 2: tensor-product associative algebra, then commutator.
    Also re-checks that every intermediate algebra satisfies its axioms.
    """
    prelie = dendriform_to_prelie(dendriform)
    via_prelie = tensor_lie(prelie, perm)
    via_assoc = commutator_lie(tensor_assoc(dendriform, perm))
    residuals = law_residuals(SQUARE_LAW, {"via_prelie": via_prelie.tables["bracket"],
                                           "via_assoc": via_assoc.tables["bracket"]},
                              via_prelie.dim)
    for name, rep, law in (
        ("prelie_axioms", check_axioms(prelie), "pre_lie"),
        ("assoc_axioms", check_axioms(dendriform_to_assoc(dendriform)), "associativity"),
        ("tensor_lie_jacobi", check_axioms(via_prelie), "jacobi"),
    ):
        residuals.add(name, *rep.residuals.flat[law])
    return CheckReport.from_residuals("dendriform/perm commuting square", residuals)
