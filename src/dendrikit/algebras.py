"""Finite-dimensional algebras given by structure constants, and their bimodules.

Five algebra kinds are supported: dendriform (two products ``lt`` = ≺ and
``gt`` = ≻), pre-Lie (``mul`` = ⋄), perm (``mul``), associative (``mul``) and
Lie (``bracket``).  A structure-constant cube ``c`` encodes a product by
``c[k][i][j]`` = coefficient of basis element k in bᵢ·bⱼ.

The cube is the canonical form: it is what files, equality and the
constructions read.  Each algebra also derives, once in its constructor, a
private sparse table (i, j) ↦ ((k, cₙ, c_d), …) holding the numerator and
denominator of each nonzero constant only, and every product, left and
right multiplication goes through `exact.combine` over that table, which
sums Python ints and returns reduced Fractions.  Bimodules keep the same
kind of table for their action matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import (
    LinMap,
    Vec,
    ZERO,
    combine,
    freeze_cube,
    nonzero,
    reshape,
    sparse_flat,
    transpose,
)

KIND_OPS = {
    "dendriform": ("lt", "gt"),
    "prelie": ("mul",),
    "perm": ("mul",),
    "assoc": ("mul",),
    "lie": ("bracket",),
}

KIND_BIMODULE_ACTIONS = {
    "dendriform": ("l_lt", "r_lt", "l_gt", "r_gt"),
    "prelie": ("l", "r"),
    "assoc": ("l", "r"),
    "lie": ("rho",),
}


def first_nonzero_nested(x, path=()):
    """Depth-first search for the first nonzero scalar in nested containers."""
    if isinstance(x, Fraction):
        return (path, x) if x != 0 else None
    if isinstance(x, dict):
        items = ((k, x[k]) for k in sorted(x))
    else:
        items = enumerate(x)
    for i, y in items:
        hit = first_nonzero_nested(y, path + (i,))
        if hit is not None:
            return hit
    return None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive basis-wise axiom check.

    ``residuals`` maps each named law to its full residual tensor (nested
    tuples of Fractions, identically zero iff the law holds).
    """

    subject: str
    residuals: dict
    ok: bool
    first_violation: Optional[tuple]

    @staticmethod
    def from_residuals(subject: str, residuals: dict) -> "CheckReport":
        first = None
        for name, res in residuals.items():
            hit = first_nonzero_nested(res)
            if hit is not None:
                first = (name, hit[0], hit[1])
                break
        return CheckReport(subject, residuals, first is None, first)

    def law_ok(self, name: str) -> bool:
        return first_nonzero_nested(self.residuals[name]) is None


@dataclass(frozen=True)
class FinAlgebra:
    kind: str
    dim: int
    products: dict
    _pairs: dict = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, dim: int, products: dict):
        if kind not in KIND_OPS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        expected = KIND_OPS[kind]
        if set(products) != set(expected):
            raise ValueError(
                f"{kind} algebra needs products {sorted(expected)}, "
                f"got {sorted(products)}"
            )
        frozen = {name: freeze_cube(cube) for name, cube in products.items()}
        for name, cube in frozen.items():
            if len(cube) != dim or any(
                len(plane) != dim or any(len(row) != dim for row in plane)
                for plane in cube
            ):
                raise ValueError(f"product {name!r} cube is not {dim}^3")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "products", frozen)
        # Entry i·dim + j lists (k, numerator, denominator) of the nonzero
        # coefficients c of bᵢ·bⱼ.
        object.__setattr__(self, "_pairs", {
            name: tuple(
                tuple(
                    (k, c.numerator, c.denominator)
                    for k in range(dim)
                    if (c := cube[k][i][j])
                )
                for i in range(dim)
                for j in range(dim)
            )
            for name, cube in frozen.items()
        })

    @property
    def ops(self) -> tuple[str, ...]:
        return KIND_OPS[self.kind]

    def product_coeff(self, op: str, k: int, i: int, j: int) -> Fraction:
        """Coefficient of basis element k in bᵢ·bⱼ."""
        return self.products[op][k][i][j]

    def product_terms(self, op: str, i: int, j: int) -> tuple:
        """The nonzero (k, c) with bᵢ·bⱼ = Σ c·bₖ."""
        cube = self.products[op]
        return tuple((k, cube[k][i][j]) for k, _n, _d in self._pairs[op][i * self.dim + j])

    def multiply(self, op: str, u: Vec, v: Vec) -> Vec:
        n = self.dim
        right = nonzero(v.coords)
        terms = (
            (i * n + j, an * bn, ad * bd)
            for i, an, ad in nonzero(u.coords)
            for j, bn, bd in right
        )
        return Vec(combine(terms, self._pairs[op], n))

    def left_mult(self, op: str, a: Vec) -> LinMap:
        """Matrix of v ↦ a·v."""
        n = self.dim
        left = nonzero(a.coords)
        # Column j is the product a·bⱼ.
        cols = [combine(((i * n + j, xn, xd) for i, xn, xd in left), self._pairs[op], n)
                for j in range(n)]
        return LinMap(transpose(cols))

    def right_mult(self, op: str, a: Vec) -> LinMap:
        """Matrix of v ↦ v·a."""
        n = self.dim
        right = nonzero(a.coords)
        # Column i is the product bᵢ·a.
        cols = [combine(((i * n + j, xn, xd) for j, xn, xd in right), self._pairs[op], n)
                for i in range(n)]
        return LinMap(transpose(cols))

    def basis(self, i: int) -> Vec:
        return Vec.basis(self.dim, i)


@dataclass(frozen=True)
class Bimodule:
    """A module over a FinAlgebra, given by matrices of the basis actions.

    ``actions[name][i]`` is the matrix of the action of basis element bᵢ
    under the named operation; actions extend linearly.
    """

    algebra: FinAlgebra
    dim: int
    actions: dict
    _flat: dict = field(init=False, repr=False, compare=False)

    def __init__(self, algebra: FinAlgebra, dim: int, actions: dict):
        if algebra.kind not in KIND_BIMODULE_ACTIONS:
            raise ValueError(f"no bimodule notion for kind {algebra.kind!r}")
        expected = KIND_BIMODULE_ACTIONS[algebra.kind]
        if set(actions) != set(expected):
            raise ValueError(
                f"{algebra.kind} bimodule needs actions {sorted(expected)}, "
                f"got {sorted(actions)}"
            )
        frozen = {
            name: tuple(LinMap(m).matrix for m in mats)
            for name, mats in actions.items()
        }
        for name, mats in frozen.items():
            if len(mats) != algebra.dim:
                raise ValueError(f"action {name!r} needs {algebra.dim} matrices")
            for m in mats:
                if len(m) != dim or any(len(row) != dim for row in m):
                    raise ValueError(f"action {name!r} matrices must be {dim}x{dim}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "actions", frozen)
        # Entry i lists the nonzero entries of the matrix of bᵢ, flattened, as
        # (position, numerator, denominator).
        object.__setattr__(self, "_flat", {
            name: tuple(sparse_flat(m) for m in mats) for name, mats in frozen.items()
        })

    def action(self, name: str, a: Vec) -> LinMap:
        n = self.dim
        return LinMap(reshape(combine(nonzero(a.coords), self._flat[name], n * n), n))


def regular_bimodule(alg: FinAlgebra) -> Bimodule:
    """The algebra acting on itself by left and right multiplications."""
    if alg.kind == "lie":
        mats = {"rho": tuple(alg.left_mult("bracket", alg.basis(i)).matrix
                             for i in range(alg.dim))}
    elif alg.kind == "dendriform":
        mats = {
            "l_lt": tuple(alg.left_mult("lt", alg.basis(i)).matrix for i in range(alg.dim)),
            "r_lt": tuple(alg.right_mult("lt", alg.basis(i)).matrix for i in range(alg.dim)),
            "l_gt": tuple(alg.left_mult("gt", alg.basis(i)).matrix for i in range(alg.dim)),
            "r_gt": tuple(alg.right_mult("gt", alg.basis(i)).matrix for i in range(alg.dim)),
        }
    elif alg.kind in ("prelie", "assoc"):
        mats = {
            "l": tuple(alg.left_mult("mul", alg.basis(i)).matrix for i in range(alg.dim)),
            "r": tuple(alg.right_mult("mul", alg.basis(i)).matrix for i in range(alg.dim)),
        }
    else:
        raise ValueError(f"no regular bimodule for kind {alg.kind!r}")
    return Bimodule(alg, alg.dim, mats)


def _triple_residual(alg: FinAlgebra, law) -> tuple:
    """Evaluate law(bᵢ, bⱼ, bₖ) (a Vec) over all basis triples."""
    n = alg.dim
    return tuple(
        tuple(
            tuple(law(alg.basis(i), alg.basis(j), alg.basis(k)).coords for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _pair_residual(alg: FinAlgebra, law) -> tuple:
    n = alg.dim
    return tuple(
        tuple(law(alg.basis(i), alg.basis(j)).coords for j in range(n))
        for i in range(n)
    )


def check_axioms(alg: FinAlgebra) -> CheckReport:
    """Verify the defining laws of the algebra on all basis tuples.

    Returns a CheckReport with one residual tensor per law; all residuals
    vanish exactly iff the structure constants define an algebra of the
    declared kind.
    """
    if alg.kind == "dendriform":
        lt = lambda x, y: alg.multiply("lt", x, y)
        gt = lambda x, y: alg.multiply("gt", x, y)
        residuals = {
            # (x≺y)≺z = x≺(y≺z) + x≺(y≻z)
            "dendriform_1": _triple_residual(
                alg, lambda x, y, z: lt(lt(x, y), z) - lt(x, lt(y, z)) - lt(x, gt(y, z))
            ),
            # (x≻y)≺z = x≻(y≺z)
            "dendriform_2": _triple_residual(
                alg, lambda x, y, z: lt(gt(x, y), z) - gt(x, lt(y, z))
            ),
            # x≻(y≻z) = (x≺y)≻z + (x≻y)≻z
            "dendriform_3": _triple_residual(
                alg, lambda x, y, z: gt(x, gt(y, z)) - gt(lt(x, y), z) - gt(gt(x, y), z)
            ),
        }
    elif alg.kind == "prelie":
        mul = lambda x, y: alg.multiply("mul", x, y)
        residuals = {
            # x⋄(y⋄z) − (x⋄y)⋄z = y⋄(x⋄z) − (y⋄x)⋄z
            "pre_lie": _triple_residual(
                alg,
                lambda x, y, z: mul(x, mul(y, z))
                - mul(mul(x, y), z)
                - mul(y, mul(x, z))
                + mul(mul(y, x), z),
            ),
        }
    elif alg.kind == "perm":
        mul = lambda x, y: alg.multiply("mul", x, y)
        residuals = {
            # x(yz) = (xy)z
            "perm_assoc": _triple_residual(
                alg, lambda x, y, z: mul(x, mul(y, z)) - mul(mul(x, y), z)
            ),
            # (xy)z = (yx)z
            "perm_left_commute": _triple_residual(
                alg, lambda x, y, z: mul(mul(x, y), z) - mul(mul(y, x), z)
            ),
        }
    elif alg.kind == "assoc":
        mul = lambda x, y: alg.multiply("mul", x, y)
        residuals = {
            "associativity": _triple_residual(
                alg, lambda x, y, z: mul(x, mul(y, z)) - mul(mul(x, y), z)
            ),
        }
    elif alg.kind == "lie":
        br = lambda x, y: alg.multiply("bracket", x, y)
        residuals = {
            "antisymmetry": _pair_residual(alg, lambda x, y: br(x, y) + br(y, x)),
            "jacobi": _triple_residual(
                alg,
                lambda x, y, z: br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y)),
            ),
        }
    else:  # pragma: no cover - kind validated in constructor
        raise ValueError(alg.kind)
    return CheckReport.from_residuals(f"{alg.kind} axioms", residuals)


def _op_pair_residual(alg: FinAlgebra, law) -> tuple:
    """Evaluate an operator identity law(bᵢ, bⱼ) (a LinMap) over basis pairs."""
    n = alg.dim
    return tuple(
        tuple(law(alg.basis(i), alg.basis(j)).matrix for j in range(n))
        for i in range(n)
    )


def check_bimodule(bim: Bimodule) -> CheckReport:
    """Verify the bimodule laws for the underlying algebra kind.

    For dendriform algebras there are nine labelled operator identities
    (``dm1`` .. ``dm9``); for pre-Lie and associative algebras the familiar
    left/right compatibility laws; for Lie algebras the representation law.
    """
    alg = bim.algebra
    act = bim.action

    def comp(p: LinMap, q: LinMap) -> LinMap:
        return p.compose(q)

    if alg.kind == "dendriform":
        lt = lambda x, y: alg.multiply("lt", x, y)
        gt = lambda x, y: alg.multiply("gt", x, y)
        l_lt = lambda a: act("l_lt", a)
        r_lt = lambda a: act("r_lt", a)
        l_gt = lambda a: act("l_gt", a)
        r_gt = lambda a: act("r_gt", a)
        residuals = {
            # 𝔩_≺(d₁≺d₂) = 𝔩_≺(d₁)𝔩_≺(d₂) + 𝔩_≺(d₁)𝔩_≻(d₂)
            "dm1": _op_pair_residual(
                alg,
                lambda d1, d2: l_lt(lt(d1, d2))
                - comp(l_lt(d1), l_lt(d2))
                - comp(l_lt(d1), l_gt(d2)),
            ),
            # 𝔩_≺(d₁≻d₂) = 𝔩_≻(d₁)𝔩_≺(d₂)
            "dm2": _op_pair_residual(
                alg, lambda d1, d2: l_lt(gt(d1, d2)) - comp(l_gt(d1), l_lt(d2))
            ),
            # 𝔯_≺(d₁)𝔩_≺(d₂) = 𝔩_≺(d₂)𝔯_≺(d₁) + 𝔩_≺(d₂)𝔯_≻(d₁)
            "dm3": _op_pair_residual(
                alg,
                lambda d1, d2: comp(r_lt(d1), l_lt(d2))
                - comp(l_lt(d2), r_lt(d1))
                - comp(l_lt(d2), r_gt(d1)),
            ),
            # 𝔯_≺(d₁)𝔩_≻(d₂) = 𝔩_≻(d₂)𝔯_≺(d₁)
            "dm4": _op_pair_residual(
                alg, lambda d1, d2: comp(r_lt(d1), l_gt(d2)) - comp(l_gt(d2), r_lt(d1))
            ),
            # 𝔯_≺(d₁)𝔯_≺(d₂) = 𝔯_≺(d₂≺d₁ + d₂≻d₁)
            "dm5": _op_pair_residual(
                alg,
                lambda d1, d2: comp(r_lt(d1), r_lt(d2))
                - r_lt(lt(d2, d1) + gt(d2, d1)),
            ),
            # 𝔯_≺(d₁)𝔯_≻(d₂) = 𝔯_≻(d₂≺d₁)
            "dm6": _op_pair_residual(
                alg, lambda d1, d2: comp(r_lt(d1), r_gt(d2)) - r_gt(lt(d2, d1))
            ),
            # 𝔯_≻(d₁)𝔩_≺(d₂) + 𝔯_≻(d₁)𝔩_≻(d₂) = 𝔩_≻(d₂)𝔯_≻(d₁)
            "dm7": _op_pair_residual(
                alg,
                lambda d1, d2: comp(r_gt(d1), l_lt(d2))
                + comp(r_gt(d1), l_gt(d2))
                - comp(l_gt(d2), r_gt(d1)),
            ),
            # 𝔩_≻(d₁≺d₂ + d₁≻d₂) = 𝔩_≻(d₁)𝔩_≻(d₂)
            "dm8": _op_pair_residual(
                alg,
                lambda d1, d2: l_gt(lt(d1, d2) + gt(d1, d2))
                - comp(l_gt(d1), l_gt(d2)),
            ),
            # 𝔯_≻(d₁)𝔯_≺(d₂) + 𝔯_≻(d₁)𝔯_≻(d₂) = 𝔯_≻(d₂≻d₁)
            "dm9": _op_pair_residual(
                alg,
                lambda d1, d2: comp(r_gt(d1), r_lt(d2))
                + comp(r_gt(d1), r_gt(d2))
                - r_gt(gt(d2, d1)),
            ),
        }
    elif alg.kind == "prelie":
        mul = lambda x, y: alg.multiply("mul", x, y)
        l = lambda a: act("l", a)
        r = lambda a: act("r", a)
        residuals = {
            # 𝔩(a₁)𝔩(a₂) − 𝔩(a₁⋄a₂) = 𝔩(a₂)𝔩(a₁) − 𝔩(a₂⋄a₁)
            "plm1": _op_pair_residual(
                alg,
                lambda a1, a2: comp(l(a1), l(a2))
                - l(mul(a1, a2))
                - comp(l(a2), l(a1))
                + l(mul(a2, a1)),
            ),
            # 𝔩(a₁)𝔯(a₂) − 𝔯(a₂)𝔩(a₁) = 𝔯(a₁⋄a₂) − 𝔯(a₂)𝔯(a₁)
            "plm2": _op_pair_residual(
                alg,
                lambda a1, a2: comp(l(a1), r(a2))
                - comp(r(a2), l(a1))
                - r(mul(a1, a2))
                + comp(r(a2), r(a1)),
            ),
        }
    elif alg.kind == "assoc":
        mul = lambda x, y: alg.multiply("mul", x, y)
        l = lambda a: act("l", a)
        r = lambda a: act("r", a)
        residuals = {
            # 𝔩(a₁a₂) = 𝔩(a₁)𝔩(a₂)
            "am1": _op_pair_residual(
                alg, lambda a1, a2: l(mul(a1, a2)) - comp(l(a1), l(a2))
            ),
            # 𝔯(a₁a₂) = 𝔯(a₂)𝔯(a₁)
            "am2": _op_pair_residual(
                alg, lambda a1, a2: r(mul(a1, a2)) - comp(r(a2), r(a1))
            ),
            # 𝔯(a₂)𝔩(a₁) = 𝔩(a₁)𝔯(a₂)
            "am3": _op_pair_residual(
                alg, lambda a1, a2: comp(r(a2), l(a1)) - comp(l(a1), r(a2))
            ),
        }
    elif alg.kind == "lie":
        br = lambda x, y: alg.multiply("bracket", x, y)
        rho = lambda g: act("rho", g)
        residuals = {
            # ρ([g₁,g₂]) = ρ(g₁)ρ(g₂) − ρ(g₂)ρ(g₁)
            "lm1": _op_pair_residual(
                alg,
                lambda g1, g2: rho(br(g1, g2))
                - comp(rho(g1), rho(g2))
                + comp(rho(g2), rho(g1)),
            ),
        }
    else:  # pragma: no cover
        raise ValueError(alg.kind)
    return CheckReport.from_residuals(f"{alg.kind} bimodule", residuals)


def dendriform_from_rota_baxter(alg: FinAlgebra, R: LinMap) -> FinAlgebra:
    """Split an associative algebra along a Rota-Baxter operator of weight 0.

    Requires R(a)∗R(b) = R(R(a)∗b + a∗R(b)) on the whole algebra; the induced
    dendriform products are a≺b = a∗R(b) and a≻b = R(a)∗b.
    """
    if alg.kind != "assoc":
        raise ValueError("Rota-Baxter splitting needs an associative algebra")
    n = alg.dim
    mul = lambda x, y: alg.multiply("mul", x, y)
    for i in range(n):
        for j in range(n):
            a, b = alg.basis(i), alg.basis(j)
            lhs = mul(R.apply(a), R.apply(b))
            rhs = R.apply(mul(R.apply(a), b) + mul(a, R.apply(b)))
            if not (lhs - rhs).is_zero():
                raise ValueError(
                    f"operator is not Rota-Baxter of weight 0: fails on basis pair ({i}, {j})"
                )
    lt = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    gt = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            u = mul(alg.basis(i), R.apply(alg.basis(j)))
            v = mul(R.apply(alg.basis(i)), alg.basis(j))
            for k in range(n):
                lt[k][i][j] = u.coords[k]
                gt[k][i][j] = v.coords[k]
    return FinAlgebra("dendriform", n, {"lt": lt, "gt": gt})
