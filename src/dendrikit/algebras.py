"""Finite-dimensional algebras given by structure constants, and their bimodules.

Five algebra kinds are supported: dendriform (two products ``lt`` = ≺ and
``gt`` = ≻), pre-Lie (``mul`` = ⋄), perm (``mul``), associative (``mul``) and
Lie (``bracket``).  A structure-constant cube ``c`` encodes a product by
``c[k][i][j]`` = coefficient of basis element k in bᵢ·bⱼ.

A structure stores one `exact.IntTable` per cube, its nonzero constants as
integers over the lcm of their denominators, and nothing else.  Every law,
construction and product reads those tables.  The public constructors take
nested cubes, check their kind, names and shape in one helper
(`_cube_tables`) and read each cube into its table; a construction
(`_structure`) builds its tables from the integers of the contraction, and
`io` from the entries of a file.  The nested cubes (``products``,
``actions``) are a view on the tables, built the first time they are read
(`Nested`, the class of a check's residuals too): equality and repr read
them, and no check or report does.

The laws are data.  ``AXIOMS``, ``BIMODULE_LAWS`` and ``ROTA_BAXTER_LAW``
write each law as its output labels and a signed list of terms, each a
product of labelled structure tables (product cubes, action matrices, an
operator).  `law_residuals` evaluates a check's laws with
`exact.contract_cells`, which sums every term over one common denominator,
so the residuals are exact.  Each law keeps its integer cells (`Residuals`);
its first violation is the first nonzero cell, unravelled by the law's
extents, and that is all a report reads.  The residual nested in the order
of its output labels, with a Fraction only in a nonzero cell, is a view
built the first time it is read.  Adding a law is adding a row to a table;
a law two kinds share is one named literal.  ``SYMMETRY_LAWS``, r ∓ τ(r),
tests a form or an r-matrix for (anti)symmetry (`symmetry_violation`).
The constructions are data too: the actions of the regular bimodule
(``REGULAR_BIMODULE``, whose keys give ``KIND_BIMODULE_ACTIONS``) and the
split products of a Rota-Baxter operator (``ROTA_BAXTER_SPLIT``) are term
tables, built by `_structure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import (
    IntTable,
    LinMap,
    Vec,
    cube_table,
    contract,
    contract_cells,
    first_cell,
    freeze_cube,
    nested,
    unravel,
)

KIND_OPS = {
    "dendriform": ("lt", "gt"),
    "prelie": ("mul",),
    "perm": ("mul",),
    "assoc": ("mul",),
    "lie": ("bracket",),
}

# Holds a name's place in a `Nested` until its table is first read.
_UNREAD = object()


class Nested(dict):
    """Name ↦ table of Fractions nested in the order of its labels, built the
    first time the name is read: a check's law residuals (`law_residuals`
    returns them under the name `Residuals`) and a structure's cubes
    (``products``, ``actions``, ``coproducts``).

    ``flat`` maps each name to (cells, den, dims), the one form every table
    is built from (`exact.nested`): a residual's row-major integer cells from
    `exact.contract_cells`, or a structure's `exact.IntTable` and its scale,
    each over ``den`` and of extents ``dims``.  ``violations`` maps each
    residual, added by ``add``, to its first violation (index path, value) in
    row-major order, or None where the law holds.  ``[]`` builds a table the
    first time it is read and keeps it, and every other read of a value
    (``get``, ``values``, ``items``, ``==``, repr, ``dict(...)``, ``{**...}``)
    goes through ``[]``.  So it reads as the eagerly nested mapping, and a
    report, which reads ``violations`` only, never nests.
    """

    __slots__ = ("flat", "violations")

    def __init__(self, flat: dict | None = None):
        self.flat = {} if flat is None else flat
        self.violations = {}
        if flat:
            dict.update(self, dict.fromkeys(flat, _UNREAD))

    def add(self, name: str, cells: list, den: int, dims: tuple):
        hit = first_cell(cells)
        self.flat[name] = cells, den, dims
        self.violations[name] = None if hit is None else (unravel(hit[0], dims),
                                                          Fraction(hit[1], den))
        dict.__setitem__(self, name, _UNREAD)

    def __getitem__(self, name):
        value = dict.__getitem__(self, name)
        if value is _UNREAD:
            value = nested(*self.flat[name])
            dict.__setitem__(self, name, value)
        return value

    # CPython copies a dict subclass's storage directly in dict(...),
    # {**...}, copy() and | unless the subclass has an __iter__ of its own;
    # with one, they read each value through [].
    def __iter__(self):
        return dict.__iter__(self)

    def _nested(self) -> "Nested":
        for name in self:
            self[name]
        return self

    def get(self, name, default=None):
        return self[name] if name in self else default

    def values(self):
        return dict.values(self._nested())

    def items(self):
        return dict.items(self._nested())

    def __repr__(self):
        return dict.__repr__(self._nested())

    def __eq__(self, other):
        return dict(self) == other

    def __ne__(self, other):
        return dict(self) != other


Residuals = Nested


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive basis-wise axiom check.

    ``residuals`` (a `Residuals`) maps each named law to its full residual
    tensor (nested tuples of Fractions, identically zero iff the law holds),
    a view built on first read from the law's integer cells.  ``violations``
    maps each law to its first violation (index path, value), or None.
    ``first_violation`` is (law, index path, value) for the first law that
    fails.
    """

    subject: str
    residuals: dict
    ok: bool
    first_violation: Optional[tuple]
    violations: dict = field(repr=False, compare=False)

    @staticmethod
    def from_residuals(subject: str, residuals: Residuals) -> "CheckReport":
        """The report on ``residuals``, which bring their laws' first
        violations."""
        violations = residuals.violations
        first = None
        for name, hit in violations.items():
            if hit is not None:
                first = (name, *hit)
                break
        return CheckReport(subject, residuals, first is None, first, violations)


# x·y for the vectors x, y and a product cube c, coordinate k.
_PRODUCT = ((1, ("x", "i"), ("c", "kij"), ("y", "j")),)


def _cube_tables(given: dict, expected: tuple, needs: str, dims: tuple, misshapen) -> dict:
    """The `exact.IntTable` of each nested cube of ``given``: the check the
    public constructors share.  ``given`` must name exactly the ``expected``
    cubes, else the error begins with ``needs`` ("dendriform algebra needs
    products").  Each cube must have the extents ``dims``, else the error is
    ``misshapen(name, depth)``, at the depth of its first wrong extent."""
    if set(given) != set(expected):
        raise ValueError(f"{needs} {sorted(expected)}, got {sorted(given)}")
    frozen = {name: freeze_cube(cube) for name, cube in given.items()}
    for name, cube in frozen.items():
        if len(cube) != dims[0]:
            raise ValueError(misshapen(name, 0))
        if any(len(plane) != dims[1] or any(len(row) != dims[2] for row in plane)
               for plane in cube):
            raise ValueError(misshapen(name, 1))
    return {name: IntTable(cube) for name, cube in frozen.items()}


def _fill(obj, first, dim: int, tables: dict, dims: tuple):
    """``obj``, a `FinAlgebra`, `Bimodule` or `bialgebras.CoalgStruct`, with
    its fields (first, dim, cubes, tables) set, and returned.  ``first`` is
    the kind or a bimodule's algebra, ``tables`` holds an `exact.IntTable` per
    cube, the one stored form, and the cubes are the `Nested` view of
    extents ``dims`` on them."""
    cubes = Nested({name: (table, table.scale, dims) for name, table in tables.items()})
    for name, value in zip(obj.__dataclass_fields__, (first, dim, cubes, tables)):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class FinAlgebra:
    """``products[name]`` is the cube c[k][i][j] of the named product, a
    view built on first read from ``tables[name]``."""

    kind: str
    dim: int
    products: dict
    tables: dict = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, dim: int, products: dict):
        if kind not in KIND_OPS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        shape = (dim, dim, dim)
        tables = _cube_tables(products, KIND_OPS[kind], f"{kind} algebra needs products",
                              shape, lambda name, _depth: f"product {name!r} cube is not {dim}^3")
        _fill(self, kind, dim, tables, shape)

    def multiply(self, op: str, u: Vec, v: Vec) -> Vec:
        tables = {"x": IntTable(u.coords), "c": self.tables[op], "y": IntTable(v.coords)}
        return Vec(contract(_PRODUCT, tables, "k", self.dim))


@dataclass(frozen=True)
class Bimodule:
    """A module over a FinAlgebra, given by matrices of the basis actions.

    ``actions[name][i]`` is the matrix of the action of basis element bᵢ
    under the named operation, a view built on first read from
    ``tables[name]``; actions extend linearly.
    """

    algebra: FinAlgebra
    dim: int
    actions: dict
    tables: dict = field(init=False, repr=False, compare=False)

    def __init__(self, algebra: FinAlgebra, dim: int, actions: dict):
        if algebra.kind not in KIND_BIMODULE_ACTIONS:
            raise ValueError(f"no bimodule notion for kind {algebra.kind!r}")
        n, shape = algebra.dim, (algebra.dim, dim, dim)
        tables = _cube_tables(actions, KIND_BIMODULE_ACTIONS[algebra.kind],
                              f"{algebra.kind} bimodule needs actions", shape,
                              lambda name, depth: f"action {name!r} needs {n} matrices"
                              if depth == 0 else f"action {name!r} matrices must be {dim}x{dim}")
        _fill(self, algebra, dim, tables, shape)


# The actions of the regular bimodule, each a construction (output labels,
# terms) of action matrices M[i][p][q], entry (p, q) of the matrix of bᵢ, from
# the product cubes c[k][i][j]: 𝔩(bᵢ)[p][q] = c[p][i][q] and
# 𝔯(bᵢ)[p][q] = c[p][q][i].
REGULAR_BIMODULE = {
    "dendriform": {
        "l_lt": ("ipq", ((+1, ("lt", "piq")),)),
        "r_lt": ("ipq", ((+1, ("lt", "pqi")),)),
        "l_gt": ("ipq", ((+1, ("gt", "piq")),)),
        "r_gt": ("ipq", ((+1, ("gt", "pqi")),)),
    },
    **dict.fromkeys(("prelie", "assoc"), {
        "l": ("ipq", ((+1, ("mul", "piq")),)),
        "r": ("ipq", ((+1, ("mul", "pqi")),)),
    }),
    "lie": {"rho": ("ipq", ((+1, ("bracket", "piq")),))},
}

# The actions of a bimodule of each kind, in the order of their cubes.
KIND_BIMODULE_ACTIONS = {kind: tuple(actions) for kind, actions in REGULAR_BIMODULE.items()}


def _bimodule(constructions: dict, name: str, alg: FinAlgebra) -> Bimodule:
    """The bimodule of ``alg`` on a space of its dimension whose actions are
    ``constructions[alg.kind]`` (``REGULAR_BIMODULE`` or
    ``ybe.COREGULAR_BIMODULE``) on its product tables; ``name`` names the
    bimodule in the error for a kind without one."""
    if alg.kind not in constructions:
        raise ValueError(f"no {name} bimodule for kind {alg.kind!r}")
    return _structure(Bimodule, alg, alg.dim, constructions[alg.kind], alg.tables, alg.dim)


def regular_bimodule(alg: FinAlgebra) -> Bimodule:
    """The algebra acting on itself by left and right multiplications."""
    return _bimodule(REGULAR_BIMODULE, "regular", alg)


# A law is (output labels, terms); a term is (sign, (table, labels), …), a
# product of labelled tables evaluated by `exact.contract`.  Product cubes are
# labelled in storage order c[k][i][j], so bᵢ·bⱼ = Σₖ c[k][i][j] bₖ.
# Triple laws are nested [i][j][k][l]: coordinate l of law(bᵢ, bⱼ, bₖ);
# pair laws [i][j][k].  m is the summed intermediate basis index.

# x(yz) = (xy)z, the associativity of a perm or an associative algebra
_ASSOCIATIVITY = ("ijkl", (
    (+1, ("mul", "mjk"), ("mul", "lim")),
    (-1, ("mul", "mij"), ("mul", "lmk"))))

AXIOMS = {
    "dendriform": {
        # (x≺y)≺z = x≺(y≺z) + x≺(y≻z)
        "dendriform_1": ("ijkl", (
            (+1, ("lt", "mij"), ("lt", "lmk")),
            (-1, ("lt", "mjk"), ("lt", "lim")),
            (-1, ("gt", "mjk"), ("lt", "lim")))),
        # (x≻y)≺z = x≻(y≺z)
        "dendriform_2": ("ijkl", (
            (+1, ("gt", "mij"), ("lt", "lmk")),
            (-1, ("lt", "mjk"), ("gt", "lim")))),
        # x≻(y≻z) = (x≺y)≻z + (x≻y)≻z
        "dendriform_3": ("ijkl", (
            (+1, ("gt", "mjk"), ("gt", "lim")),
            (-1, ("lt", "mij"), ("gt", "lmk")),
            (-1, ("gt", "mij"), ("gt", "lmk")))),
    },
    "prelie": {
        # x⋄(y⋄z) − (x⋄y)⋄z = y⋄(x⋄z) − (y⋄x)⋄z
        "pre_lie": ("ijkl", (
            (+1, ("mul", "mjk"), ("mul", "lim")),
            (-1, ("mul", "mij"), ("mul", "lmk")),
            (-1, ("mul", "mik"), ("mul", "ljm")),
            (+1, ("mul", "mji"), ("mul", "lmk")))),
    },
    "perm": {
        # x(yz) = (xy)z
        "perm_assoc": _ASSOCIATIVITY,
        # (xy)z = (yx)z
        "perm_left_commute": ("ijkl", (
            (+1, ("mul", "mij"), ("mul", "lmk")),
            (-1, ("mul", "mji"), ("mul", "lmk")))),
    },
    "assoc": {
        # x(yz) = (xy)z
        "associativity": _ASSOCIATIVITY,
    },
    "lie": {
        # [x,y] = −[y,x]
        "antisymmetry": ("ijk", (
            (+1, ("bracket", "kij")),
            (+1, ("bracket", "kji")))),
        # [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0
        "jacobi": ("ijkl", (
            (+1, ("bracket", "mjk"), ("bracket", "lim")),
            (+1, ("bracket", "mki"), ("bracket", "ljm")),
            (+1, ("bracket", "mij"), ("bracket", "lkm")))),
    },
}


def law_residuals(laws: dict, tables: dict, n) -> Residuals:
    """Each law's integer cells, with its first violation.

    ``tables`` maps each table name the laws use to its `IntTable`; ``n`` is
    the extent of every label, or a dict from label to extent, as for
    `exact.contract`.
    """
    by_label = isinstance(n, dict)
    residuals = Residuals()
    for name, (out, terms) in laws.items():
        dims = tuple([n[x] for x in out]) if by_label else (n,) * len(out)
        residuals.add(name, *contract_cells(terms, tables, out, n), dims)
    return residuals


# The symmetry of a square matrix r[a][b] (an r-matrix, a form), nested
# [a][b]: r is symmetric iff r − τ(r) = 0, skew-symmetric iff r + τ(r) = 0.
SYMMETRY_LAWS = {
    # r_ab − r_ba
    "symmetric": ("ab", ((+1, ("r", "ab")), (-1, ("r", "ba")))),
    # r_ab + r_ba
    "skew-symmetric": ("ab", ((+1, ("r", "ab")), (+1, ("r", "ba")))),
}


def symmetry_violation(law: str, r: IntTable, n: int):
    """The first violation of ``SYMMETRY_LAWS[law]`` on the n×n ``r``, or None."""
    return law_residuals({law: SYMMETRY_LAWS[law]}, {"r": r}, n).violations[law]


def _structure(cls, first, dim: int, laws: dict, tables: dict, n):
    """The ``cls`` (`FinAlgebra`, `Bimodule` or `bialgebras.CoalgStruct`)
    of dimension ``dim`` whose cube under each name of ``laws`` is that
    construction, (output labels, terms) over a dim³ cube, evaluated on
    ``tables`` with the extents ``n`` (as for `exact.contract`).  ``first``
    is its first field: the kind, or a bimodule's algebra.

    Each table is built straight from `exact.contract_cells`' ints
    (`exact.cube_table`), and the cubes are a view on the tables, so no
    Fraction is made until a cube is read.  The constructions name a kind's
    own products, actions or coproducts, so nothing is validated again.
    """
    shape = (dim, dim, dim)
    return _fill(object.__new__(cls), first, dim, {
        name: cube_table(*contract_cells(terms, tables, out, n), shape)
        for name, (out, terms) in laws.items()}, shape)


def check_axioms(alg: FinAlgebra) -> CheckReport:
    """Verify the defining laws of the algebra on all basis tuples.

    Returns a CheckReport with one residual tensor per law; all residuals
    vanish exactly iff the structure constants define an algebra of the
    declared kind.
    """
    residuals = law_residuals(AXIOMS[alg.kind], alg.tables, alg.dim)
    return CheckReport.from_residuals(f"{alg.kind} axioms", residuals)


# Operator identities on basis pairs (d₁, d₂) = (bᵢ, bⱼ), nested
# [i][j][a][b]: entry (a, b) of the module operator.  Action tables are
# labelled M[k][a][b] (the matrix of bₖ); the products label c[k][i][j].
# X(d₁)Y(d₂) is X iac · Y jcb, and X(d₁·d₂) is c kij · X kab.
BIMODULE_LAWS = {
    "dendriform": {
        # 𝔩_≺(d₁≺d₂) = 𝔩_≺(d₁)𝔩_≺(d₂) + 𝔩_≺(d₁)𝔩_≻(d₂)
        "dm1": ("ijab", (
            (+1, ("lt", "kij"), ("l_lt", "kab")),
            (-1, ("l_lt", "iac"), ("l_lt", "jcb")),
            (-1, ("l_lt", "iac"), ("l_gt", "jcb")))),
        # 𝔩_≺(d₁≻d₂) = 𝔩_≻(d₁)𝔩_≺(d₂)
        "dm2": ("ijab", (
            (+1, ("gt", "kij"), ("l_lt", "kab")),
            (-1, ("l_gt", "iac"), ("l_lt", "jcb")))),
        # 𝔯_≺(d₁)𝔩_≺(d₂) = 𝔩_≺(d₂)𝔯_≺(d₁) + 𝔩_≺(d₂)𝔯_≻(d₁)
        "dm3": ("ijab", (
            (+1, ("r_lt", "iac"), ("l_lt", "jcb")),
            (-1, ("l_lt", "jac"), ("r_lt", "icb")),
            (-1, ("l_lt", "jac"), ("r_gt", "icb")))),
        # 𝔯_≺(d₁)𝔩_≻(d₂) = 𝔩_≻(d₂)𝔯_≺(d₁)
        "dm4": ("ijab", (
            (+1, ("r_lt", "iac"), ("l_gt", "jcb")),
            (-1, ("l_gt", "jac"), ("r_lt", "icb")))),
        # 𝔯_≺(d₁)𝔯_≺(d₂) = 𝔯_≺(d₂≺d₁ + d₂≻d₁)
        "dm5": ("ijab", (
            (+1, ("r_lt", "iac"), ("r_lt", "jcb")),
            (-1, ("lt", "kji"), ("r_lt", "kab")),
            (-1, ("gt", "kji"), ("r_lt", "kab")))),
        # 𝔯_≺(d₁)𝔯_≻(d₂) = 𝔯_≻(d₂≺d₁)
        "dm6": ("ijab", (
            (+1, ("r_lt", "iac"), ("r_gt", "jcb")),
            (-1, ("lt", "kji"), ("r_gt", "kab")))),
        # 𝔯_≻(d₁)𝔩_≺(d₂) + 𝔯_≻(d₁)𝔩_≻(d₂) = 𝔩_≻(d₂)𝔯_≻(d₁)
        "dm7": ("ijab", (
            (+1, ("r_gt", "iac"), ("l_lt", "jcb")),
            (+1, ("r_gt", "iac"), ("l_gt", "jcb")),
            (-1, ("l_gt", "jac"), ("r_gt", "icb")))),
        # 𝔩_≻(d₁≺d₂ + d₁≻d₂) = 𝔩_≻(d₁)𝔩_≻(d₂)
        "dm8": ("ijab", (
            (+1, ("lt", "kij"), ("l_gt", "kab")),
            (+1, ("gt", "kij"), ("l_gt", "kab")),
            (-1, ("l_gt", "iac"), ("l_gt", "jcb")))),
        # 𝔯_≻(d₁)𝔯_≺(d₂) + 𝔯_≻(d₁)𝔯_≻(d₂) = 𝔯_≻(d₂≻d₁)
        "dm9": ("ijab", (
            (+1, ("r_gt", "iac"), ("r_lt", "jcb")),
            (+1, ("r_gt", "iac"), ("r_gt", "jcb")),
            (-1, ("gt", "kji"), ("r_gt", "kab")))),
    },
    "prelie": {
        # 𝔩(a₁)𝔩(a₂) − 𝔩(a₁⋄a₂) = 𝔩(a₂)𝔩(a₁) − 𝔩(a₂⋄a₁)
        "plm1": ("ijab", (
            (+1, ("l", "iac"), ("l", "jcb")),
            (-1, ("mul", "kij"), ("l", "kab")),
            (-1, ("l", "jac"), ("l", "icb")),
            (+1, ("mul", "kji"), ("l", "kab")))),
        # 𝔩(a₁)𝔯(a₂) − 𝔯(a₂)𝔩(a₁) = 𝔯(a₁⋄a₂) − 𝔯(a₂)𝔯(a₁)
        "plm2": ("ijab", (
            (+1, ("l", "iac"), ("r", "jcb")),
            (-1, ("r", "jac"), ("l", "icb")),
            (-1, ("mul", "kij"), ("r", "kab")),
            (+1, ("r", "jac"), ("r", "icb")))),
    },
    "assoc": {
        # 𝔩(a₁a₂) = 𝔩(a₁)𝔩(a₂)
        "am1": ("ijab", (
            (+1, ("mul", "kij"), ("l", "kab")),
            (-1, ("l", "iac"), ("l", "jcb")))),
        # 𝔯(a₁a₂) = 𝔯(a₂)𝔯(a₁)
        "am2": ("ijab", (
            (+1, ("mul", "kij"), ("r", "kab")),
            (-1, ("r", "jac"), ("r", "icb")))),
        # 𝔯(a₂)𝔩(a₁) = 𝔩(a₁)𝔯(a₂)
        "am3": ("ijab", (
            (+1, ("r", "jac"), ("l", "icb")),
            (-1, ("l", "iac"), ("r", "jcb")))),
    },
    "lie": {
        # ρ([g₁,g₂]) = ρ(g₁)ρ(g₂) − ρ(g₂)ρ(g₁)
        "lm1": ("ijab", (
            (+1, ("bracket", "kij"), ("rho", "kab")),
            (-1, ("rho", "iac"), ("rho", "jcb")),
            (+1, ("rho", "jac"), ("rho", "icb")))),
    },
}


def check_bimodule(bim: Bimodule) -> CheckReport:
    """Verify the bimodule laws for the underlying algebra kind.

    For dendriform algebras there are nine labelled operator identities
    (``dm1`` .. ``dm9``); for pre-Lie and associative algebras the familiar
    left/right compatibility laws; for Lie algebras the representation law.
    """
    alg = bim.algebra
    n, m = alg.dim, bim.dim
    extents = {"i": n, "j": n, "k": n, "a": m, "b": m, "c": m}
    residuals = law_residuals(
        BIMODULE_LAWS[alg.kind], {**alg.tables, **bim.tables}, extents
    )
    return CheckReport.from_residuals(f"{alg.kind} bimodule", residuals)


# The Rota-Baxter identity of weight 0 on basis pairs (a, b) = (bᵢ, bⱼ),
# nested [i][j][k]: coordinate k of R(a)R(b) − R(R(a)b + aR(b)).  R is
# labelled R[k][i] (column i is R(bᵢ)) and the product c[k][i][j]:
#   R(a)R(b)   is  R ai · c kab · R bj,
#   R(R(a)b)   is  R ai · c paj · R kp,
#   R(aR(b))   is  R bj · c pib · R kp.
ROTA_BAXTER_LAW = {
    "rota_baxter": ("ijk", (
        (+1, ("R", "ai"), ("mul", "kab"), ("R", "bj")),
        (-1, ("R", "ai"), ("mul", "paj"), ("R", "kp")),
        (-1, ("R", "bj"), ("mul", "pib"), ("R", "kp")))),
}

# The split products a≺b = a·R(b) and a≻b = R(a)·b as cubes c[k][i][j].
ROTA_BAXTER_SPLIT = {
    "lt": ("kij", ((+1, ("mul", "kib"), ("R", "bj")),)),
    "gt": ("kij", ((+1, ("R", "ai"), ("mul", "kaj")),)),
}


def _rota_baxter_tables(alg: FinAlgebra, R: LinMap) -> dict:
    n = alg.dim
    if R.rows != n or (n and R.cols != n):
        raise ValueError(f"operator must be {n}x{n}, got {R.rows}x{R.cols}")
    return {"mul": alg.tables["mul"], "R": R.table}


def rota_baxter_residual(alg: FinAlgebra, R: LinMap) -> CheckReport:
    """The Rota-Baxter identity of weight 0 (``ROTA_BAXTER_LAW``): the
    residual ``rota_baxter`` is R(a)R(b) − R(R(a)b + aR(b)) on every basis
    pair, nested [i][j][k]."""
    residuals = law_residuals(ROTA_BAXTER_LAW, _rota_baxter_tables(alg, R), alg.dim)
    return CheckReport.from_residuals("Rota-Baxter identity", residuals)


def dendriform_from_rota_baxter(alg: FinAlgebra, R: LinMap) -> FinAlgebra:
    """Split an associative algebra along a Rota-Baxter operator of weight 0.

    Requires R(a)∗R(b) = R(R(a)∗b + a∗R(b)) on the whole algebra; the induced
    dendriform products are a≺b = a∗R(b) and a≻b = R(a)∗b.
    """
    if alg.kind != "assoc":
        raise ValueError("Rota-Baxter splitting needs an associative algebra")
    hit = rota_baxter_residual(alg, R).violations["rota_baxter"]
    if hit is not None:
        i, j, _k = hit[0]
        raise ValueError(
            f"operator is not Rota-Baxter of weight 0: fails on basis pair ({i}, {j})"
        )
    return _structure(FinAlgebra, "dendriform", alg.dim, ROTA_BAXTER_SPLIT,
                      _rota_baxter_tables(alg, R), alg.dim)
