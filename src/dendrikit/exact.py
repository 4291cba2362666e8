"""Exact rational linear algebra over a fixed basis.

Coefficients are `fractions.Fraction` (always reduced, exact equality).  Vectors,
matrices and order-2/3 tensors are immutable nested tuples wrapped in small
dataclasses.  Dual-space vectors are expressed in the dual basis of the
declared primal basis.

One sparse form and one kernel do the arithmetic.  The form is `IntTable`:
a nested table of Fractions read once as Python ints L·c, L the lcm of its
denominators, listing only its nonzero entries.  Every structure
(`FinAlgebra`, `Bimodule`, `CoalgStruct`) builds one per cube in its
constructor, and a `Tensor2`, `LinMap` or `BilinForm` one for its matrix.  The kernel is `contract`, which evaluates a signed list of
terms; a term is a product of labelled tables (product cubes, action
matrices, coproduct cubes, an operator matrix, a vector), each axis named by
a letter, summed over the labels that do not appear in the output.  The law
tables beside the checks (``AXIOMS``, ``BIMODULE_LAWS``, ``COALGEBRA_LAWS``,
``BIALGEBRA_LAWS``, ``OOPERATOR_LAWS``, ``TRANSFER_LAWS``, ``YBE_LAWS``),
the constructions between kinds and of bialgebras, the lift of an r-matrix,
a single product, `mat_mul` and `LinMap.apply` are all written this way.  A
term's products are integers over the product of its tables' L.  Every term is
brought to D, the lcm of those products over all terms, and the cells are
summed as ints, which never overflow.  `contract_cells` returns them as
(cells, D), the form the finite layer passes on: a check finds a law's
first violation on them, and a construction builds its structure's
`IntTable` from them (`cube_table`, one gcd) without a pass over Fractions.
`contract` builds a `Fraction(x, D)` only for a nonzero cell; a zero cell is
the shared ``ZERO``.  The value is the exact rational sum whatever mix of
tables the terms draw on.

Each law is compiled once per extents (`_compile`): the plan resolves how
every factor is grouped, where each product lands, how an intermediate is
laid out and regrouped for the next factor, and how a term without some
output label is broadcast.  It is cached on the law and the extents only,
never on a table or a value, so there is one plan per law table and
extents seen, and a call of `contract` only reads groupings and adds ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import gcd, lcm, prod
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def freeze_vector(coords: Iterable) -> tuple[Fraction, ...]:
    return tuple(_frac(c) for c in coords)


def freeze_matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(_frac(c) for c in row) for row in rows)


def freeze_cube(planes) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    return tuple(freeze_matrix(plane) for plane in planes)


def identity_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def nest(flat, dims) -> tuple:
    """Cut a flat row-major sequence into nested tuples of the given extents."""
    out = flat
    for depth in range(len(dims) - 1, 0, -1):
        d = dims[depth]
        if d:
            # zip over d references to one iterator cuts it into d-tuples
            out = list(zip(*[iter(out)] * d))
        else:
            out = [()] * prod(dims[:depth])
    return tuple(out)


class IntTable:
    """A nested table of Fractions read as Python ints: the one sparse form.

    ``scale`` is the lcm L of the denominators of its nonzero entries c, and
    ``entries`` lists (index tuple, L·c) for each of them, in row-major
    order.  A structure builds one per cube in its constructor, so every
    check and product on it reads the same table.
    """

    __slots__ = ("scale", "entries", "_groups")

    def __init__(self, table=(), scale: int = 1, entries=None):
        if entries is None:
            rows = [((), table)]
            while rows and rows[0][1] and not isinstance(rows[0][1][0], Fraction):
                rows = [(idx + (i,), y) for idx, x in rows for i, y in enumerate(x)]
            found = [(idx + (j,), c) for idx, row in rows for j, c in enumerate(row) if c]
            scale = lcm(*(c.denominator for _idx, c in found))
            entries = [(idx, c.numerator * (scale // c.denominator)) for idx, c in found]
        self.scale = scale
        self.entries = entries
        self._groups = {}

    def grouped(self, gid: int, key: tuple, placed: tuple) -> dict:
        """The entries as key ↦ [(offset, L·c)]: the key is Σ index[p]·stride
        over the (p, stride) pairs of ``key``, the offset the same sum over
        ``placed``.

        It is stored under ``gid``, the number `_grouping` gives (key,
        placed), which a compiled plan holds.  `contract_cells` builds each
        grouping once per table, on its first read, so every law and product
        that reads a table the same way shares it.
        """
        g = {}
        for idx, v in self.entries:
            k = off = 0
            for p, s in key:
                k += idx[p] * s
            for p, s in placed:
                off += idx[p] * s
            row = g.get(k)
            if row is None:
                g[k] = [(off, v)]
            else:
                row.append((off, v))
        self._groups[gid] = g
        return g


_GROUPINGS: dict = {}


def _grouping(key: tuple, placed: tuple) -> int:
    """The number of the grouping (key, placed), one per distinct pair.

    A table's groupings are stored under it, because hashing an int on every
    lookup costs far less than hashing the nested pairs.  The numbers depend
    on the laws alone, so there are as many as the compiled plans need."""
    return _GROUPINGS.setdefault((key, placed), len(_GROUPINGS))


def _strides(labels, extent) -> tuple[dict, int]:
    strides, size = {}, 1
    for x in reversed(labels):
        strides[x] = size
        size *= extent(x)
    return strides, size


def _spec(labels: str, key_strides: dict, strides: dict, skip: str = "") -> tuple:
    """How a factor labelled ``labels`` is grouped: (grouping number, key,
    placed), the key over the labels in ``key_strides`` and the offset over
    those in ``strides`` and not in ``skip``."""
    key = tuple((p, key_strides[x]) for p, x in enumerate(labels) if x in key_strides)
    placed = tuple((p, strides[x]) for p, x in enumerate(labels)
                   if x in strides and x not in skip)
    return _grouping(key, placed), key, placed


@lru_cache(maxsize=None)
def _compile(terms: tuple, out_labels: str, extents) -> tuple:
    """The output size and, per term, (sign, table names, first, steps,
    shifts), every step resolved for ``extents``.

    ``first`` is (table, grouping number, key, placed), how the first factor
    is grouped (`IntTable.grouped`).  Each step contracts the factors so far
    with the next one, (table, grouping number, key, placed, regroup): it
    keeps a label that is an output label or is read by a later factor and
    sums over the others.  The last step adds into the output, and its
    ``regroup`` is None.  An earlier step fills a flat intermediate laid out
    as (labels the next factor reads and no later step keeps, labels it reads
    that are kept, labels it does not read), so the next key of a cell p is
    p // cut; ``regroup`` is (width, cut, ((stride, extent, next stride), …))
    over the labels the next step keeps.  ``shifts`` spreads a term that
    lacks output labels over them, or is None.

    The cache key is the law (its terms and output labels) and ``extents``,
    an int or sorted (label, extent) pairs; it holds no table, scale or
    value.  So the cache holds one plan per law table and extents seen: a law
    over one dimension n has at most ``io.MAX_DIM`` plans.
    """
    extent = dict(extents).__getitem__ if isinstance(extents, tuple) else lambda _x: extents
    out_strides, size = _strides(out_labels, extent)
    plans = []
    for sign, *factors in terms:
        names = tuple(name for name, _labels in factors)
        labelings = [labels for _name, labels in factors]
        keeps, labels = [], labelings[0]
        for t in range(1, len(labelings)):
            later = "".join(labelings[t + 1:])
            labels = "".join(dict.fromkeys(
                x for x in labels + labelings[t] if x in out_labels or x in later))
            keeps.append(labels)
        if any(x not in out_labels for x in labels):
            raise ValueError(f"term {tuple(factors)} leaves a label outside {out_labels!r}")
        # the space each step fills: an intermediate for all but the last
        spaces = []
        for t, keep in enumerate(keeps[:-1]):
            nxt, kept = labelings[t + 2], keeps[t + 1]
            layout = ([x for x in keep if x in nxt and x not in kept]
                      + [x for x in keep if x in nxt and x in kept]
                      + [x for x in keep if x not in nxt])
            spaces.append((*_strides(layout, extent),
                           prod([extent(x) for x in keep if x not in nxt]) or 1))
        spaces.append((out_strides, size, None))
        left = labelings[0]
        if not keeps:
            first = (names[0], *_spec(left, {}, out_strides))
        else:
            key_strides = _strides([x for x in left if x in labelings[1]], extent)[0]
            first = (names[0], *_spec(left, key_strides, spaces[0][0]))
        steps = []
        for t, keep in enumerate(keeps):
            strides, width, cut = spaces[t]
            steps.append((names[t + 1],
                          *_spec(labelings[t + 1], key_strides, strides, left),
                          None if cut is None else (width, cut, tuple(
                              (strides[x], extent(x), spaces[t + 1][0][x])
                              for x in keep if x in keeps[t + 1]))))
            if cut is not None:
                key_strides = {x: strides[x] // cut for x in keep if x in labelings[t + 2]}
            left = keep
        shifts = None
        missing = [x for x in out_labels if x not in labels]
        if missing:
            shifts = [0]
            for x in missing:
                shifts = [s + i * out_strides[x] for s in shifts for i in range(extent(x))]
            shifts = tuple(shifts)
        plans.append((sign, names, first, tuple(steps), shifts))
    return size, tuple(plans)


def _regroup(acc: list, width: int, cut: int, parts: tuple) -> dict:
    """The nonzero cells of an intermediate as key ↦ [(offset, value)] for
    the next step (see `_compile`)."""
    g = {}
    for p in compress(range(width), acc):
        off = 0
        for s, e, t in parts:
            off += p // s % e * t
        k = p // cut
        row = g.get(k)
        if row is None:
            g[k] = [(off, acc[p])]
        else:
            row.append((off, acc[p]))
    return g


def contract(terms: tuple, tables: dict, out_labels: str, n) -> list:
    """`contract_cells` as a flat row-major list of Fractions, the shared
    ``ZERO`` in a zero cell."""
    return fractions(*contract_cells(terms, tables, out_labels, n))


def contract_cells(terms: tuple, tables: dict, out_labels: str, n) -> tuple[list, int]:
    """Σ sign·(product of the factors) over the terms, as (cells, D): a flat
    row-major list of ints in the order of ``out_labels``, cell x standing
    for x/D.

    A term is ``(sign, (table, labels), (table, labels), …)``.  ``labels``
    names the axes of ``tables[table]`` in storage order, one letter each:
    ``"kij"`` for a product cube c[k][i][j], ``"ipq"`` for a coproduct cube
    θ[i][p][q], ``"iab"`` for action matrices.  The factors are contracted
    left to right; each step sums over the labels that neither the output nor
    a later factor reads, and matches a label both sides carry that is kept.
    A term that lacks an output label is the same for each of its values
    (it is broadcast).  ``n`` is the extent of every label, or a dict from
    label to extent.  ``terms`` is a tuple, as in the law tables.

    The steps are compiled once per law and extents (`_compile`), so a call
    only reads the tables' groupings and adds integers.  ``tables`` maps each
    name to its `IntTable`: Python ints L·c, L the lcm of the table's
    denominators, so a term's products carry the denominator L₁·L₂⋯.  Every
    term is scaled to D, the lcm of those denominators over all terms, and
    the cells are summed as ints; x/D is then the exact rational value,
    whatever mix of tables the terms draw on.
    """
    size, plan = _compile(terms, out_labels,
                          n if isinstance(n, int) else tuple(sorted(n.items())))
    scales = [prod([tables[name].scale for name in names]) for _sign, names, *_ in plan]
    den = lcm(*scales)
    out = [0] * size
    for (sign, _names, (name, gid, key, placed), steps, shifts), scale in zip(plan, scales):
        m = sign * (den // scale)
        term = out if shifts is None else [0] * size
        table = tables[name]
        g1 = table._groups.get(gid)
        if g1 is None:
            g1 = table.grouped(gid, key, placed)
        if not steps:
            for off, v in g1.get(0, ()):
                term[off] += m * v
        for right, gid, key, placed, regroup in steps:
            table = tables[right]
            g2 = table._groups.get(gid)
            if g2 is None:
                g2 = table.grouped(gid, key, placed)
            # The last step adds the scaled term into the output; earlier
            # steps fill an intermediate, regrouped for the next step.
            acc, mult = (term, m) if regroup is None else ([0] * regroup[0], 1)
            for k, pairs in g1.items():
                rows = g2.get(k)
                if rows:
                    for p1, v1 in pairs:
                        mv = mult * v1
                        for p2, v2 in rows:
                            acc[p1 + p2] += mv * v2
            if regroup is not None:
                g1 = _regroup(acc, *regroup)
        if shifts is not None:
            for p in compress(range(size), term):
                v = term[p]
                for s in shifts:
                    out[p + s] += v
    return out, den


def fractions(cells: list, den: int) -> list:
    """The Fractions x/den of integer cells, the shared ``ZERO`` for x = 0."""
    if not any(cells):
        return [ZERO] * len(cells)
    return [Fraction(x, den) if x else ZERO for x in cells]


def unravel(p: int, dims) -> tuple:
    """The index tuple of cell p of a row-major table of extents ``dims``."""
    idx = []
    for d in reversed(dims):
        p, r = divmod(p, d)
        idx.append(r)
    return tuple(reversed(idx))


def cube_table(cells: list, den: int, dims) -> IntTable:
    """The `IntTable` of the table of Fractions x/den of extents ``dims``
    over the row-major ``cells``, read straight from the ints.

    With g = gcd(den, x₁, x₂, …), the lcm of the reduced denominators is
    den/g and each entry is x/g, so one gcd gives the ``scale`` and
    ``entries`` that `IntTable` gives on the nested Fractions.
    """
    g = gcd(den, *cells)
    # the index tuples over the axes after the first, in row-major order
    inner = list(product(*map(range, dims[1:])))
    m = len(inner)
    return IntTable(scale=den // g, entries=[
        ((p // m, *inner[p % m]), cells[p] // g)
        for p in compress(range(len(cells)), cells)])


_MAT_MUL = ((1, ("a", "ik"), ("b", "kj")),)
_MAT_VEC = ((1, ("a", "ik"), ("v", "k")),)


def mat_mul(a, b):
    rows, cols = len(a), len(b[0]) if b else 0
    tables = {"a": IntTable(a), "b": IntTable(b)}
    extents = {"i": rows, "k": len(b), "j": cols}
    return nest(contract(_MAT_MUL, tables, "ij", extents), (rows, cols))


def transpose(a):
    if not a:
        return ()
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def cube_is_zero(t) -> bool:
    return all(x == 0 for plane in t for row in plane for x in row)


def first_nonzero_matrix(a):
    """First (i, j, value) with a nonzero entry, or None."""
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x != 0:
                return (i, j), x
    return None


def first_nonzero_cube(t):
    for i, plane in enumerate(t):
        for j, row in enumerate(plane):
            for k, x in enumerate(row):
                if x != 0:
                    return (i, j, k), x
    return None


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    they are, without running its constructor.

    For values the package has just built in their final form (nested
    tuples of Fractions, a structure's tables), which the constructor would
    otherwise walk and read again.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class DegenerateFormError(ValueError):
    """Raised when a bilinear form (or matrix) that must be invertible is singular."""


def mat_inverse(a):
    """Exact inverse by Gaussian elimination with first-nonzero pivoting.

    Raises DegenerateFormError on a singular matrix.
    """
    n = len(a)
    m = [list(row) + list(idrow) for row, idrow in zip(a, identity_matrix(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise DegenerateFormError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv_p = ONE / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def determinant(a) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv_p = ONE / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv_p
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


@dataclass(frozen=True)
class Vec:
    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence):
        object.__setattr__(self, "coords", freeze_vector(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def basis(n: int, i: int) -> "Vec":
        return Vec(tuple(ONE if j == i else ZERO for j in range(n)))

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vec") -> "Vec":
        return Vec(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def scale(self, c) -> "Vec":
        c = _frac(c)
        return Vec(tuple(c * x for x in self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)


@dataclass(frozen=True)
class Tensor2:
    """Element of V⊗W over fixed bases: coeffs[i][j] is the coefficient of vᵢ⊗wⱼ."""

    coeffs: tuple[tuple[Fraction, ...], ...]
    table: IntTable = field(init=False, repr=False, compare=False)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", freeze_matrix(coeffs))
        object.__setattr__(self, "table", IntTable(self.coeffs))

    @property
    def dim_left(self) -> int:
        return len(self.coeffs)

    @property
    def dim_right(self) -> int:
        return len(self.coeffs[0]) if self.coeffs else 0

    def __add__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(mat_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return Tensor2(mat_sub(self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        return mat_is_zero(self.coeffs)

    def first_nonzero(self):
        return first_nonzero_matrix(self.coeffs)


@dataclass(frozen=True)
class Tensor3:
    """Element of U⊗V⊗W: coeffs[i][j][k] is the coefficient of uᵢ⊗vⱼ⊗wₖ."""

    coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", freeze_cube(coeffs))

    @property
    def dims(self) -> tuple[int, int, int]:
        d1 = len(self.coeffs)
        d2 = len(self.coeffs[0]) if d1 else 0
        d3 = len(self.coeffs[0][0]) if d2 else 0
        return (d1, d2, d3)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(mat_add(p, q) for p, q in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(mat_sub(p, q) for p, q in zip(self.coeffs, other.coeffs))
        )

    def is_zero(self) -> bool:
        return cube_is_zero(self.coeffs)

    def first_nonzero(self):
        return first_nonzero_cube(self.coeffs)


@dataclass(frozen=True)
class BilinForm:
    """Bilinear form on V: matrix[i][j] = ω(vᵢ, vⱼ)."""

    matrix: tuple[tuple[Fraction, ...], ...]
    table: IntTable = field(init=False, repr=False, compare=False)

    def __init__(self, matrix):
        object.__setattr__(self, "matrix", freeze_matrix(matrix))
        object.__setattr__(self, "table", IntTable(self.matrix))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def pair(self, u: Vec, v: Vec) -> Fraction:
        return sum(
            (
                u.coords[i] * self.matrix[i][j] * v.coords[j]
                for i in range(self.dim)
                for j in range(self.dim)
            ),
            ZERO,
        )

    def is_antisymmetric(self) -> bool:
        return all(
            self.matrix[i][j] == -self.matrix[j][i]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def kernel_vector(self):
        """A nonzero vector v with ω(v, -) = 0, or None if nondegenerate."""
        n = self.dim
        m = [list(row) for row in transpose(self.matrix)]
        # Solve ωᵀ v = 0 by elimination; a free column yields a kernel vector.
        pivots: dict[int, int] = {}
        row = 0
        for col in range(n):
            p = next((r for r in range(row, n) if m[r][col] != 0), None)
            if p is None:
                continue
            m[row], m[p] = m[p], m[row]
            inv_p = ONE / m[row][col]
            m[row] = [x * inv_p for x in m[row]]
            for r in range(n):
                if r != row and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[row])]
            pivots[col] = row
            row += 1
        free = [c for c in range(n) if c not in pivots]
        if not free:
            return None
        c0 = free[0]
        v = [ZERO] * n
        v[c0] = ONE
        for col, r in pivots.items():
            v[col] = -m[r][c0]
        return Vec(v)


@dataclass(frozen=True)
class LinMap:
    """Linear map given by its matrix: (Lv)ᵢ = Σⱼ matrix[i][j] vⱼ."""

    matrix: tuple[tuple[Fraction, ...], ...]
    table: IntTable = field(init=False, repr=False, compare=False)

    def __init__(self, matrix):
        object.__setattr__(self, "matrix", freeze_matrix(matrix))
        object.__setattr__(self, "table", IntTable(self.matrix))

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def apply(self, v: Vec) -> Vec:
        tables = {"a": self.table, "v": IntTable(v.coords)}
        return Vec(contract(_MAT_VEC, tables, "i", {"i": self.rows, "k": len(v.coords)}))

    def __add__(self, other: "LinMap") -> "LinMap":
        return LinMap(mat_add(self.matrix, other.matrix))

    def __sub__(self, other: "LinMap") -> "LinMap":
        return LinMap(mat_sub(self.matrix, other.matrix))

    def is_zero(self) -> bool:
        return mat_is_zero(self.matrix)

    def determinant(self) -> Fraction:
        return determinant(self.matrix)


def flip(r: Tensor2) -> Tensor2:
    """τ(Σ aᵢ⊗bⱼ) = Σ bⱼ⊗aᵢ on a square tensor."""
    if r.dim_left != r.dim_right:
        raise ValueError("flip requires a square tensor")
    return Tensor2(transpose(r.coeffs))


def sharp(r: Tensor2) -> LinMap:
    """r♯ : V* → V with ⟨ξ₂, r♯(ξ₁)⟩ = ⟨ξ₁⊗ξ₂, r⟩, i.e. matrix = rᵀ."""
    if r.dim_left != r.dim_right:
        raise ValueError("sharp requires a square tensor")
    return LinMap(transpose(r.coeffs))


def dual_basis(omega: BilinForm) -> LinMap:
    """Matrix F whose j-th column is fⱼ in the eᵢ basis, with ω(eᵢ, fⱼ) = δᵢⱼ.

    Equivalently ω·F = identity.  Raises DegenerateFormError if ω is singular.
    """
    return LinMap(mat_inverse(omega.matrix))
