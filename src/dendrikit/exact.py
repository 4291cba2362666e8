"""Exact rational linear algebra over a fixed basis.

Coefficients are `fractions.Fraction` (always reduced, exact equality).  Vectors,
matrices and order-2/3 tensors are immutable nested tuples wrapped in small
dataclasses.  Dual-space vectors are expressed in the dual basis of the
declared primal basis.

One sparse form and one kernel do the arithmetic.  The form is `IntTable`:
a nested table of Fractions read once as Python ints L·c, L the lcm of its
denominators, listing only its nonzero entries.  It is the one stored form
of every structure (`FinAlgebra`, `Bimodule`, `CoalgStruct`), one per cube,
whose nested cubes are a view built from it on first read (`nested`); a
`Tensor2`, `LinMap` or `BilinForm` builds one for its matrix.  The kernel
is `contract`, which evaluates a signed list of terms;
a term is a product of labelled tables (product cubes, action matrices,
coproduct cubes, an operator matrix, a vector), each axis named by a
letter, summed over the labels that do not appear in the output.  The law
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
every factor is grouped, where each product lands, and how an intermediate
is laid out and regrouped for the next factor; a term that lacks an output
label raises `ValueError`.  It is cached on the law and the extents only,
never on a table or a value, so there is one entry per law table and
extents seen.  A call of `contract` then makes one pass over each term's
tables for the product of their scales (and, on the packed path, one more
for the width bound), reads groupings and adds ints.

The entry also holds a packed plan where the law has four or more output
labels and every term carries the last two, F, exactly once, on one
factor.  Where a packed int holds at least
``MIN_PACKED_CELLS`` cells and every table the law reads is dense
(`IntTable.dense`), each table value carries its F labels as
L·c·2^(w·e), e its offset inside F, and the unchanged loop multiplies and
adds ints that each hold every cell of one row over F.  Multiplying two
values adds their offsets, and a term carries each F label once, so an
output int is exactly Σₑ cell·2^(w·e).  The width w, a multiple of 32, is
chosen per call above the bit length of a bound on every |cell| (the sum
over terms of |sign|·D/L·Π max|value|·the number of values of the summed
labels), so every |cell| < 2^(w−1) and the balanced base-2^w digits of the
int are the cells: integers only, no overflow, no tolerance.  The cells are
then a `PackedCells`, the row-major ints.  Either form is read through
`first_cell` and `nonzero_cells`, which decode only a nonzero int.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, product
from math import gcd, lcm, prod
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
    order.  It is a structure's one stored form, one per cube, so every
    check and product on it reads the same table.  ``dense`` says whether
    at least ``MIN_FILL_PERCENT`` of its ``size`` cells are nonzero (False
    where the size is not given), and ``top`` is max |L·c|, 0 for no entry.
    """

    __slots__ = ("scale", "entries", "dense", "_top", "_groups")

    def __init__(self, table=(), scale: int = 1, entries=None, size: int = 0):
        if entries is None:
            rows = [((), table)]
            while rows and rows[0][1] and not isinstance(rows[0][1][0], Fraction):
                rows = [(idx + (i,), y) for idx, x in rows for i, y in enumerate(x)]
            size = sum(len(row) for _idx, row in rows)
            scale, entries = int_entries(
                [(idx + (j,), c) for idx, row in rows for j, c in enumerate(row) if c])
        self.scale = scale
        self.entries = entries
        self.dense = 100 * len(entries) >= MIN_FILL_PERCENT * size > 0
        self._top = None
        self._groups = {}

    @property
    def top(self) -> int:
        if self._top is None:
            self._top = max((abs(v) for _idx, v in self.entries), default=0)
        return self._top

    def grouped(self, gid: int) -> dict:
        """The entries as key ↦ [(offset, value)], for the grouping spec
        (key, placed, packed, w) numbered ``gid`` (`_grouping`): the key is
        Σ index[p]·stride over the (p, stride) pairs of ``key``, the offset
        the same sum over ``placed``.

        With ``packed`` empty the value is an entry L·c.  Otherwise the
        entries that share a key and an offset are summed into one packed
        int, each as L·c·2^(w·e), e the same sum over ``packed``: the entry's
        offset inside the packed labels (see `contract_cells`).

        It is stored under ``gid``, which a compiled plan holds.
        `contract_cells` builds each grouping once per table, on its first
        read, so every law and product that reads a table the same way
        shares it.
        """
        key, placed, packed, w = _SPECS[gid]
        g = {}
        if packed:
            sums = {}
            for idx, v in self.entries:
                k = off = e = 0
                for p, s in key:
                    k += idx[p] * s
                for p, s in placed:
                    off += idx[p] * s
                for p, s in packed:
                    e += idx[p] * s
                sums[k, off] = sums.get((k, off), 0) + (v << w * e)
            for (k, off), v in sums.items():
                if v:
                    g.setdefault(k, []).append((off, v))
        else:
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


def int_entries(found: list) -> tuple[int, list]:
    """(L, [(index tuple, L·c)]) for the nonzero Fractions c of ``found``,
    (index tuple, c) pairs, L the lcm of their denominators: the ``scale``
    and ``entries`` of their `IntTable`."""
    scale = lcm(*(c.denominator for _idx, c in found))
    return scale, [(idx, c.numerator * (scale // c.denominator)) for idx, c in found]


_GROUPINGS: dict = {}
_SPECS: list = []

# The packed path (`contract_cells`) is taken where a packed int holds at
# least MIN_PACKED_CELLS cells and at least MIN_FILL_PERCENT of the cells of
# every table the law reads are nonzero; below either the plain path was as
# fast or faster in the sweep of BENCH_21.json.
MIN_PACKED_CELLS = 9
MIN_FILL_PERCENT = 50


def _grouping(spec: tuple) -> int:
    """The number of the grouping spec (key, placed, packed, w), one per
    distinct spec; ``_SPECS`` lists the specs by number.

    A table's groupings are stored under it, because hashing an int on every
    lookup costs far less than hashing the nested pairs.  The numbers depend
    on the laws and the packed widths alone, so there are as many as the
    compiled plans need."""
    gid = _GROUPINGS.get(spec)
    if gid is None:
        gid = _GROUPINGS[spec] = len(_SPECS)
        _SPECS.append(spec)
    return gid


def _strides(labels, extent) -> tuple[dict, int]:
    strides, size = {}, 1
    for x in reversed(labels):
        strides[x] = size
        size *= extent(x)
    return strides, size


def _spec(labels: str, key_strides: dict, strides: dict, packs: dict, w: int,
          skip: str = "") -> int:
    """The number of the grouping of a factor labelled ``labels``: the key
    over the labels in ``key_strides``, the offset over those in ``strides``
    and not in ``skip``, and the offset inside the packed labels over those
    in ``packs``, at width ``w``."""
    key = tuple((p, key_strides[x]) for p, x in enumerate(labels) if x in key_strides)
    placed = tuple((p, strides[x]) for p, x in enumerate(labels)
                   if x in strides and x not in skip)
    packed = tuple((p, packs[x]) for p, x in enumerate(labels) if x in packs)
    return _grouping((key, placed, packed, w if packed else 0))


def _packed_labels(terms: tuple, out_labels: str) -> str:
    """The last two of ``out_labels`` where there are four or more and every
    term carries each of the two exactly once, on one factor; else "", and
    the law keeps the plain plan."""
    fixed = out_labels[-2:]
    if len(out_labels) >= 4 and all("".join(labels for _name, labels in factors).count(x) == 1
                                    for _sign, *factors in terms for x in fixed):
        return fixed
    return ""


def _extent(extents):
    """The extent of a label, from ``extents`` as `_compile` takes it."""
    return dict(extents).__getitem__ if isinstance(extents, tuple) else lambda _x: extents


@lru_cache(maxsize=None)
def _compile(terms: tuple, out_labels: str, extents) -> tuple:
    """The plain plan (output size, per-term plans, see `_plan`) and the
    packed plan, or None, resolved for ``extents``.

    The packed plan packs F, the last two output labels (`_packed_labels`),
    where a packed int holds at least ``MIN_PACKED_CELLS`` cells.  It is (table
    names, cells per packed int, per term the number of values of its summed
    labels, the strides of F, width ↦ plan): the plan over the other output
    labels at a width w, each factor's F labels packed into its values,
    which `contract_cells` resolves on the first call at w.

    The cache key is the law (its terms and output labels) and ``extents``,
    an int or sorted (label, extent) pairs; it holds no table, scale or
    value.  So the cache holds one entry per law table and extents seen: a
    law over one dimension n has at most ``io.MAX_DIM`` of them.
    """
    extent = _extent(extents)
    packed = None
    fixed = _packed_labels(terms, out_labels)
    if fixed:
        packs, per = _strides(fixed, extent)
        if per >= MIN_PACKED_CELLS:
            names = tuple(dict.fromkeys(
                name for _sign, *factors in terms for name, _labels in factors))
            summed = tuple(prod([extent(x) for x in set("".join(
                labels for _name, labels in factors)) if x not in out_labels])
                for _sign, *factors in terms)
            packed = (names, per, summed, packs, {})
    return (*_plan(terms, out_labels, extent, {}, 0), packed)


def _plan(terms: tuple, out_labels: str, extent, packs: dict, w: int) -> tuple:
    """The output size and, per term, (sign, table names, first, steps), the
    labels in ``packs`` packed into the factors' values at width ``w``.

    ``first`` is (table, grouping number), how the first factor is grouped
    (`IntTable.grouped`).  Each step contracts the factors so far with the
    next one, (table, grouping number, regroup): it keeps a label that is
    an output label or is read by a later factor and sums over the others.  The last step adds into the
    output, and its ``regroup`` is None.  An earlier step fills a flat
    intermediate laid out as (labels the next factor reads and no later step
    keeps, labels it reads that are kept, labels it does not read), so the
    next key of a cell p is p // cut; ``regroup`` is (width, cut, ((stride,
    extent, next stride), …)) over the labels the next step keeps.  A
    packed label is neither an output label nor read twice, so the steps
    treat it as summed and it rides in the values.
    """
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
        if any(x not in out_labels and x not in packs for x in labels):
            raise ValueError(f"term {tuple(factors)} leaves a label outside {out_labels!r}")
        if any(x not in labels for x in out_labels):
            raise ValueError(f"term {tuple(factors)} lacks a label of {out_labels!r}")
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
            first = (names[0], _spec(left, {}, out_strides, packs, w))
        else:
            key_strides = _strides([x for x in left if x in labelings[1]], extent)[0]
            first = (names[0], _spec(left, key_strides, spaces[0][0], packs, w))
        steps = []
        for t, keep in enumerate(keeps):
            strides, width, cut = spaces[t]
            steps.append((names[t + 1],
                          _spec(labelings[t + 1], key_strides, strides, packs, w, left),
                          None if cut is None else (width, cut, tuple(
                              (strides[x], extent(x), spaces[t + 1][0][x])
                              for x in keep if x in keeps[t + 1]))))
            if cut is not None:
                key_strides = {x: strides[x] // cut for x in keep if x in labelings[t + 2]}
            left = keep
        plans.append((sign, names, first, tuple(steps)))
    return size, tuple(plans)


def _regroup(acc: list, width: int, cut: int, parts: tuple) -> dict:
    """The nonzero cells of an intermediate as key ↦ [(offset, value)] for
    the next step (see `_plan`)."""
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


def contract_cells(terms: tuple, tables: dict, out_labels: str, n) -> tuple:
    """Σ sign·(product of the factors) over the terms, as (cells, D): a flat
    row-major sequence of ints in the order of ``out_labels``, cell x
    standing for x/D.

    A term is ``(sign, (table, labels), (table, labels), …)``.  ``labels``
    names the axes of ``tables[table]`` in storage order, one letter each:
    ``"kij"`` for a product cube c[k][i][j], ``"ipq"`` for a coproduct cube
    θ[i][p][q], ``"iab"`` for action matrices.  The factors are contracted
    left to right; each step sums over the labels that neither the output nor
    a later factor reads, and matches a label both sides carry that is kept.
    Every term carries every output label.  ``n`` is the extent of every
    label, or a dict from label to extent.  ``terms`` is a tuple.

    The steps are compiled once per law and extents (`_compile`), so a call
    makes one pass over each term's tables for their scales (and, packed,
    one for the width bound), reads the tables' groupings and adds
    integers.  ``tables`` maps each
    name to its `IntTable`: Python ints L·c, L the lcm of the table's
    denominators, so a term's products carry the denominator L₁·L₂⋯.  Every
    term is scaled to D, the lcm of those denominators over all terms, and
    the cells are summed as ints; x/D is then the exact rational value,
    whatever mix of tables the terms draw on.

    Where the law has a packed plan and every table it reads is dense, the
    cells of the packed labels F ride in one int: each table value is
    L·c·2^(w·e), e its offset inside F, and the same loop multiplies and
    adds ints that each hold a row of cells, so it runs once per row instead
    of once per cell.  A product of two values adds their offsets, and every
    term carries each F label once, so each output int is exactly
    Σₑ cell·2^(w·e).  The width w is 32·⌈(b + 1)/32⌉ for the bit length b of
    Σₜ |sign|·(D/Lₜ)·Π max|value|·(the number of values of the summed
    labels), a bound on every |cell|, so |cell| < 2^(w−1) and the balanced
    base-2^w digits of the int are the cells: exact, with no overflow and
    no tolerance.  The cells are then a `PackedCells`.  Either form is read
    through `first_cell` and `nonzero_cells`; ``len`` is their number.
    """
    extents = n if isinstance(n, int) else tuple(sorted(n.items()))
    size, plan, packed = _compile(terms, out_labels, extents)
    # plain loops: a comprehension per term costs a frame and a list each call
    scales = []
    for term in plan:
        scale = 1
        for name in term[1]:
            scale *= tables[name].scale
        scales.append(scale)
    den = lcm(*scales)
    w = 0
    if packed is not None:
        for name in packed[0]:
            if not tables[name].dense:
                break
        else:
            _names, per, summed, packs, by_width = packed
            bound = 0
            for term, scale, values in zip(plan, scales, summed):
                top = abs(term[0]) * (den // scale) * values
                for name in term[1]:
                    top *= tables[name].top
                bound += top
            w = (bound.bit_length() + 32) // 32 * 32
            if w not in by_width:
                by_width[w] = _plan(terms, out_labels[:-len(packs)], _extent(extents), packs, w)
            size, plan = by_width[w]
    out = [0] * size
    for (sign, _names, (name, gid), steps), scale in zip(plan, scales):
        m = sign * (den // scale)
        table = tables[name]
        g1 = table._groups.get(gid)
        if g1 is None:
            g1 = table.grouped(gid)
        if not steps:
            for off, v in g1.get(0, ()):
                out[off] += m * v
        for right, gid, regroup in steps:
            table = tables[right]
            g2 = table._groups.get(gid)
            if g2 is None:
                g2 = table.grouped(gid)
            # The last step adds the scaled term into the output; earlier
            # steps fill an intermediate, regrouped for the next step.
            acc, mult = (out, m) if regroup is None else ([0] * regroup[0], 1)
            for k, pairs in g1.items():
                rows = g2.get(k)
                if rows:
                    for p1, v1 in pairs:
                        mv = mult * v1
                        for p2, v2 in rows:
                            acc[p1 + p2] += mv * v2
            if regroup is not None:
                g1 = _regroup(acc, *regroup)
    return (PackedCells(out, w, per) if w else out), den


class PackedCells:
    """The row-major cells of a packed contraction, decoded on read.

    ``ints[q]`` holds cells q·per to q·per + per − 1, cell q·per + e as
    its balanced base-2^w digit e: ints[q] = Σₑ cell·2^(w·e), every
    |cell| < 2^(w−1), so the digits are unique and ints[q] is 0 iff all its
    cells are.  `nonzero` decodes the nonzero ints only, and keeps nothing.
    """

    __slots__ = ("ints", "w", "per")

    def __init__(self, ints: list, w: int, per: int):
        self.ints, self.w, self.per = ints, w, per

    def _digits(self, x: int) -> list:
        """The per digits of x, lowest first."""
        size, half = self.w // 8, 1 << self.w - 1
        # with half added to every digit each one is a plain base-2^w digit
        bias = int.from_bytes(half.to_bytes(size, "little") * self.per, "little")
        b = (x + bias).to_bytes(size * self.per, "little")
        return [int.from_bytes(b[i:i + size], "little") - half
                for i in range(0, len(b), size)]

    def nonzero(self):
        """(p, x) for each nonzero cell x, in row-major order."""
        per = self.per
        for q in compress(count(), self.ints):
            digits = self._digits(self.ints[q])
            for e in compress(count(), digits):
                yield q * per + e, digits[e]

    def __len__(self):
        return len(self.ints) * self.per


def first_cell(cells) -> tuple | None:
    """(p, x) for the first nonzero cell x of `contract_cells`' cells, or None."""
    if isinstance(cells, PackedCells):
        return next(cells.nonzero(), None)
    p = next(compress(count(), cells), None)
    return None if p is None else (p, cells[p])


def nonzero_cells(cells) -> Iterable[tuple]:
    """(p, x) for each nonzero cell x of `contract_cells`' cells, in
    row-major order."""
    if isinstance(cells, PackedCells):
        return cells.nonzero()
    return zip(compress(count(), cells), filter(None, cells))


def fractions(cells, den: int) -> list:
    """The Fractions x/den of integer cells, the shared ``ZERO`` for x = 0."""
    out = [ZERO] * len(cells)
    for p, x in nonzero_cells(cells):
        out[p] = Fraction(x, den)
    return out


def nested(cells, den: int, dims) -> tuple:
    """The table of Fractions x/den of extents ``dims``, nested, with the
    shared ``ZERO`` in a zero cell.  ``cells`` are its row-major ints, as
    `contract_cells` gives them, or an `IntTable` of its nonzero ones."""
    if not isinstance(cells, IntTable):
        return nest(fractions(cells, den), dims)
    flat = [ZERO] * prod(dims)
    for idx, x in cells.entries:
        p = 0
        for i, d in zip(idx, dims):
            p = p * d + i
        flat[p] = Fraction(x, den)
    return nest(flat, dims)


def unravel(p: int, dims) -> tuple:
    """The index tuple of cell p of a row-major table of extents ``dims``."""
    idx = []
    for d in reversed(dims):
        p, r = divmod(p, d)
        idx.append(r)
    return tuple(reversed(idx))


# a list holds an index tuple per cell of one plane of a table, so only a
# few are kept
@lru_cache(maxsize=8)
def _inner_indices(dims: tuple) -> list:
    """The index tuples over the extents ``dims``, in row-major order."""
    return list(product(*map(range, dims)))


def cube_table(cells, den: int, dims) -> IntTable:
    """The `IntTable` of the table of Fractions x/den of extents ``dims``, a
    tuple, over the row-major ``cells``, read straight from the ints.

    With g = gcd(den, x₁, x₂, …), the lcm of the reduced denominators is
    den/g and each entry is x/g, so one gcd gives the ``scale`` and
    ``entries`` that `IntTable` gives on the nested Fractions.
    """
    inner = _inner_indices(dims[1:])
    m = len(inner)
    entries = [((p // m, *inner[p % m]), x) for p, x in nonzero_cells(cells)]
    g = gcd(den, *[x for _idx, x in entries])
    if g > 1:
        entries = [(idx, x // g) for idx, x in entries]
    return IntTable(scale=den // g, size=len(cells), entries=entries)


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


def _row_reduce(rows, cols: int) -> tuple[list, list, Fraction]:
    """The reduced row-echelon form of ``rows`` over their first ``cols``
    columns, by Gauss-Jordan elimination with first-nonzero pivoting.

    Returns (reduced rows, the pivot column of each pivot row, in order, the
    product of the pivots times the sign of the row swaps).  The reduced form
    is unique, so what is read from it does not depend on the pivoting.
    """
    m = [list(row) for row in rows]
    pivots, det = [], ONE
    for col in range(cols):
        row = len(pivots)
        p = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if p is None:
            continue
        if p != row:
            m[row], m[p] = m[p], m[row]
            det = -det
        det *= m[row][col]
        inv = ONE / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    return m, pivots, det


def mat_inverse(a):
    """Exact inverse: the right half of the reduced [a | identity].

    Raises DegenerateFormError on a singular matrix.
    """
    n = len(a)
    m, pivots, _det = _row_reduce(
        [list(row) + list(idrow) for row, idrow in zip(a, identity_matrix(n))], n)
    if len(pivots) < n:
        raise DegenerateFormError("matrix is singular")
    return tuple(tuple(row[n:]) for row in m)


def determinant(a) -> Fraction:
    n = len(a)
    _m, pivots, det = _row_reduce(a, n)
    return det if len(pivots) == n else ZERO


@dataclass(frozen=True)
class Vec:
    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence):
        object.__setattr__(self, "coords", tuple(_frac(c) for c in coords))

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
        return all(x == 0 for row in self.coeffs for x in row)

    def first_nonzero(self):
        """First ((i, j), value) with a nonzero entry, or None."""
        for i, row in enumerate(self.coeffs):
            for j, x in enumerate(row):
                if x != 0:
                    return (i, j), x
        return None


@dataclass(frozen=True)
class Tensor3:
    """Element of U⊗V⊗W: coeffs[i][j][k] is the coefficient of uᵢ⊗vⱼ⊗wₖ."""

    coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(mat_add(p, q) for p, q in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3(
            tuple(mat_sub(p, q) for p, q in zip(self.coeffs, other.coeffs))
        )

    def is_zero(self) -> bool:
        return all(x == 0 for plane in self.coeffs for row in plane for x in row)

    def first_nonzero(self):
        for i, plane in enumerate(self.coeffs):
            for j, row in enumerate(plane):
                for k, x in enumerate(row):
                    if x != 0:
                        return (i, j, k), x
        return None


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

    def kernel_vector(self):
        """A nonzero vector v with ω(v, -) = 0, or None if nondegenerate."""
        n = self.dim
        # ωᵀ v = 0: a column of the reduced ωᵀ with no pivot yields a kernel vector
        m, pivots, _det = _row_reduce(transpose(self.matrix), n)
        c0 = next((c for c in range(n) if c not in pivots), None)
        if c0 is None:
            return None
        v = [ZERO] * n
        v[c0] = ONE
        for r, col in enumerate(pivots):
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
