"""Laurent-polynomial perm algebra and windowed completed-coalgebra checks.

The graded perm algebra has basis monomials x₁^{i₁}x₂^{i₂}∂ₛ (s ∈ {1,2}),
indexed by GradedPermIndex.  Its completed coproduct ν produces infinite
formal sums; those are never materialized — every check works through exact
per-coefficient formulas, with enumeration confined to a finite index window.
A composition of depth k is only verified where all intermediate exponents
provably stay inside the window ("safe region"), so truncation can never turn
a failure into a pass or vice versa.

Every windowed law is decided once per coincidence pattern.  A product is a
unit shift, x^{i}∂ₛ·x^{j}∂ₜ = x^{i+j+eₛ}∂ₜ with eₛ the unit vector of xₛ;
ϖ(x^{i}∂ₛ, x^{j}∂ₜ) is zero unless i + j = 0, with a value fixed by s and t;
and ν(x^{c}∂ₜ) = Σₛ ±Σᵤ x^{u}∂ₛ ⊗ x^{c+e₃₋ₛ−u}∂ₜ covers a full anti-diagonal:
every u occurs, once.  So each term of a law has a fixed ∂-index in each slot,
and the exponents of its slots (of its form arguments, for ϖ) add up to those
of the sources plus a fixed offset; it gives one coefficient, the same for all
of them, to every monomial tuple with those ∂-indices and that sum.  Every
intermediate exponent is fixed by the target and the sources, so for
safe-region sources the coefficient of a window target is the exact one, a
finite sum that no truncation changes.  A check visits window sources and
targets only where a pattern's residual is nonzero, and counts the others in
closed form.  A report's failures are built on first read (`Failures`), so
the verdict and the first failure come without building the others.  They
are listed in the order of their targets: every window cell has an integer
rank, its position in sorted order, so a target is one int and its cells are
built once, after the sort (`_grid`, `_window_residuals`).

Each law is a finite law read on a skeleton (`_patterns`): slot 2d + s − 1 of
a space of dimension 2·dim D stands for every d⊗x^{i}∂ₛ of D⊗B, slot s − 1 of
a 2-slot space for every x^{i}∂ₛ of B, and each factor that reads a product
or a coproduct gains a last axis, the unit shift (e₁ or e₂) of its term.
Affine associativity, casi1, casi2 and completed coassociativity are
`AXIOMS["assoc"]`, `BIALGEBRA_LAWS["assoc"]` and `COALGEBRA_LAWS["assoc"]` on
the `tensor_assoc` product and the `induce_asi` coproduct of D⊗B, once per
call.  The laws of B alone are `AXIOMS["perm"]`, `COALGEBRA_LAWS["perm"]`,
`QUADRATIC_LAWS["invariance"]` and `NU_PAIRING`, on B's product, ν and ϖ as
`mono_product`, `_pattern_nu` and `_form_sign` give them at call time, once
per B.  `exact.contract_cells` gives each pattern's residual as an integer
over one common denominator, a Fraction only where a failure is recorded.
Antisymmetry, grading and the dual pairing of ϖ stay written out: their
failures record the form value ϖ(a, b), which a residual does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, islice, product, repeat
from operator import itemgetter
from typing import Iterator, NamedTuple

from .algebras import AXIOMS, FinAlgebra
from .bialgebras import (
    BIALGEBRA_LAWS, COALGEBRA_LAWS, COPRODUCT_CONSTRUCTIONS, QUADRATIC_LAWS, CoalgStruct,
)
from .exact import ONE, ZERO, IntTable, contract_cells, cube_table, nonzero_cells
from .functors import CONSTRUCTIONS, tensor_extents


class GradedPermIndex(NamedTuple):
    """Basis monomial x₁^{i1}x₂^{i2}∂ₛ of the Laurent perm algebra."""

    i1: int
    i2: int
    s: int


Mono = GradedPermIndex
# Mono((i1, i2, s)) without the keyword-argument layer of Mono(i1, i2, s)
_mono = partial(tuple.__new__, Mono)

# Grading constant: ϖ(B_i, B_j) = 0 unless i + j + m = 0, with
# deg(x₁^{i₁}x₂^{i₂}∂ₛ) = i₁ + i₂ + 1; the form pairs only monomials whose
# exponents cancel, so m = -2 (derived from the data, not stated in closed
# form by the source convention).
GRADING_M = -2

# Largest window the CLI accepts; a larger one is refused before any check
# runs.  A failing input has one failure per window target, and their number
# grows steeply with N: one coproduct coefficient shifted by 1/3 gives 2.5
# million at N = 4, about 6 s and 530 MB to list, and 11.7 million at N = 5.
# `affine` reads the verdict and the first failure only, so it takes about 0.2 s
# and 23 MB at N = 4 on two vCPUs, interpreter start-up included.
MAX_WINDOW = 5


class InsufficientWindowError(ValueError):
    """The index window is too small for the requested composition depth."""


@dataclass(frozen=True)
class Window:
    """Index box {|i₁| ≤ N, |i₂| ≤ N, s ∈ {1,2}} for windowed checks."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("window size must be at least 1")

    def safe_bound(self, depth: int) -> int:
        """Exponent bound for sources of a depth-``depth`` composition.

        Each product or coproduct application shifts one exponent by exactly
        one, so sources within N − depth keep every term inside the window.
        """
        bound = self.N - depth
        if bound < 0:
            raise InsufficientWindowError(
                f"insufficient window: N={self.N} cannot support composition depth {depth}"
            )
        return bound

    def contains(self, m: Mono) -> bool:
        return abs(m.i1) <= self.N and abs(m.i2) <= self.N


def mono_degree(m: Mono) -> int:
    return m.i1 + m.i2 + 1


def iter_box(bound: int) -> Iterator[Mono]:
    for i1 in range(-bound, bound + 1):
        for i2 in range(-bound, bound + 1):
            for s in (1, 2):
                yield Mono(i1, i2, s)


def mono_product(a: Mono, b: Mono) -> Mono:
    """(x^{i}∂ₛ)·(x^{j}∂ₜ): shift x₁ if s = 1, shift x₂ if s = 2; keep ∂ₜ."""
    if a.s == 1:
        return Mono(a.i1 + b.i1 + 1, a.i2 + b.i2, b.s)
    return Mono(a.i1 + b.i1, a.i2 + b.i2 + 1, b.s)


def _form(a: Mono, b: Mono) -> int:
    """ϖ(a, b) as an int: 1, −1 or 0."""
    if a.s == b.s or a.i1 + b.i1 or a.i2 + b.i2:
        return 0
    return 1 if a.s == 2 else -1


_FORM_VALUES = {0: ZERO, 1: ONE, -1: -ONE}


def graded_form(a: Mono, b: Mono) -> Fraction:
    """ϖ(x^{i}∂₂, x^{j}∂₁) = δ_{i+j,0}; antisymmetric; zero on equal ∂-indices."""
    return _FORM_VALUES[_form(a, b)]


def laurent_dual_basis(m: Mono) -> tuple[Mono, int]:
    """The homogeneous dual f of a basis monomial, with ϖ(f, m) = 1.

    dual(x^{i}∂₁) = x^{−i}∂₂ and dual(x^{i}∂₂) = −x^{−i}∂₁; with this
    convention ν(b) = Σ_e e⊗(dual(e)·b) holds coefficientwise.
    """
    if m.s == 1:
        return Mono(-m.i1, -m.i2, 2), 1
    return Mono(-m.i1, -m.i2, 1), -1


def _zero(s: int) -> Mono:
    """x⁰∂ₛ, the representative of every monomial with ∂-index s."""
    return _mono((0, 0, s))


def _form_sign(s: int, t: int) -> int:
    """ϖ(x^{i}∂ₛ, x^{−i}∂ₜ): the form on two ∂-indices where the exponents cancel."""
    return _form(_zero(s), _zero(t))


def _add(d: dict, key, val):
    d[key] = d.get(key, 0) + val


def _support(d: dict) -> dict:
    """The entries of ``d`` with a nonzero value."""
    return {key: c for key, c in d.items() if c}


# --- coincidence patterns ----------------------------------------------------
#
# A pattern slot stands for every monomial with a given ∂-index (in the D⊗B
# checks, a pair (d, s) of a basis index of D and a ∂-index).  A pattern term
# (slots…, offset, c) stands for every tensor of monomials with the slots'
# ∂-indices whose exponents add up to those of the sources plus ``offset``, each
# with coefficient c.

# eₛ: the exponent vector a product by ∂ₛ raises
_UNIT = {1: (1, 0), 2: (0, 1)}


def _pattern_nu(t: int) -> list:
    """ν(x^{c}∂ₜ) = Σᵤ x^{u}∂₁ ⊗ x^{c+e₂−u}∂ₜ − Σᵤ x^{u}∂₂ ⊗ x^{c+e₁−u}∂ₜ, as
    terms (first ∂, second ∂, offset, sign)."""
    return [(1, t, _UNIT[2], 1), (2, t, _UNIT[1], -1)]


def _slots(dim: int) -> list:
    return [(d, s) for d in range(dim) for s in (1, 2)]


def _splits(total: int, N: int, weights: list) -> list:
    """Σⱼ wⱼ·(eⱼ + N) for every tuple (e₁, …, e_k) of exponents in [−N, N] that
    adds up to ``total``, with k = len(weights)."""
    w, *rest = weights
    if not rest:
        return [w * (total + N)] if -N <= total <= N else []
    reach = len(rest) * N
    return [
        w * (e + N) + tail
        for e in range(max(-N, total - reach), min(N, total + reach) + 1)
        for tail in _splits(total - e, N, rest)
    ]


def _grid(N: int, dim: int | None = None) -> tuple[list, dict]:
    """The window cells in sorted order, and the rank of each slot's first cell.

    A cell is a monomial x^{i}∂ₛ or, given ``dim``, a pair (d, x^{i}∂ₛ) of D⊗B.
    Its rank, its position in the list, is ((d·W + i₁+N)·W + i₂+N)·2 + s − 1
    with W = 2N + 1 (d = 0 for a monomial), so a slot s or (d, s) starts at the
    rank of i = (−N, −N) and each exponent adds a fixed step to it.
    """
    r = range(-N, N + 1)
    monos = [_mono(i) for i in product(r, r, (1, 2))]
    if dim is None:
        return monos, {s: s - 1 for s in (1, 2)}
    return ([(d, m) for d in range(dim) for m in monos],
            {(d, s): 2 * d * len(r) ** 2 + s - 1 for d, s in _slots(dim)})


def _window_residuals(patterns: dict, base: tuple, N: int, scale: int, grid: tuple) -> list:
    """(key, residual) for every window target of each pattern, sorted by key.

    ``patterns`` maps (target slots, offset) to a nonzero residual over
    ``scale``; the targets' exponents add up to ``base`` plus the offset, and
    their cells are read from ``grid`` (`_grid`).  A key of k cells of ranks
    r₁, …, r_k is numbered Σⱼ rⱼ·R^{k−j} with R the number of cells, which
    sorts as the key does; rank is affine in the exponents, so a pattern's
    numbers are its slots' first ranks plus one split of each axis.  The
    numbers, times the number P of patterns plus the pattern's index, are
    sorted as ints, and each key is built once, in output order.
    """
    if not patterns:
        return []
    cells, first = grid
    R, P = len(cells), len(patterns)
    k = len(next(iter(patterns))[0])
    place = [P * R ** (k - 1 - j) for j in range(k)]
    # an exponent step is 2·W ranks on the first axis and 2 on the second
    step1 = [2 * (2 * N + 1) * w for w in place]
    step2 = [2 * w for w in place]
    codes, values = [], []
    for p, ((slots, offset), c) in enumerate(patterns.items()):
        values.append(Fraction(c, scale))
        start = sum(first[slot] * w for slot, w in zip(slots, place)) + p
        ys = _splits(base[1] + offset[1], N, step2)
        codes += [start + x + y for x in _splits(base[0] + offset[0], N, step1) for y in ys]
    codes.sort()
    if k == 1:
        return [((cells[n],), values[p]) for n, p in map(divmod, codes, repeat(P))]
    if k == 2:
        return [((cells[n // R], cells[n % R]), values[p])
                for n, p in map(divmod, codes, repeat(P))]
    RR = R * R
    return [((cells[n // RR], cells[n // R % R], cells[n % R]), values[p])
            for n, p in map(divmod, codes, repeat(P))]


def _split_counts(N: int, k: int) -> dict:
    """total ↦ the number of k-tuples of exponents in [−N, N] that add up to
    it, for every total that has one."""
    counts = {0: 1}
    for _ in range(k):
        wider: dict = {}
        for total, c in counts.items():
            for e in range(-N, N + 1):
                _add(wider, total + e, c)
        counts = wider
    return counts


def _box_size(bound: int) -> int:
    """The number of monomials ``iter_box(bound)`` yields."""
    return 2 * (2 * bound + 1) ** 2


# --- graded perm algebra checks ---------------------------------------------


# Holds the first failure of a `Failures` until it is first read.
_UNREAD = object()


class Failures:
    """The failures of a windowed check, in output order, built on first read.

    ``batches`` returns an iterable of lists or iterators of them, in output
    order, so that a full read chains them at C speed.  ``bool`` and an index
    i ≥ 0 read the first i + 1 from a fresh one, so the verdict and the first
    witness come without building the rest; the first failure (or its
    absence) is kept, so ``bool``, ``ok`` and ``[0]`` together list once.
    Every other read (len, iteration, slices, negative indices, ==, !=,
    hash, repr) builds the tuple once, keeps it and reads it, so it reads as
    the tuple and its items stay alive.
    """

    __slots__ = ("_batches", "_all", "_first")

    def __init__(self, batches):
        self._batches, self._all, self._first = batches, None, _UNREAD

    def _tuple(self) -> tuple:
        if self._all is None:
            self._all = tuple(chain.from_iterable(self._batches()))
        return self._all

    def _head(self):
        """The first failure, or None, from one listing, kept."""
        if self._first is _UNREAD:
            self._first = next(chain.from_iterable(self._batches()), None)
        return self._first

    def __bool__(self):
        if self._all is None:
            return self._head() is not None
        return bool(self._all)

    def __getitem__(self, i):
        if self._all is None and isinstance(i, int) and i >= 0:
            if i:
                hit = next(islice(chain.from_iterable(self._batches()), i, None), None)
            else:
                hit = self._head()
            if hit is None:
                raise IndexError("tuple index out of range")
            return hit
        return self._tuple()[i]

    def __len__(self):
        return len(self._tuple())

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        return self._tuple() == other

    def __hash__(self):
        return hash(self._tuple())

    def __repr__(self):
        return repr(self._tuple())


@dataclass(frozen=True)
class AffineReport:
    """Outcome of a windowed check: labelled exact failures with locations,
    built on first read (`Failures`); ``ok`` and the first come without them."""

    subject: str
    window: int
    safe_region: str
    checked: int
    failures: Failures

    @property
    def ok(self) -> bool:
        return not self.failures


def _part(bound: int, s: int) -> list:
    """The monomials of ``iter_box(bound)`` with ∂-index s, in box order."""
    return [m for m in iter_box(bound) if m.s == s]


def check_laurent_perm_axioms(w: Window) -> AffineReport:
    """Perm identities b₁(b₂b₃) = (b₁b₂)b₃ = (b₂b₁)b₃ on all window triples.

    `AXIOMS["perm"]` on the skeleton of B.  Each side is one monomial with
    coefficient 1, so a law that fails on a ∂-triple leaves two entries in
    its residual, +1 at its left side and −1 at its right, each a ∂-index
    and an offset from b₁ + b₂ + b₃: the two monomials of the failure.
    Window triples are visited, in box order, only where a law fails.
    """
    bound = w.safe_bound(2)
    b = _skeleton_b()
    failing: dict = {}
    for label in AXIOMS["perm"]:
        for parts, res in _b_patterns(label, b)[0].items():
            failing.setdefault(parts, []).append((label, sorted(res, key=res.get, reverse=True)))
    monos = list(iter_box(bound)) if failing else []

    def batches():
        for src in product(monos, repeat=3):
            laws = failing.get((src[0].s, src[1].s, src[2].s))
            if laws:
                i1 = src[0].i1 + src[1].i1 + src[2].i1
                i2 = src[0].i2 + src[1].i2 + src[2].i2
                yield [(label, src, tuple(_mono((i1 + o1, i2 + o2, s))
                                          for (s,), (o1, o2) in sides)) for label, sides in laws]

    return AffineReport(
        "Laurent perm axioms", w.N, f"|i| <= {bound}", _box_size(bound) ** 3,
        Failures(batches),
    )


def check_graded_form(w: Window) -> AffineReport:
    """Antisymmetry, grading, and invariance of ϖ on window tuples; dual basis.

    ϖ(a, b) is nonzero only where a + b = 0, with a value fixed by the
    ∂-indices, and there the degrees add up to a constant: antisymmetry and
    grading are decided once per ∂-pair.  dual(x^{i}∂ₛ) has the exponent −i.
    Invariance is `QUADRATIC_LAWS["invariance"]` on the skeleton of B, its
    targets c in the safe region with a + b + c fixed by the sources a, b.
    Window tuples are visited only where a residual is nonzero.

    At N = 1 no invariance target is checked: the safe region is a + b + c
    = 0, and every invariance term needs a + b + c ≠ 0.  So a passing report
    at N = 1 covers antisymmetry, grading and the dual basis only, and a
    broken invariance shows from N = 2 on.
    """
    bound = w.safe_bound(1)
    # each failing pattern, with its value and the window monomials it ranges over
    pair_laws, dual_laws = [], []
    for sa, sb in product((1, 2), repeat=2):
        ab = _form_sign(sa, sb)
        labels = []
        if ab != -_form_sign(sb, sa):
            labels.append("antisymmetry")
        if ab and mono_degree(_zero(sa)) + mono_degree(_zero(sb)) + GRADING_M:
            labels.append("grading")
        if labels:
            pair_laws.append((labels, Fraction(ab), sb, _part(w.N, sa)))
    invariance, den = _b_patterns("invariance", _skeleton_b())
    inner = list(iter_box(bound)) if invariance else []
    for s in (1, 2):
        e = _zero(s)
        f, sign = laurent_dual_basis(e)
        if sign * _form(f, e) != 1:
            dual_laws.append((Fraction(_form(f, e)), _part(w.N, s)))

    def batches():
        pairs = [(label, (a, _mono((-a.i1, -a.i2, sb))), value)
                 for labels, value, sb, part in pair_laws for a in part for label in labels]
        yield sorted(pairs, key=itemgetter(1))
        grid = _grid(bound) if inner else None
        for a, b in product(inner, repeat=2):
            patterns = invariance.get((a.s, b.s))
            if patterns:
                kvs = _window_residuals(patterns, (-a.i1 - b.i1, -a.i2 - b.i2), bound, den, grid)
                yield [("invariance", (a, b, *key), value) for key, value in kvs]
        yield sorted((("dual_pairing", (m,), value) for value, part in dual_laws for m in part),
                     key=itemgetter(1))

    return AffineReport(
        "graded bilinear form", w.N, f"|i| <= {w.N}",
        _box_size(w.N) ** 2 + _box_size(bound) ** 3, Failures(batches),
    )


def check_nu_pairing(w: Window) -> AffineReport:
    """Defining relation ϖ̂(ν(b₁), b₂⊗b₃) = −ϖ(b₁, b₂b₃) on window triples.

    `NU_PAIRING` on the skeleton of B, with b₁ the source: both sides vanish
    unless b₁ + b₂ + b₃ plus an offset fixed by the ∂-indices is zero.
    """
    bound = w.safe_bound(1)
    live, den = _b_patterns("nu_pairing", _skeleton_b())
    sources = list(iter_box(bound)) if live else []  # in sorted order

    def batches():
        grid = _grid(w.N) if sources else None
        for b1 in sources:
            kvs = _window_residuals(live.get((b1.s,), {}), (-b1.i1, -b1.i2), w.N, den, grid)
            yield [("nu_pairing", (b1, *key), value) for key, value in kvs]

    return AffineReport(
        "completed coproduct pairing", w.N, f"sources |i| <= {bound}",
        _box_size(bound) * _box_size(w.N) ** 2, Failures(batches),
    )


def check_completed_perm_coalgebra(w: Window) -> AffineReport:
    """Perm coalgebra laws (ν⊗̂id)ν = (id⊗̂ν)ν = (τ̂⊗̂id)(id⊗̂ν)ν, windowed.

    `COALGEBRA_LAWS["perm"]` on the skeleton of B, each side a law of its
    own; targets are triples of window monomials, sources stay in the
    depth-2 safe region.  One comparison is counted per target that is
    nonzero on either side.
    """
    bound = w.safe_bound(2)
    # the window exponent triples of one axis adding up to i + o, for each o,
    # summed over the sources' exponents i: the count is separable in the axes
    counts = _split_counts(w.N, 3)
    axis = [sum(counts.get(i + o, 0) for i in range(-bound, bound + 1)) for o in range(3)]
    b = _skeleton_b()
    laws, checked = [], 0
    for label in COALGEBRA_LAWS["perm"]:
        # both sides read ν alone, so they share one denominator
        (one, den), (other, _) = (_b_patterns(label + side, b) for side in "+-")
        diff = {}
        for t in one.keys() | other.keys():
            plus, minus = one.get(t, {}), other.get(t, {})
            both = plus.keys() | minus.keys()
            checked += sum(axis[o1] * axis[o2] for _targets, (o1, o2) in both)
            diff[t] = _support({p: plus.get(p, 0) + minus.get(p, 0) for p in both})
        laws.append((label, diff, den))
    sources = list(iter_box(bound)) if any(any(diff.values()) for _, diff, _ in laws) else []

    def batches():
        grid = _grid(w.N) if sources else None
        for src in sources:
            for label, diff, den in laws:
                kvs = _window_residuals(diff.get((src.s,), {}), (src.i1, src.i2), w.N, den, grid)
                yield [(label, (src, key), value) for key, value in kvs]

    return AffineReport(
        "completed perm coalgebra", w.N, f"sources |i| <= {bound}", checked,
        Failures(batches),
    )


# --- the skeletons of D⊗B and of B --------------------------------------------
#
# A factor that reads a product or a coproduct carries one more axis, last:
# the unit shift of its term, 0 for e₁ and 1 for e₂.  A law's shift axes are
# "u", then "v": each of its terms has as many, and neither is its own label.


def _with_shift(construction: tuple, factor: str) -> tuple:
    """A construction on D⊗B with the shift axis "u" last on the factor
    ``factor`` and last in the output."""
    out, terms = construction
    return out + "u", tuple(
        (sign, *((name, labels + "u" if name == factor else labels) for name, labels in factors))
        for sign, *factors in terms)


def _on_skeleton(law: tuple) -> tuple:
    """A law read on the skeleton: the shift axes "u", then "v", last on each
    term's factors other than the form w, and last in the output."""
    out, terms = law
    skeleton = []
    for sign, *factors in terms:
        shifts = iter("uv")
        skeleton.append((sign, *((name, labels if name == "w" else labels + next(shifts))
                                 for name, labels in factors)))
    return out + "uv"[:sum(name != "w" for name, _labels in terms[0][1:])], tuple(skeleton)


_SKELETON_MUL = _with_shift(CONSTRUCTIONS["tensor_assoc"], "perm")
_SKELETON_CO = _with_shift(COPRODUCT_CONSTRUCTIONS["induce_asi"], "nu")
_SKELETON_LAWS = {
    "associativity": _on_skeleton(AXIOMS["assoc"]["associativity"]),
    "casi1": _on_skeleton(BIALGEBRA_LAWS["assoc"]["asi_bi_1"]),
    "casi2": _on_skeleton(BIALGEBRA_LAWS["assoc"]["asi_bi_2"]),
    "coassoc": _on_skeleton(COALGEBRA_LAWS["assoc"]["coassociativity"]),
}

# ϖ̂(ν(bᵢ), bⱼ⊗bₖ) + ϖ(bᵢ, bⱼbₖ), nested [i][j][k], over ν labelled co[i][p][q],
# the form w[s][t] = ϖ(bₛ, bₜ) and the product mul[k][i][j].  The Laurent ν is
# `bialgebras.NU_COPRODUCT` of the transposed form ϖᵀ, which is −ϖ while ϖ is
# antisymmetric, so the plus sign: the finite ν of a form ω pairs with ω to
# +ω(bᵢ, bⱼbₖ), and this law holds on it with w the transpose of ω.
NU_PAIRING = {
    "nu_pairing": ("ijk", (
        (+1, ("co", "ipq"), ("w", "pj"), ("w", "qk")),
        (+1, ("w", "im"), ("mul", "mjk")))),
}


# The laws of B alone, the two sides of each perm coalgebra law apart: name ↦
# (law, number of sources, sign of the offset).  A form law's arguments add up
# to minus its offset, so its targets add up to minus the sources and offset.
_B_LAWS = {
    **{label: (_on_skeleton(law), 3, 1) for label, law in AXIOMS["perm"].items()},
    **{label + side: (_on_skeleton((out, tuple(t for t in terms if t[0] == sign))), 1, 1)
       for label, (out, terms) in COALGEBRA_LAWS["perm"].items()
       for side, sign in (("+", 1), ("-", -1))},
    "invariance": (_on_skeleton(QUADRATIC_LAWS["invariance"]), 2, -1),
    "nu_pairing": (_on_skeleton(NU_PAIRING["nu_pairing"]), 1, -1),
}


def _skeleton_b() -> tuple:
    """B on its skeleton x⁰∂₁, x⁰∂₂, read at call time: the entries of its
    product mul[t][s][s'][u] from `mono_product`, of ν as co[t][p][q][u] from
    `_pattern_nu` and of ϖ as w[s][t] from `_form_sign`."""
    shift = {o: s - 1 for s, o in _UNIT.items()}
    mul = [((m.s - 1, s - 1, t - 1, shift[m.i1, m.i2]), 1)
           for s, t in product((1, 2), repeat=2) for m in [mono_product(_zero(s), _zero(t))]]
    co = [((t - 1, p - 1, q - 1, shift[o]), sign)
          for t in (1, 2) for p, q, o, sign in _pattern_nu(t)]
    w = [((s - 1, t - 1), v) for s, t in product((1, 2), repeat=2) if (v := _form_sign(s, t))]
    return tuple(sorted(mul)), tuple(sorted(co)), tuple(w)


# input-free for the D⊗B checks, whose constructions name the product "perm"
# and ν "nu", so built once, and each grouping they read is kept on the tables
_B = {name: IntTable(entries=list(e)) for name, e in zip(("perm", "nu"), _skeleton_b())}


def _skeleton_table(construction: tuple, tables: dict, dim: int) -> IntTable:
    """The table of a construction on D⊗B, for dim D = ``dim``, on the
    skeleton: extents (2·dim)³ × 2."""
    out, terms = construction
    n = 2 * dim
    extents = {**tensor_extents(out, dim, 2), "u": 2}
    return cube_table(*contract_cells(terms, tables, out, extents), (n, n, n, 2))


# a list is at most half as long as the cells of a law it serves, so only a
# few are kept
@lru_cache(maxsize=4)
def _slot_tuples(dim: int | None, arity: int) -> list:
    """The tuples of ``arity`` slots of the skeleton of D⊗B for dim D = ``dim``
    (of B for None), in the row-major order of their cells."""
    return list(product((1, 2) if dim is None else _slots(dim), repeat=arity))


def _patterns(law: tuple, tables: dict, dim: int | None, sources: int) -> tuple[dict, int]:
    """The nonzero residuals x/den of a skeleton law as (live, den): the source
    slots ↦ {(target slots, offset): x}, a slot a pair (d, s) of the skeleton
    of D⊗B for dim D = ``dim``, or a ∂-index s of the skeleton of B for None.

    The law's output is ``sources`` source slots, then its target slots, then
    the shifts of its k factors that read a product or a coproduct
    (`_on_skeleton`).  A term shifts the exponents by the sum of its k unit
    shifts, (k − w, w) with w the number of e₂ among them, so the 2^k shift
    cells of a slot tuple are folded into k + 1 offsets before any is tested
    for zero: a law that holds can leave single shift cells nonzero.
    """
    out, terms = law
    k = len(out) - len(out.rstrip("uv"))
    n = 2 if dim is None else 2 * dim
    extents = {x: 2 if x in "uv" else n
               for _sign, *factors in terms for _name, labels in factors for x in labels}
    cells, den = contract_cells(terms, tables, out, extents)
    slots = _slot_tuples(dim, len(out) - k)
    # cell 2^k·p + bits is the shift of slot tuple p with an e₂ at each set
    # bit, so at offset w = the popcount; row-major, so (p, w) come in order
    folded: dict = {}
    for q, x in nonzero_cells(cells):
        at = q >> k, (q % (1 << k)).bit_count()
        folded[at] = folded.get(at, 0) + x
    live: dict = {}
    for (p, w), c in folded.items():
        if c:
            at = slots[p]
            live.setdefault(at[:sources], {})[at[sources:], (k - w, w)] = c
    return live, den


@lru_cache(maxsize=64)
def _b_patterns(law: str, b: tuple) -> tuple[dict, int]:
    """`_patterns` of ``law`` of `_B_LAWS` on B with the skeleton entries ``b``
    (`_skeleton_b`), offsets times the law's sign: kept per B, so read-only."""
    skeleton, sources, sign = _B_LAWS[law]
    tables = {name: IntTable(entries=list(e)) for name, e in zip(("mul", "co", "w"), b)}
    live, den = _patterns(skeleton, tables, None, sources)
    return {src: {(at, (sign * o1, sign * o2)): c for (at, (o1, o2)), c in res.items()}
            for src, res in live.items()}, den


def _require_dendriform_pair(D: FinAlgebra, theta: CoalgStruct):
    if D.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    if D.dim != theta.dim:
        raise ValueError("algebra and coproducts must share dimension")


# --- affine associative algebra ---------------------------------------------


def check_affine_associativity(D: FinAlgebra, w: Window) -> AffineReport:
    """Associativity of the affine product on all safe-region triples.

    The products are exact single-term index shifts, so each pattern of three
    sources has one residual per target slot and offset, and the window only
    bounds the sources; failures carry the full triple and target.
    """
    if D.kind != "dendriform":
        raise ValueError("expected a dendriform algebra")
    bound = w.safe_bound(2)
    tables = {"mul": _skeleton_table(_SKELETON_MUL, {**D.tables, **_B}, D.dim)}
    patterns, den = _patterns(_SKELETON_LAWS["associativity"], tables, D.dim, 3)
    monos = list(iter_box(bound))

    def batches():
        live: dict = {}
        for (x, y, z), res in patterns.items():
            # the target (k, x^{b₁+b₂+b₃+offset}∂ₛ) sorts as (k, offset, s)
            # does, whatever the sources; the law is a₁∗(a₂∗a₃) − (a₁∗a₂)∗a₃,
            # the negated associator
            targets = sorted((k, offset, s, c) for (((k, s),), offset), c in res.items())
            live.setdefault((x[0], y[0], z[0]), {})[x[1], y[1], z[1]] = [
                (k, offset, s, Fraction(-c, den)) for k, offset, s, c in targets
            ]
        for ds in product(range(D.dim), repeat=3):
            by_parts = live.get(ds)
            if by_parts is None:
                continue
            for bs in product(monos, repeat=3):
                targets = by_parts.get(tuple(b.s for b in bs))
                if targets is None:
                    continue
                i1 = sum(b.i1 for b in bs)
                i2 = sum(b.i2 for b in bs)
                source = tuple(zip(ds, bs))
                yield [("associativity", source, ((k, _mono((i1 + o1, i2 + o2, s))), value))
                       for k, (o1, o2), s, value in targets]

    return AffineReport(
        "affine associativity", w.N, f"sources |i| <= {bound}",
        D.dim ** 3 * len(monos) ** 3, Failures(batches),
    )


# --- completed ASI bialgebra -------------------------------------------------


# Verified correspondence between the windowed completed laws and the finite
# dendriform bialgebra conditions (by exact row-space comparison of the
# residuals as linear functionals of the coproducts): the casi1 coefficients
# span exactly the first three finite conditions (the fourth is implied), and
# the casi2 coefficients span exactly the fifth and sixth.
CASI_FINITE_SPAN = {
    "casi1": ("dbi1", "dbi2", "dbi3"),
    "casi2": ("dbi5", "dbi6"),
}


def check_completed_asi(D: FinAlgebra, theta: CoalgStruct, w: Window) -> AffineReport:
    """Windowed verification of the completed ASI bialgebra laws on D⊗B.

    Checks, coefficientwise on window targets for safe-region sources:
      casi1:   Δ(a₁∗a₂) = (𝔯(a₂)⊗̂id)(Δ(a₁)) + (id⊗̂𝔩(a₁))(Δ(a₂))
      casi2:   (𝔩(a₁)⊗̂id − id⊗̂𝔯(a₁))(Δ(a₂)) = τ̂((id⊗̂𝔯(a₂) − 𝔩(a₂)⊗̂id)(Δ(a₁)))
      coassoc: (Δ⊗̂id)Δ = (id⊗̂Δ)Δ
    """
    _require_dendriform_pair(D, theta)
    bound = w.safe_bound(2)
    tables = {"mul": _skeleton_table(_SKELETON_MUL, {**D.tables, **_B}, D.dim),
              "co": _skeleton_table(_SKELETON_CO, {**theta.tables, **_B}, D.dim)}
    laws = [(label, *_patterns(_SKELETON_LAWS[label], tables, D.dim, 2))
            for label in ("casi1", "casi2")]
    grid = _grid(w.N, D.dim)
    sources = [(d, b) for d in range(D.dim) for b in iter_box(bound)]
    # completed coassociativity, one source at a time
    coassoc_checked, coassoc = _coassoc_failures(tables, D.dim, w, grid)

    def batches():
        for a1, a2 in product(sources, repeat=2):
            (d1, b1), (d2, b2) = a1, a2
            slots = ((d1, b1.s), (d2, b2.s))
            base = (b1.i1 + b2.i1, b1.i2 + b2.i2)
            for label, live, den in laws:
                if slots in live:
                    kvs = _window_residuals(live[slots], base, w.N, den, grid)
                    yield zip(repeat(label), repeat((a1, a2)), kvs)
        yield from coassoc()

    return AffineReport(
        "completed ASI bialgebra", w.N, f"sources |i| <= {bound}",
        len(sources) ** 2 + coassoc_checked, Failures(batches),
    )


def _coassoc_failures(tables: dict, dim: int, w: Window, grid: tuple) -> tuple:
    """Windowed (Δ⊗̂id)Δ = (id⊗̂Δ)Δ check over the skeleton coproduct in
    ``tables`` and the cells ``grid`` of `_grid`: the number of sources, and
    a generator function of the failures' batches (`Failures`)."""
    live, den = _patterns(_SKELETON_LAWS["coassoc"], tables, dim, 1)
    sources = [(d, b) for d in range(dim) for b in iter_box(w.safe_bound(2))]

    def batches():
        for d, b in sources:
            kvs = _window_residuals(live.get(((d, b.s),), {}), (b.i1, b.i2), w.N, den, grid)
            yield zip(repeat("coassoc"), repeat((d, b)), kvs)

    return len(sources), batches


def check_completed_coassociativity(
    D: FinAlgebra, theta: CoalgStruct, w: Window
) -> AffineReport:
    """Windowed coassociativity of the completed coproduct on D⊗B."""
    _require_dendriform_pair(D, theta)
    tables = {"co": _skeleton_table(_SKELETON_CO, {**theta.tables, **_B}, D.dim)}
    checked, batches = _coassoc_failures(tables, D.dim, w, _grid(w.N, D.dim))
    return AffineReport(
        "completed coassociativity", w.N, f"sources |i| <= {w.safe_bound(2)}",
        checked, Failures(batches),
    )
