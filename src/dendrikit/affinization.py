"""Laurent-polynomial perm algebra and windowed completed-coalgebra checks.

The graded perm algebra has basis monomials x₁^{i₁}x₂^{i₂}∂ₛ (s ∈ {1,2}),
indexed by GradedPermIndex.  Its completed coproduct ν produces infinite
formal sums; those are never materialized — every check works through exact
per-coefficient formulas, with enumeration confined to a finite index window.
A composition of depth k is only verified where all intermediate exponents
provably stay inside the window ("safe region"), so truncation can never turn
a failure into a pass or vice versa.

Enumeration is in closed form.  A term u⊗v of ν(b) satisfies
u.i + v.i = b.i + δ coordinatewise, where δ is the unit shift of u's
∂-index, so the terms with |u| ≤ first and |v| ≤ second have, in each
coordinate, exactly the exponents max(−first, c − second) … min(first,
c + second) with c = b.i + δ.  The checks enumerate those ranges directly.
Walking the whole box and discarding the terms that leave the window would
keep exactly the same terms; only the discarded ones are skipped, so every
coefficient, and with it the safe-region argument above, is the same.

Accumulation is over the integers.  The completed ASI and coassociativity
checks read the structure constants of D from its `exact.IntTable`s,
brought to the lcm L_D of their denominators, and the coproduct
coefficients likewise over L_θ; the signs of ν are ±1.
Each compatibility term has degree one in each, and each coassociativity
term degree two in θ, so a residual is an integer over L_D·L_θ or L_θ² —
still exact.  It is turned back into a Fraction only where a failure is
recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Iterator, NamedTuple

from .algebras import FinAlgebra
from .bialgebras import CoalgStruct
from .exact import ONE, ZERO


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

# Largest window the CLI accepts.  The windowed checks enumerate source pairs
# and window terms, so their cost grows steeply with N: N = 4 is the largest
# window measured (the completed ASI check takes about 46 s there on two
# vCPUs), and a larger one is refused before any check runs.
MAX_WINDOW = 4


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


def _nu_partner(b: Mono, u: Mono) -> tuple[Mono, int]:
    """The unique (v, sign) with ν(b) ∋ sign·(u⊗v), for a fixed first slot."""
    if u.s == 1:
        return Mono(b.i1 - u.i1, b.i2 - u.i2 + 1, b.s), 1
    return Mono(b.i1 - u.i1 + 1, b.i2 - u.i2, b.s), -1


def _nu_window(b: Mono, first: int | None, second: int | None = None):
    """The terms (u, v, ±1) of ν(b) with |u| ≤ ``first`` and |v| ≤ ``second``.

    ``None`` leaves a slot unbounded; at most one may be ``None``.  Since
    u.i + v.i = c with c = b.i plus the shift of u's ∂-index, each exponent
    of u runs over max(−first, c − second) … min(first, c + second).
    """
    spread = max(abs(b.i1), abs(b.i2)) + 1
    if first is None:
        first = second + spread
    if second is None:
        second = first + spread
    t = b.s
    for s, sign, c1, c2 in ((1, 1, b.i1, b.i2 + 1), (2, -1, b.i1 + 1, b.i2)):
        for i1 in range(max(-first, c1 - second), min(first, c1 + second) + 1):
            for i2 in range(max(-first, c2 - second), min(first, c2 + second) + 1):
                yield _mono((i1, i2, s)), _mono((c1 - i1, c2 - i2, t)), sign


def _add(d: dict, key, val):
    d[key] = d.get(key, 0) + val


def _support(d: dict) -> dict:
    """The entries of ``d`` with a nonzero value."""
    return {key: c for key, c in d.items() if c}


def _acc(d: dict, key, val):
    if val == 0:
        return
    new = d.get(key, 0) + val
    if new == 0:
        d.pop(key, None)
    else:
        d[key] = new


# --- graded perm algebra checks ---------------------------------------------


@dataclass(frozen=True)
class AffineReport:
    """Outcome of a windowed check: labelled exact failures with locations."""

    subject: str
    window: int
    safe_region: str
    checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def check_laurent_perm_axioms(w: Window) -> AffineReport:
    """Perm identities b₁(b₂b₃) = (b₁b₂)b₃ = (b₂b₁)b₃ on all window triples."""
    bound = w.safe_bound(2)
    failures = []
    checked = 0
    monos = list(iter_box(bound))
    for a in monos:
        for b in monos:
            for c in monos:
                checked += 1
                left = mono_product(a, mono_product(b, c))
                mid = mono_product(mono_product(a, b), c)
                perm = mono_product(mono_product(b, a), c)
                if left != mid:
                    failures.append(("perm_assoc", (a, b, c), (left, mid)))
                if mid != perm:
                    failures.append(("perm_left_commute", (a, b, c), (mid, perm)))
    return AffineReport(
        "Laurent perm axioms", w.N, f"|i| <= {bound}", checked, tuple(failures)
    )


def check_graded_form(w: Window) -> AffineReport:
    """Antisymmetry, grading, and invariance of ϖ on window tuples."""
    failures = []
    checked = 0
    box = list(iter_box(w.N))
    for a in box:
        for b in box:
            checked += 1
            ab = _form(a, b)
            if ab != -_form(b, a):
                failures.append(("antisymmetry", (a, b), Fraction(ab)))
            if ab != 0 and mono_degree(a) + mono_degree(b) + GRADING_M != 0:
                failures.append(("grading", (a, b), Fraction(ab)))
    bound = w.safe_bound(1)
    inner = list(iter_box(bound))
    products = {(a, b): mono_product(a, b) for a in inner for b in inner}
    for a in inner:
        for b in inner:
            ab = products[a, b]
            for c in inner:
                checked += 1
                lhs = _form(ab, c)
                rhs = _form(a, products[b, c]) - _form(a, products[c, b])
                if lhs != rhs:
                    failures.append(("invariance", (a, b, c), Fraction(lhs - rhs)))
    # dual basis: ϖ(dual(e), e) = 1 and ϖ(dual(e), e') = 0 for e' ≠ e in the box
    for e in box:
        f, sign = laurent_dual_basis(e)
        if sign * _form(f, e) != 1:
            failures.append(("dual_pairing", (e,), Fraction(_form(f, e))))
    return AffineReport(
        "graded bilinear form", w.N, f"|i| <= {w.N}", checked, tuple(failures)
    )


def check_nu_pairing(w: Window) -> AffineReport:
    """Defining relation ϖ̂(ν(b₁), b₂⊗b₃) = −ϖ(b₁, b₂b₃) on window triples.

    For fixed b₂⊗b₃ only one first-slot monomial of ν(b₁) can pair nonzero,
    so each evaluation is a finite exact sum.
    """
    bound = w.safe_bound(1)
    failures = []
    checked = 0
    box = list(iter_box(w.N))
    products = [[mono_product(b2, b3) for b3 in box] for b2 in box]
    for b1 in iter_box(bound):
        for b2, row in zip(box, products):
            # the only e with ϖ(e, b₂) ≠ 0 has opposite ∂-index and
            # negated exponents
            e = Mono(-b2.i1, -b2.i2, 3 - b2.s)
            v, sign = _nu_partner(b1, e)
            sign *= _form(e, b2)
            for b3, m in zip(box, row):
                checked += 1
                lhs = sign * _form(v, b3)
                rhs = -_form(b1, m)
                if lhs != rhs:
                    failures.append(("nu_pairing", (b1, b2, b3), Fraction(lhs - rhs)))
    return AffineReport(
        "completed coproduct pairing", w.N, f"sources |i| <= {bound}", checked,
        tuple(failures),
    )


def check_completed_perm_coalgebra(w: Window) -> AffineReport:
    """Perm coalgebra laws (ν⊗̂id)ν = (id⊗̂ν)ν = (τ̂⊗̂id)(id⊗̂ν)ν, windowed.

    Both sides are expanded coefficientwise; targets are triples of window
    monomials, sources stay in the depth-2 safe region.
    """
    bound = w.safe_bound(2)
    N = w.N
    failures = []
    checked = 0
    for b in iter_box(bound):
        lhs: dict = {}
        # (ν⊗̂id)ν: first slot g is split again, so it ranges over a widened box
        for g, v, cf in _nu_window(b, 2 * N + 1, N):
            for p, q, cf2 in _nu_window(g, N, N):
                _add(lhs, (p, q, v), cf * cf2)
        mid: dict = {}
        # (id⊗̂ν)ν: first slot p is final, second slot is re-expanded
        for p, g, cf in _nu_window(b, N):
            for q, v, cf2 in _nu_window(g, N, N):
                _add(mid, (p, q, v), cf * cf2)
        lhs, mid = _support(lhs), _support(mid)
        twisted = {(q, p, v): c for (p, q, v), c in mid.items()}
        # one comparison per coefficient that is nonzero on either side
        for label, one, other in (
            ("co_perm_assoc", lhs, mid),
            ("co_perm_left_commute", mid, twisted),
        ):
            keys = one.keys() | other.keys()
            checked += len(keys)
            diffs = {key: one.get(key, 0) - other.get(key, 0) for key in keys}
            for key in sorted(key for key, c in diffs.items() if c):
                failures.append((label, (b, key), Fraction(diffs[key])))
    return AffineReport(
        "completed perm coalgebra", w.N, f"sources |i| <= {bound}", checked,
        tuple(failures),
    )


# --- affine associative algebra ---------------------------------------------


def affine_assoc_product(D: FinAlgebra, t1, t2) -> dict:
    """(d₁⊗b₁)∗(d₂⊗b₂) = (d₁≻d₂)⊗(b₁b₂) + (d₁≺d₂)⊗(b₂b₁) as a finite sum.

    ``t1``/``t2`` are pairs (dendriform basis index, GradedPermIndex); the
    result maps such pairs to coefficients.
    """
    if D.kind != "dendriform":
        raise ValueError("expected a dendriform algebra")
    (d1, b1), (d2, b2) = t1, t2
    out: dict = {}
    m_gt = mono_product(b1, b2)
    m_lt = mono_product(b2, b1)
    for k in range(D.dim):
        _acc(out, (k, m_gt), D.products["gt"][k][d1][d2])
        _acc(out, (k, m_lt), D.products["lt"][k][d1][d2])
    return out


def _product_expand(D: FinAlgebra, left: dict, t2) -> dict:
    out: dict = {}
    for (d, m), c in left.items():
        for key, c2 in affine_assoc_product(D, (d, m), t2).items():
            _acc(out, key, c * c2)
    return out


# Proof-predicted localization of the dendriform axioms inside affine
# associativity: comparing the coefficient of x₁²∂₂ in the stated ∂-triples.
ASSOC_LOCALIZATION = {
    (2, 1, 1): "dendriform_1",
    (1, 2, 1): "dendriform_2",
    (1, 1, 2): "dendriform_3",
}
ASSOC_LOCALIZATION_TARGET = Mono(2, 0, 2)


def check_affine_associativity(D: FinAlgebra, w: Window) -> AffineReport:
    """Associativity of the affine product on all safe-region triples.

    The products are exact single-term index shifts, so the window only
    bounds the enumeration; failures carry the full triple and target.
    """
    if D.kind != "dendriform":
        raise ValueError("expected a dendriform algebra")
    bound = w.safe_bound(2)
    failures = []
    checked = 0
    monos = list(iter_box(bound))
    n = D.dim
    for d1 in range(n):
        for d2 in range(n):
            for d3 in range(n):
                for b1 in monos:
                    for b2 in monos:
                        for b3 in monos:
                            checked += 1
                            left = _product_expand(
                                D,
                                affine_assoc_product(D, (d1, b1), (d2, b2)),
                                (d3, b3),
                            )
                            inner = affine_assoc_product(D, (d2, b2), (d3, b3))
                            right: dict = {}
                            for (dk, mk), c in inner.items():
                                for key, c2 in affine_assoc_product(
                                    D, (d1, b1), (dk, mk)
                                ).items():
                                    _acc(right, key, c * c2)
                            for key in sorted(set(left) | set(right)):
                                diff = left.get(key, ZERO) - right.get(key, ZERO)
                                if diff != 0:
                                    failures.append(
                                        (
                                            "associativity",
                                            ((d1, b1), (d2, b2), (d3, b3)),
                                            (key, diff),
                                        )
                                    )
    return AffineReport(
        "affine associativity", w.N, f"sources |i| <= {bound}", checked,
        tuple(failures),
    )


# --- completed ASI bialgebra -------------------------------------------------


def _scaled_products(D: FinAlgebra) -> tuple[dict, int]:
    """L_D and the table (d₁, d₂) ↦ ((k, L_D·c_≻, L_D·c_≺), …) of nonzero rows,
    read from the algebra's tables."""
    return _paired_rows(D.tables["gt"], D.tables["lt"], lambda k, d1, d2: ((d1, d2), (k,)))


def _scaled_coproducts(theta: CoalgStruct) -> tuple[list, int]:
    """L_θ and, per d, the nonzero ((d_p, d_q, L_θ·c_≻, L_θ·c_≺), …) of θ(d),
    read from the coalgebra's tables."""
    rows, scale = _paired_rows(theta.tables["co_gt"], theta.tables["co_lt"],
                               lambda d, dp, dq: (d, (dp, dq)))
    return [rows.get(d, ()) for d in range(theta.dim)], scale


def _paired_rows(gt, lt, split) -> tuple[dict, int]:
    """The entries of two `IntTable`s over L, the lcm of their scales, as
    key ↦ ((*place, L·c_gt, L·c_lt), …) with places ascending, where
    ``split`` cuts an entry's index into (key, place)."""
    scale = lcm(gt.scale, lt.scale)
    cells: dict = {}
    for col, table in enumerate((gt, lt)):
        lift = scale // table.scale
        for idx, v in table.entries:
            key, place = split(*idx)
            cells.setdefault(key, {}).setdefault(place, [0, 0])[col] = v * lift
    rows = {
        key: tuple((*place, g, l) for place, (g, l) in sorted(row.items()))
        for key, row in cells.items()
    }
    return rows, scale


def _times(products: dict, d1: int, b1: Mono, d2: int, b2: Mono) -> list:
    """The terms (k, m, c) of L_D·((d₁⊗b₁)∗(d₂⊗b₂)), one per nonzero constant."""
    row = products.get((d1, d2))
    if row is None:
        return []
    m_gt = mono_product(b1, b2)
    m_lt = mono_product(b2, b1)
    out = []
    for k, cg, cl in row:
        if cg:
            out.append((k, m_gt, cg))
        if cl:
            out.append((k, m_lt, cl))
    return out


def _delta_expand(
    coproducts: list, d: int, b: Mono, first: int, second: int | None = None
) -> list:
    """The terms (d_u, u, d_v, v, c) of L_θ·Δ(d⊗b) with |u| ≤ first, |v| ≤ second.

    Δ(d⊗b) = θ_≻(d)·ν(b) + θ_≺(d)·τ̂ν(b); ``second=None`` leaves the second
    slot unbounded.  A key may repeat; the terms add up.
    """
    out = []
    nu = twisted = None
    for dp, dq, cg, cl in coproducts[d]:
        if cg:
            if nu is None:
                nu = list(_nu_window(b, first, second))
            out.extend((dp, u, dq, v, sign * cg) for u, v, sign in nu)
        if cl:
            # τ̂ν part: the first display slot sits in the second slot of ν(b)
            if twisted is None:
                twisted = [(u, v, sign) for v, u, sign in _nu_window(b, second, first)]
            out.extend((dp, u, dq, v, sign * cl) for u, v, sign in twisted)
    return out


def _diff_failures(label, source, residual: dict, scale: int, failures: list):
    """Record the nonzero coefficients of ``residual``/``scale``, sorted by key."""
    for key in sorted(key for key, c in residual.items() if c):
        failures.append((label, source, (key, Fraction(residual[key], scale))))


# Verified correspondence between the windowed completed laws and the finite
# dendriform bialgebra conditions (by exact row-space comparison of the
# residuals as linear functionals of the coproducts): the casi1 coefficients
# span exactly the first three finite conditions (the fourth is implied), and
# the casi2 coefficients span exactly the fifth and sixth.
CASI_FINITE_SPAN = {
    "casi1": ("dbi1", "dbi2", "dbi3"),
    "casi2": ("dbi5", "dbi6"),
}


def _source_deltas(Q: list, a, w: Window) -> tuple[list, list]:
    """Δ(a) with first slot g in the widened box |g| ≤ 2N − 1 and second slot
    in the window, and Δ(a) with first slot in the window.

    The wide first slot is multiplied by the other source b, |b| ≤
    safe_bound(2), and a product shifts one exponent by one, so a target in
    the window needs |g| ≤ N + safe_bound(2) + 1 = 2N − 1.
    """
    d, b = a
    wide = w.N + w.safe_bound(2) + 1
    return _delta_expand(Q, d, b, wide, w.N), _delta_expand(Q, d, b, w.N)


def _check_pair(w: Window, P: dict, Q: list, a1, a2, delta1, delta2) -> tuple[dict, dict]:
    """The casi1 and casi2 residuals of one source pair, scaled by L_D·L_θ.

    ``delta1``/``delta2`` are the ``_source_deltas`` of a₁ and a₂.
    """
    (d1, b1), (d2, b2) = a1, a2
    wide1, narrow1 = delta1
    wide2, narrow2 = delta2
    contains = w.contains
    # casi1: Δ(a₁∗a₂) − (𝔯(a₂)⊗̂id)(Δ(a₁)) − (id⊗̂𝔩(a₁))(Δ(a₂))
    res1: dict = {}
    for dk, mk, c in _times(P, d1, b1, d2, b2):
        for dp, p, dq, q, c2 in _delta_expand(Q, dk, mk, w.N, w.N):
            _add(res1, ((dp, p), (dq, q)), c * c2)
    # intermediates of the right side need a wider box
    for dg, g, dv, v, c in wide1:
        for dk, mk, c2 in _times(P, dg, g, d2, b2):
            if contains(mk):
                _add(res1, ((dk, mk), (dv, v)), -c * c2)
    for dp, p, dh, h, c in narrow2:
        for dk, mk, c2 in _times(P, d1, b1, dh, h):
            if contains(mk):
                _add(res1, ((dp, p), (dk, mk)), -c * c2)
    # casi2: (𝔩(a₁)⊗̂id − id⊗̂𝔯(a₁))(Δ(a₂)) − τ̂((id⊗̂𝔯(a₂) − 𝔩(a₂)⊗̂id)(Δ(a₁)))
    res2: dict = {}
    for dg, g, dv, v, c in wide2:
        for dk, mk, c2 in _times(P, d1, b1, dg, g):
            if contains(mk):
                _add(res2, ((dk, mk), (dv, v)), c * c2)
    for dp, p, dh, h, c in narrow2:
        for dk, mk, c2 in _times(P, dh, h, d1, b1):
            if contains(mk):
                _add(res2, ((dp, p), (dk, mk)), -c * c2)
    # the τ̂ of the mirrored expression: keys are written already swapped
    for dp, p, dh, h, c in narrow1:
        for dk, mk, c2 in _times(P, dh, h, d2, b2):
            if contains(mk):
                _add(res2, ((dk, mk), (dp, p)), -c * c2)
    for dg, g, dv, v, c in wide1:
        for dk, mk, c2 in _times(P, d2, b2, dg, g):
            if contains(mk):
                _add(res2, ((dv, v), (dk, mk)), c * c2)
    return res1, res2


def check_completed_asi(D: FinAlgebra, theta: CoalgStruct, w: Window) -> AffineReport:
    """Windowed verification of the completed ASI bialgebra laws on D⊗B.

    Checks, coefficientwise on window targets for safe-region sources:
      casi1:   Δ(a₁∗a₂) = (𝔯(a₂)⊗̂id)(Δ(a₁)) + (id⊗̂𝔩(a₁))(Δ(a₂))
      casi2:   (𝔩(a₁)⊗̂id − id⊗̂𝔯(a₁))(Δ(a₂)) = τ̂((id⊗̂𝔯(a₂) − 𝔩(a₂)⊗̂id)(Δ(a₁)))
      coassoc: (Δ⊗̂id)Δ = (id⊗̂Δ)Δ
    """
    if D.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    if D.dim != theta.dim:
        raise ValueError("algebra and coproducts must share dimension")
    bound = w.safe_bound(2)
    P, scale_d = _scaled_products(D)
    Q, scale_t = _scaled_coproducts(theta)
    scale = scale_d * scale_t
    failures: list = []
    sources = [(d, b) for d in range(D.dim) for b in iter_box(bound)]
    deltas = [_source_deltas(Q, a, w) for a in sources]
    for a1, delta1 in zip(sources, deltas):
        for a2, delta2 in zip(sources, deltas):
            res1, res2 = _check_pair(w, P, Q, a1, a2, delta1, delta2)
            _diff_failures("casi1", (a1, a2), res1, scale, failures)
            _diff_failures("casi2", (a1, a2), res2, scale, failures)
    checked = len(sources) ** 2
    # completed coassociativity, one source at a time
    checked += _coassoc_failures(D, theta, w, failures)

    return AffineReport(
        "completed ASI bialgebra", w.N, f"sources |i| <= {bound}", checked,
        tuple(failures),
    )


def _coassoc_failures(
    D: FinAlgebra, theta: CoalgStruct, w: Window, failures: list
) -> int:
    """Windowed (Δ⊗̂id)Δ = (id⊗̂Δ)Δ check; appends failures, returns count."""
    bound = w.safe_bound(2)
    N = w.N
    Q, scale = _scaled_coproducts(theta)
    checked = 0
    for d in range(D.dim):
        for b in iter_box(bound):
            checked += 1
            res: dict = {}
            for dg, g, dv, v, c in _delta_expand(Q, d, b, 2 * N + 1, N):
                for dp, p, dq, q, c2 in _delta_expand(Q, dg, g, N, N):
                    _add(res, ((dp, p), (dq, q), (dv, v)), c * c2)
            for dp, p, dg, g, c in _delta_expand(Q, d, b, N):
                for dq, q, dv, v, c2 in _delta_expand(Q, dg, g, N, N):
                    _add(res, ((dp, p), (dq, q), (dv, v)), -c * c2)
            _diff_failures("coassoc", (d, b), res, scale * scale, failures)
    return checked


def check_completed_coassociativity(
    D: FinAlgebra, theta: CoalgStruct, w: Window
) -> AffineReport:
    """Windowed coassociativity of the completed coproduct on D⊗B."""
    if D.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    if D.dim != theta.dim:
        raise ValueError("algebra and coproducts must share dimension")
    failures: list = []
    checked = _coassoc_failures(D, theta, w, failures)
    return AffineReport(
        "completed coassociativity", w.N, f"sources |i| <= {w.safe_bound(2)}",
        checked, tuple(failures),
    )


def perturb_product(D: FinAlgebra, op: str, k: int, i: int, j: int, delta) -> FinAlgebra:
    """Copy of the algebra with one structure constant shifted by ``delta``."""
    cubes = {
        name: [[list(row) for row in plane] for plane in cube]
        for name, cube in D.products.items()
    }
    cubes[op][k][i][j] += Fraction(delta)
    return FinAlgebra(D.kind, D.dim, cubes)


def perturb_coproduct(
    theta: CoalgStruct, name: str, i: int, j: int, k: int, delta
) -> CoalgStruct:
    """Copy of the coalgebra with one coproduct coefficient shifted by ``delta``."""
    cubes = {
        nm: [[list(row) for row in plane] for plane in cube]
        for nm, cube in theta.coproducts.items()
    }
    cubes[name][i][j][k] += Fraction(delta)
    return CoalgStruct(theta.kind, theta.dim, cubes)
