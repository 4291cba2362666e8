"""Windowed Laurent-series checks and proof-predicted failure localization."""

import random
from collections import defaultdict
from fractions import Fraction
from itertools import product
from operator import itemgetter

import pytest
from click.testing import CliRunner

from dendrikit import affinization
from dendrikit.affinization import (
    GRADING_M,
    Failures,
    InsufficientWindowError,
    Mono,
    Window,
    check_affine_associativity,
    check_completed_asi,
    check_completed_coassociativity,
    check_completed_perm_coalgebra,
    check_graded_form,
    check_laurent_perm_axioms,
    check_nu_pairing,
    graded_form,
    iter_box,
    laurent_dual_basis,
    mono_degree,
    mono_product,
)
from dendrikit.algebras import check_axioms
from dendrikit.bialgebras import CoalgStruct, check_bialgebra, check_coalgebra
from dendrikit.cli import main
from dendrikit.exact import ZERO

from conftest import (
    ASSOC_LOCALIZATION,
    ASSOC_LOCALIZATION_TARGET,
    LOCALIZATION_SIGN,
    affine_associator,
    affine_product,
    perturb_coproduct,
    perturb_product,
)


# --- graded perm algebra and its form ----------------------------------------


def test_laurent_perm_axioms_window_3():
    rep = check_laurent_perm_axioms(Window(3))
    assert rep.ok, rep.failures[:1]


def test_graded_form_and_duals():
    rep = check_graded_form(Window(2))
    assert rep.ok, rep.failures[:1]


def test_grading_constant_matches_form_support():
    # whenever the form is nonzero the degrees sum to −GRADING_M
    a, b = Mono(1, -1, 1), Mono(-1, 1, 2)
    assert graded_form(a, b) != 0
    assert mono_degree(a) + mono_degree(b) + GRADING_M == 0


def test_dual_basis_closed_form():
    e = Mono(2, -1, 1)
    f, sign = laurent_dual_basis(e)
    assert f == Mono(-2, 1, 2) and sign == 1
    assert sign * graded_form(f, e) == 1


def test_nu_pairing():
    rep = check_nu_pairing(Window(2))
    assert rep.ok, rep.failures[:1]


def test_completed_perm_coalgebra():
    rep = check_completed_perm_coalgebra(Window(2))
    assert rep.ok, rep.failures[:1]


def test_window_too_small_raises():
    with pytest.raises(InsufficientWindowError):
        check_laurent_perm_axioms(Window(1))


# --- affine associativity and its localization -------------------------------


def test_affine_associativity_passes(dend_pair, rb_dendriform):
    assert check_affine_associativity(dend_pair, Window(2)).ok
    assert check_affine_associativity(rb_dendriform, Window(2)).ok


@pytest.mark.parametrize("op,k,i,j", [
    ("lt", 0, 0, 0), ("lt", 1, 0, 1), ("gt", 1, 1, 1), ("gt", 0, 1, 0),
])
def test_perturbation_localizes_to_predicted_coefficient(dend_pair, op, k, i, j):
    """Each failing axiom shows up at the predicted basis triple/coefficient.

    For sources with derivation pattern (s₁, s₂, s₃) the coefficient of the
    target monomial in the affine associator equals (up to a fixed
    orientation) the finite residual of the localized axiom.
    """
    bad = perturb_product(dend_pair, op, k, i, j, 1)
    finite = check_axioms(bad)
    assert not finite.ok
    affine = check_affine_associativity(bad, Window(2))
    assert not affine.ok
    for pattern, axiom in ASSOC_LOCALIZATION.items():
        res = finite.residuals[axiom]
        sign = LOCALIZATION_SIGN[pattern]
        for d1 in range(2):
            for d2 in range(2):
                for d3 in range(2):
                    sources = tuple(
                        (d, Mono(0, 0, s))
                        for d, s in zip((d1, d2, d3), pattern)
                    )
                    assoc = affine_associator(bad, *sources)
                    for kk in range(2):
                        got = assoc.get((kk, ASSOC_LOCALIZATION_TARGET), ZERO)
                        assert got == sign * res[d1][d2][d3][kk]


def test_every_single_product_perturbation_breaks_affine_assoc(dend_pair):
    for op in ("lt", "gt"):
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    bad = perturb_product(dend_pair, op, k, i, j, 1)
                    finite_ok = check_axioms(bad).ok
                    affine_ok = check_affine_associativity(bad, Window(2)).ok
                    assert finite_ok == affine_ok, (op, k, i, j)


# --- completed coalgebra / compatibility checks ------------------------------


def test_completed_coassociativity_passes(dend_pair, dend_theta):
    assert check_completed_coassociativity(dend_pair, dend_theta, Window(2)).ok


def test_completed_asi_passes(dend_pair, dend_theta):
    assert check_completed_asi(dend_pair, dend_theta, Window(2)).ok


def test_completed_asi_pair_at_window_4_has_no_spurious_residual(dend_pair, dend_theta):
    # Target (0, x₁⁻⁴x₂⁻⁴∂₁)⊗(0, x₁x₂⁴∂₁) of casi1 for the sources
    # (0, x₁⁻²x₂⁻²∂₁), (0, x₁⁻²x₂∂₁) needs the intermediate first slot
    # x₁⁻³x₂⁻⁶ of Δ(a₁), beyond N + 1; no source pair may leave a residual.
    rep = check_completed_asi(dend_pair, dend_theta, Window(4))
    assert rep.ok, rep.failures[:1]
    assert rep.checked == 10100


def test_coproduct_perturbations_tracked_by_finite_checks(dend_pair, dend_theta):
    """Windowed completed checks fail exactly when the finite ones do.

    Coassociativity on the affinization matches the finite coalgebra laws;
    the completed compatibility laws match the finite bialgebra conditions.
    Failures appear at specific derivation-indexed coefficients.
    """
    w = Window(2)
    for name in ("co_lt", "co_gt"):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    bad = perturb_coproduct(dend_theta, name, i, j, k, 1)
                    finite_co = check_coalgebra(bad).ok
                    completed_co = check_completed_coassociativity(
                        dend_pair, bad, w
                    ).ok
                    assert finite_co == completed_co, (name, i, j, k)
                    finite_bi = finite_co and check_bialgebra(dend_pair, bad).ok
                    completed = check_completed_asi(dend_pair, bad, w)
                    assert finite_bi == completed.ok, (name, i, j, k)


def test_completed_asi_failure_locations_are_derivation_indexed(
    dend_pair, dend_theta
):
    bad = perturb_coproduct(dend_theta, "co_lt", 0, 1, 1, 1)
    rep = check_completed_asi(dend_pair, bad, Window(2))
    assert not rep.ok
    labels = {f[0] for f in rep.failures}
    assert labels <= {"casi1", "casi2", "coassoc"}
    # every failure is located at a pair/triple of (component, monomial) slots
    label, source, (key, value) = rep.failures[0]
    assert value != 0
    for slot in key:
        comp, mono = slot
        assert comp in (0, 1) and isinstance(mono, Mono)


def test_product_perturbation_breaks_completed_asi(dend_pair, dend_theta):
    bad = perturb_product(dend_pair, "gt", 1, 0, 0, 1)
    assert not check_axioms(bad).ok
    assert not check_completed_asi(bad, dend_theta, Window(2)).ok


def test_mono_product_shifts_one_exponent():
    assert mono_product(Mono(1, 0, 1), Mono(0, 2, 2)) == Mono(2, 2, 2)
    assert mono_product(Mono(1, 0, 2), Mono(0, 2, 1)) == Mono(1, 3, 1)


# --- the pattern decisions against a direct expansion ----------------------------


def _nu(b, R):
    """The terms (e, dual(e)·b, sign) of ν(b) = Σ_e e⊗dual(e)·b with |e| ≤ R."""
    for e in iter_box(R):
        f, sign = laurent_dual_basis(e)
        yield e, mono_product(f, b), sign


def _delta(theta, a, R):
    """Δ(d⊗b) = θ_≻(d)·ν(b) + θ_≺(d)·τ̂ν(b), over the terms of ν(b) with |e| ≤ R."""
    d, b = a
    gt, lt = theta.coproducts["co_gt"][d], theta.coproducts["co_lt"][d]
    out = defaultdict(Fraction)
    for e, v, sign in _nu(b, R):
        for dp in range(theta.dim):
            for dq in range(theta.dim):
                if gt[dp][dq]:
                    out[(dp, e), (dq, v)] += sign * gt[dp][dq]
                if lt[dp][dq]:
                    out[(dp, v), (dq, e)] += sign * lt[dp][dq]
    return out


def _direct_failures(w, label, source, res, failures):
    inside = [key for key, c in res.items() if c and all(w.contains(m) for _, m in key)]
    failures.extend((label, source, (key, res[key])) for key in sorted(inside))


def _direct_coassoc(w, sources, wide, narrow, failures):
    for a in sources:
        res = defaultdict(Fraction)
        for (x1, x2), c in wide[a].items():
            if w.contains(x2[1]):  # (Δ⊗̂id)Δ
                for (p, q), c2 in narrow(x1).items():
                    res[p, q, x2] += c * c2
            if w.contains(x1[1]):  # (id⊗̂Δ)Δ
                for (q, v), c2 in narrow(x2).items():
                    res[x1, q, v] -= c * c2
        _direct_failures(w, "coassoc", a, res, failures)


def _direct_asi(D, theta, w):
    """The failures of the completed ASI laws, expanded term by term.

    A first slot that is multiplied again reaches |g| ≤ 2N − 1 and a second
    one N + |b| + 1, so ν is expanded over |e| ≤ 3N for the sources and over
    the window for the coproducts whose two slots are targets.
    """
    sources = [(d, b) for d in range(D.dim) for b in iter_box(w.safe_bound(2))]
    wide = {a: _delta(theta, a, 3 * w.N) for a in sources}
    expanded = {}

    def narrow(a):
        """Δ(a) on window targets only."""
        if a not in expanded:
            expanded[a] = {
                key: c for key, c in _delta(theta, a, w.N).items()
                if w.contains(key[0][1]) and w.contains(key[1][1])
            }
        return expanded[a]

    def times(x, y):
        return affine_product(D, x, y).items()

    failures = []
    for a1 in sources:
        for a2 in sources:
            # casi1: Δ(a₁∗a₂) − (𝔯(a₂)⊗̂id)(Δ(a₁)) − (id⊗̂𝔩(a₁))(Δ(a₂))
            # casi2: (𝔩(a₁)⊗̂id − id⊗̂𝔯(a₁))(Δ(a₂)) − τ̂((id⊗̂𝔯(a₂) − 𝔩(a₂)⊗̂id)(Δ(a₁)))
            # with the terms of both laws on Δ(a₁) and on Δ(a₂) taken in one pass
            res1, res2 = defaultdict(Fraction), defaultdict(Fraction)
            for m, c in times(a1, a2):
                for key, c2 in narrow(m).items():
                    res1[key] += c * c2
            for (x1, x2), c in wide[a1].items():
                if w.contains(x2[1]):
                    for m, c2 in times(x1, a2):
                        res1[m, x2] -= c * c2
                    for m, c2 in times(a2, x1):
                        res2[x2, m] += c * c2
                if w.contains(x1[1]):
                    for m, c2 in times(x2, a2):
                        res2[m, x1] -= c * c2
            for (x1, x2), c in wide[a2].items():
                if w.contains(x1[1]):
                    for m, c2 in times(a1, x2):
                        res1[x1, m] -= c * c2
                    for m, c2 in times(x2, a1):
                        res2[x1, m] -= c * c2
                if w.contains(x2[1]):
                    for m, c2 in times(a1, x1):
                        res2[m, x2] += c * c2
            _direct_failures(w, "casi1", (a1, a2), res1, failures)
            _direct_failures(w, "casi2", (a1, a2), res2, failures)
    _direct_coassoc(w, sources, wide, narrow, failures)
    return tuple(failures)


def _direct_assoc(D, w):
    monos = list(iter_box(w.safe_bound(2)))
    failures = []
    for d1 in range(D.dim):
        for d2 in range(D.dim):
            for d3 in range(D.dim):
                for b1 in monos:
                    for b2 in monos:
                        for b3 in monos:
                            source = ((d1, b1), (d2, b2), (d3, b3))
                            diff = affine_associator(D, *source)
                            failures.extend(("associativity", source, (key, diff[key]))
                                            for key in sorted(diff))
    return tuple(failures)


def _shifted(D, theta, rng, count):
    """D and θ with ``count`` random constants of each shifted."""
    deltas = (Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(-1), Fraction(3, 5))

    def site():
        return [rng.randrange(D.dim) for _ in range(3)]

    for _ in range(count):
        D = perturb_product(D, rng.choice(("gt", "lt")), *site(), rng.choice(deltas))
        theta = perturb_coproduct(theta, rng.choice(("co_gt", "co_lt")), *site(),
                                  rng.choice(deltas))
    return D, theta


def _rb_pair(D, rng):
    """The 3-dim D with a θ of two random nonzero coefficients, then one
    random constant of each shifted."""
    theta = CoalgStruct("dendriform", 3, {name: [[[0] * 3] * 3] * 3
                                          for name in ("co_gt", "co_lt")})
    sites = list(product(("co_gt", "co_lt"), range(3), range(3), range(3)))
    for site in rng.sample(sites, 2):
        theta = perturb_coproduct(theta, *site, rng.choice((Fraction(1, 2), 1, -3)))
    return _shifted(D, theta, rng, 1)


@pytest.mark.parametrize("case", [0, 1, 2, "rb-0", "rb-1"])
def test_pattern_decisions_match_a_direct_expansion(dend_pair, dend_theta, rb_dendriform,
                                                    case):
    """Random shifts of a few constants of D and θ at once, on the 2-dim pair
    (a seed) or the 3-dim Rota-Baxter dendriform algebra: every failure, its
    value and its order agree with the laws expanded term by term."""
    if isinstance(case, int):
        D, theta = _shifted(dend_pair, dend_theta, random.Random(case), 2)
    else:
        D, theta = _rb_pair(rb_dendriform, random.Random(case))
    w = Window(2)
    asi = check_completed_asi(D, theta, w)
    assert asi.failures == _direct_asi(D, theta, w)
    coassoc = check_completed_coassociativity(D, theta, w)
    assert coassoc.failures == tuple(f for f in asi.failures if f[0] == "coassoc")
    assert check_affine_associativity(D, w).failures == _direct_assoc(D, w)


# --- the perm axioms and the form against every window tuple ---------------------


def _tuple_perm_axioms(w):
    """check_laurent_perm_axioms as a loop over every window triple, reading the
    module's names at call time."""
    bound = w.safe_bound(2)
    failures = []
    checked = 0
    monos = list(affinization.iter_box(bound))
    for a in monos:
        for b in monos:
            for c in monos:
                checked += 1
                left = affinization.mono_product(a, affinization.mono_product(b, c))
                mid = affinization.mono_product(affinization.mono_product(a, b), c)
                perm = affinization.mono_product(affinization.mono_product(b, a), c)
                if left != mid:
                    failures.append(("perm_assoc", (a, b, c), (left, mid)))
                if mid != perm:
                    failures.append(("perm_left_commute", (a, b, c), (mid, perm)))
    return checked, tuple(failures)


def _tuple_graded_form(w):
    """check_graded_form as a loop over every window pair and triple, reading
    the module's names at call time."""
    form, times = affinization._form, affinization.mono_product
    failures = []
    checked = 0
    box = list(affinization.iter_box(w.N))
    for a in box:
        for b in box:
            checked += 1
            ab = form(a, b)
            if ab != -form(b, a):
                failures.append(("antisymmetry", (a, b), Fraction(ab)))
            degrees = affinization.mono_degree(a) + affinization.mono_degree(b)
            if ab != 0 and degrees + affinization.GRADING_M != 0:
                failures.append(("grading", (a, b), Fraction(ab)))
    inner = list(affinization.iter_box(w.safe_bound(1)))
    for a in inner:
        for b in inner:
            for c in inner:
                checked += 1
                lhs = form(times(a, b), c)
                rhs = form(a, times(b, c)) - form(a, times(c, b))
                if lhs != rhs:
                    failures.append(("invariance", (a, b, c), Fraction(lhs - rhs)))
    for e in box:
        f, sign = affinization.laurent_dual_basis(e)
        if sign * form(f, e) != 1:
            failures.append(("dual_pairing", (e,), Fraction(form(f, e))))
    return checked, tuple(failures)


def _unit(s):
    return (1, 0) if s == 1 else (0, 1)


def _keep_left(a, b):
    """A unit shift that keeps the ∂-index of the left factor."""
    e1, e2 = _unit(a.s)
    return Mono(a.i1 + b.i1 + e1, a.i2 + b.i2 + e2, a.s)


def _shift_right(a, b):
    """A unit shift by e_t, the ∂-index of the right factor, instead of e_s."""
    e1, e2 = _unit(b.s)
    return Mono(a.i1 + b.i1 + e1, a.i2 + b.i2 + e2, b.s)


def _symmetric_form(a, b):
    """ϖ made symmetric on its own support."""
    return 0 if a.s == b.s or a.i1 + b.i1 or a.i2 + b.i2 else 1


def _flipped_dual(m):
    """laurent_dual_basis with the sign of the dual of x^{i}∂₂ flipped."""
    if m.s == 1:
        return Mono(-m.i1, -m.i2, 2), 1
    return Mono(-m.i1, -m.i2, 1), 1


FAULTS = {
    "none": {},
    "product-keeps-left-d": {"mono_product": _keep_left},
    "product-shifts-by-e_t": {"mono_product": _shift_right},
    "symmetric-form": {"_form": _symmetric_form},
    "grading-m-1": {"GRADING_M": -1},
    "dual-d2-sign-flipped": {"laurent_dual_basis": _flipped_dual},
}


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_per_pattern_form_and_perm_checks_match_every_tuple(monkeypatch, fault, N):
    """With one of the functions they are built from broken, the per-pattern
    checks report the same count and the same failures, values and order as a
    loop over every window tuple."""
    for name, value in FAULTS[fault].items():
        monkeypatch.setattr(affinization, name, value)
    w = Window(N)
    perm = check_laurent_perm_axioms(w)
    assert (perm.checked, perm.failures) == _tuple_perm_axioms(w)
    form = check_graded_form(w)
    assert (form.checked, form.failures) == _tuple_graded_form(w)


def test_the_cli_lists_a_failing_windowed_check_once(monkeypatch):
    """`reproduce ex-4.2` on a B whose product keeps the left ∂-index reads
    each windowed report's verdict, ``ok`` and first failure: each report
    lists its failures once, although the perm axioms' listing sorts them
    all."""
    monkeypatch.setattr(affinization, "mono_product", _keep_left)
    listings = []
    init = Failures.__init__

    def counted(self, batches):
        at = len(listings)
        listings.append(0)

        def listed():
            listings[at] += 1
            return batches()

        init(self, listed)

    monkeypatch.setattr(Failures, "__init__", counted)
    result = CliRunner().invoke(main, ["reproduce", "ex-4.2"])
    assert result.exit_code == 1 and "first failure perm_assoc" in result.output
    assert listings and max(listings) == 1


def _nu_terms(b, R):
    """ν(b) term by term, from the module's _pattern_nu read at call time:
    {(x^{u}∂_g, x^{c+o−u}∂_v): sign} for every term (g, v, o, sign) and every
    |u| ≤ R."""
    out = defaultdict(int)
    for g, v, (o1, o2), sign in affinization._pattern_nu(b.s):
        for u1, u2 in product(range(-R, R + 1), repeat=2):
            out[Mono(u1, u2, g), Mono(b.i1 + o1 - u1, b.i2 + o2 - u2, v)] += sign
    return out


def _tuple_perm_coalgebra(w):
    """check_completed_perm_coalgebra with (ν⊗̂id)ν and (id⊗̂ν)ν expanded term
    by term on every source: one comparison per window triple that either
    side reaches with a nonzero coefficient.  A slot that is split again
    reaches |u| ≤ 2N − 1, so the sources are expanded over |u| ≤ 3N."""
    narrowed = {}

    def narrow(x):
        """ν(x) on window pairs only."""
        if x not in narrowed:
            narrowed[x] = {key: c for key, c in _nu_terms(x, w.N).items()
                           if c and w.contains(key[0]) and w.contains(key[1])}
        return narrowed[x]

    checked, failures = 0, []
    for b in iter_box(w.safe_bound(2)):
        split_first, split_second = defaultdict(int), defaultdict(int)
        for (x1, x2), c in _nu_terms(b, 3 * w.N).items():
            if c and w.contains(x2):  # (ν⊗̂id)ν
                for (p, q), c2 in narrow(x1).items():
                    split_first[p, q, x2] += c * c2
            if c and w.contains(x1):  # (id⊗̂ν)ν
                for (q, v), c2 in narrow(x2).items():
                    split_second[x1, q, v] += c * c2
        twisted = {(q, p, v): c for (p, q, v), c in split_second.items()}
        for label, one, other in (("co_perm_assoc", split_first, split_second),
                                  ("co_perm_left_commute", split_second, twisted)):
            reached = [key for key in one.keys() | other.keys()
                       if one.get(key, 0) or other.get(key, 0)]
            checked += len(reached)
            diff = {key: one.get(key, 0) - other.get(key, 0) for key in reached}
            failures.extend((label, (b, key), Fraction(diff[key]))
                            for key in sorted(diff) if diff[key])
    return checked, tuple(failures)


# Broken forms of _pattern_nu, and the perm coalgebra laws each one breaks.
# Equal signs with swapped shifts leave both laws true: it is the ν of the
# other sign convention.
PERM_COALGEBRA_FAULTS = {
    "none": (None, set()),
    "signs-equal-shifts-swapped": (
        lambda t: [(1, t, (1, 0), 1), (2, t, (0, 1), 1)], set()),
    "second-d-always-d1": (
        lambda t: [(1, 1, (0, 1), 1), (2, 1, (1, 0), -1)], {"co_perm_assoc"}),
    "d-indices-swapped": (
        lambda t: [(t, 1, (0, 1), 1), (t, 2, (1, 0), -1)], {"co_perm_left_commute"}),
}


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("fault", sorted(PERM_COALGEBRA_FAULTS))
def test_per_pattern_perm_coalgebra_check_matches_a_term_expansion(monkeypatch, fault, N):
    """With ν broken or not, the per-pattern perm coalgebra check reports the
    count, failures, values and order of the two laws expanded term by term."""
    broken, laws = PERM_COALGEBRA_FAULTS[fault]
    if broken is not None:
        monkeypatch.setattr(affinization, "_pattern_nu", broken)
    w = Window(N)
    rep = check_completed_perm_coalgebra(w)
    checked, failures = _tuple_perm_coalgebra(w)
    assert rep.checked == checked
    assert rep.failures == failures
    assert {f[0] for f in failures} == laws


# --- ranked window targets against a sort of the built keys ----------------------
#
# The window residuals before targets were numbered by the ranks of their cells:
# every key built as a tuple of grid cells, collected in a dict and sorted.


def _old_splits(total, N, k):
    if k == 1:
        return [(total + N,)] if -N <= total <= N else []
    return [
        (e + N, *rest)
        for e in range(max(-N, total - (k - 1) * N), min(N, total + (k - 1) * N) + 1)
        for rest in _old_splits(total - e, N, k - 1)
    ]


def _old_mono_grid(N):
    r = range(-N, N + 1)
    return {s: [[Mono(i1, i2, s) for i2 in r] for i1 in r] for s in (1, 2)}


def _old_slot_grid(N, dim):
    monos = _old_mono_grid(N)
    return {(d, s): [[(d, m) for m in row] for row in monos[s]]
            for d in range(dim) for s in (1, 2)}


def _old_window_keys(slots, total, N, grid):
    k = len(slots)
    second = _old_splits(total[1], N, k)
    keys = []
    for xs in _old_splits(total[0], N, k):
        rows = [grid[slot][x] for slot, x in zip(slots, xs)]
        keys += [tuple(map(list.__getitem__, rows, ys)) for ys in second]
    return keys


def _old_window_residuals(patterns, base, N, scale, grid):
    found = {}
    for (slots, offset), c in patterns.items():
        value = Fraction(c, scale)
        for key in _old_window_keys(slots, (base[0] + offset[0], base[1] + offset[1]), N, grid):
            found[key] = value
    return [(key, found[key]) for key in sorted(found)]


@pytest.mark.parametrize("N", (1, 2, 3, 4))
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("dim", (None, 1, 2, 3))
def test_ranked_targets_match_a_sort_of_the_keys(dim, k, N):
    """Random pattern sets, several sharing their slots, with sums that reach
    past the window edge; ``dim=None`` is the monomial grid of the perm
    coalgebra check.  The repr is compared too, so cell types must agree."""
    rng = random.Random(f"{dim}/{k}/{N}")
    slots = (1, 2) if dim is None else [(d, s) for d in range(dim) for s in (1, 2)]
    grid = affinization._grid(N, dim)
    old_grid = _old_mono_grid(N) if dim is None else _old_slot_grid(N, dim)
    reach = k * N + 2
    sizes = []
    for _ in range(20):
        shared = [tuple(rng.choice(slots) for _ in range(k)) for _ in range(3)]
        patterns = {
            (rng.choice(shared), (rng.randint(-3, 3), rng.randint(-3, 3))):
                rng.choice((-3, -1, 1, 2, 5))
            for _ in range(rng.randint(1, 8))
        }
        base = (rng.randint(-reach, reach), rng.randint(-reach, reach))
        scale = rng.choice((1, 3, 10))
        new = affinization._window_residuals(patterns, base, N, scale, grid)
        old = _old_window_residuals(patterns, base, N, scale, old_grid)
        assert repr(new) == repr(old)
        sizes.append(len(new))
    assert 0 in sizes and max(sizes) > 0


def _old_nu_pairing(w):
    """check_nu_pairing with its failures sorted by source after they were
    built, reading the module's names at call time."""
    af = affinization
    bound = w.safe_bound(1)
    monos = _old_mono_grid(w.N)
    failures = []
    for parts in product((1, 2), repeat=3):
        s1, s2, s3 = parts
        res = {}
        for s, _, shift, sign in af._pattern_nu(s1):
            af._add(res, shift, sign * af._form_sign(s, s2) * af._form_sign(s1, s3))
        af._add(res, af._UNIT[s2], af._form_sign(s1, s3))
        for offset, c in af._support(res).items():
            value = Fraction(c)
            for b1 in af._part(bound, s1):
                total = (-offset[0] - b1.i1, -offset[1] - b1.i2)
                for b2, b3 in _old_window_keys(parts[1:], total, w.N, monos):
                    failures.append(("nu_pairing", (b1, b2, b3), value))
    failures.sort(key=itemgetter(1))
    return tuple(failures)


NU_FAULTS = {
    "none": {},
    "symmetric-form": {"_form_sign": lambda s, t: 0 if s == t else 1},
    "nu-signs-equal": {"_pattern_nu": lambda t: [(1, t, (0, 1), 1), (2, t, (1, 0), 1)]},
    "nu-shift-swapped": {"_pattern_nu": lambda t: [(1, t, (1, 0), 1), (2, t, (0, 1), -1)]},
}


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("fault", sorted(NU_FAULTS))
def test_ranked_nu_pairing_matches_a_sort_by_source(monkeypatch, fault, N):
    for name, value in NU_FAULTS[fault].items():
        monkeypatch.setattr(affinization, name, value)
    rep = check_nu_pairing(Window(N))
    old = _old_nu_pairing(Window(N))
    assert repr(rep.failures) == repr(old)
    assert bool(old) == (fault != "none")
