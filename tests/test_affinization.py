"""Windowed Laurent-series checks and proof-predicted failure localization."""

import pytest

from dendrikit.affinization import (
    ASSOC_LOCALIZATION,
    ASSOC_LOCALIZATION_TARGET,
    GRADING_M,
    InsufficientWindowError,
    Mono,
    Window,
    _acc,
    _product_expand,
    affine_assoc_product,
    check_affine_associativity,
    check_completed_asi,
    check_completed_coassociativity,
    check_completed_perm_coalgebra,
    check_graded_form,
    check_laurent_perm_axioms,
    check_nu_pairing,
    graded_form,
    laurent_dual_basis,
    mono_degree,
    mono_product,
    perturb_coproduct,
    perturb_product,
)
from dendrikit.algebras import check_axioms
from dendrikit.bialgebras import check_bialgebra, check_coalgebra
from dendrikit.exact import ZERO


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


def _associator(D, t1, t2, t3):
    left = _product_expand(D, affine_assoc_product(D, t1, t2), t3)
    inner = affine_assoc_product(D, t2, t3)
    right: dict = {}
    for (dk, mk), c in inner.items():
        for key, c2 in affine_assoc_product(D, t1, (dk, mk)).items():
            _acc(right, key, c * c2)
    out: dict = {}
    for key in set(left) | set(right):
        diff = left.get(key, ZERO) - right.get(key, ZERO)
        if diff:
            out[key] = diff
    return out


# orientation of the finite residual relative to the affine associator
_LOCALIZATION_SIGN = {(2, 1, 1): 1, (1, 2, 1): 1, (1, 1, 2): -1}


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
        sign = _LOCALIZATION_SIGN[pattern]
        for d1 in range(2):
            for d2 in range(2):
                for d3 in range(2):
                    sources = tuple(
                        (d, Mono(0, 0, s))
                        for d, s in zip((d1, d2, d3), pattern)
                    )
                    assoc = _associator(bad, *sources)
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
