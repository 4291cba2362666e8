"""A windowed law passes its window check exactly where its skeleton patterns
are all zero.

Each term of a windowed law gives one coefficient to every target of its
pattern, and for safe-region sources that coefficient is the exact one.  So a
pattern table with no nonzero entry proves the law on all of D⊗B (or of B),
and a nonzero pattern fails at N = 2 already.  Here every law read on a
skeleton is checked that way at N = 2, 3 and 4: the verdict of its window
check against its pattern table, read from the finite law table.  The inputs
are random perturbations of D and θ, scaled coproducts that still pass, and
broken forms of B's product, form and coproduct.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dendrikit import affinization as af
from dendrikit import examples
from dendrikit.affinization import NU_PAIRING, Window
from dendrikit.algebras import AXIOMS, law_residuals
from dendrikit.bialgebras import (
    COALGEBRA_LAWS,
    QUADRATIC_LAWS,
    CoalgStruct,
    make_quadratic_perm,
)
from dendrikit.exact import BilinForm, IntTable, determinant, transpose

from conftest import (
    conjugate_algebra,
    conjugate_form,
    int_matrix,
    perturb_coproduct,
    perturb_product,
)
from test_affinization import FAULTS, NU_FAULTS, PERM_COALGEBRA_FAULTS

WINDOWS = (2, 3, 4)

# --- D⊗B -------------------------------------------------------------------------

# window check ↦ the skeleton laws it decides
DB_CHECKS = {
    "associativity": {"associativity"},
    "asi": {"casi1", "casi2", "coassoc"},
    "coassociativity": {"coassoc"},
}


def _scaled(theta, c):
    return CoalgStruct("dendriform", theta.dim, {
        name: [[[c * x for x in row] for row in plane] for plane in cube]
        for name, cube in theta.coproducts.items()})


def _db_inputs():
    """(name, D, θ): the corpus pair, θ scaled by 3 and by 0 (both pass), and
    random shifts of one or two constants of D, of θ or of both."""
    D, theta = examples.dendriform_pair(), examples.dendriform_pair_coalgebra()
    cases = [("clean", D, theta), ("theta*3", D, _scaled(theta, 3)),
             ("theta*0", D, _scaled(theta, 0))]
    deltas = (Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(-1))
    for seed in range(9):
        rng = random.Random(seed)
        d, t = D, theta
        for _ in range(rng.choice((1, 2))):
            if seed % 3 != 1:
                d = perturb_product(d, rng.choice(("gt", "lt")),
                                    *(rng.randrange(2) for _ in range(3)), rng.choice(deltas))
            if seed % 3 != 0:
                t = perturb_coproduct(t, rng.choice(("co_gt", "co_lt")),
                                      *(rng.randrange(2) for _ in range(3)), rng.choice(deltas))
        cases.append((f"random-{seed}", d, t))
    return cases


DB_INPUTS = _db_inputs()


def _db_live(D, theta) -> set:
    """The D⊗B laws with a nonzero pattern, read from the finite law tables."""
    tables = {"mul": af._skeleton_table(af._SKELETON_MUL, {**D.tables, **af._B}, D.dim),
              "co": af._skeleton_table(af._SKELETON_CO, {**theta.tables, **af._B}, D.dim)}
    return {label for label, law in af._SKELETON_LAWS.items()
            if af._patterns(law, tables, D.dim, 1)[0]}


def _db_report(check, D, theta, N):
    w = Window(N)
    if check == "associativity":
        return af.check_affine_associativity(D, w)
    if check == "asi":
        return af.check_completed_asi(D, theta, w)
    return af.check_completed_coassociativity(D, theta, w)


@pytest.mark.parametrize("N", WINDOWS)
@pytest.mark.parametrize("check", sorted(DB_CHECKS))
@pytest.mark.parametrize("case", range(len(DB_INPUTS)), ids=[c[0] for c in DB_INPUTS])
def test_a_db_check_passes_iff_its_patterns_are_zero(case, check, N):
    _name, D, theta = DB_INPUTS[case]
    live = _db_live(D, theta) & DB_CHECKS[check]
    rep = _db_report(check, D, theta, N)
    assert bool(rep.failures) == bool(live)
    if N == 2:
        assert {f[0] for f in rep.failures} == live


def test_the_db_inputs_pass_and_fail():
    verdicts = {bool(_db_live(D, theta)) for _name, D, theta in DB_INPUTS}
    assert verdicts == {False, True}
    assert not _db_live(*DB_INPUTS[1][1:]) and not _db_live(*DB_INPUTS[2][1:])


# --- B alone -----------------------------------------------------------------------

# every broken B of the fault tests, as the module names each one replaces
B_FAULTS = {
    **{f"form/{name}": patch for name, patch in FAULTS.items()},
    **{f"coalgebra/{name}": {} if nu is None else {"_pattern_nu": nu}
       for name, (nu, _laws) in PERM_COALGEBRA_FAULTS.items()},
    **{f"nu/{name}": patch for name, patch in NU_FAULTS.items()},
}

# window check ↦ the finite laws it reads on the skeleton of B
B_LAWS = {
    "perm_axioms": AXIOMS["perm"],
    "perm_coalgebra": COALGEBRA_LAWS["perm"],
    "graded_form": QUADRATIC_LAWS,
    "nu_pairing": NU_PAIRING,
}
B_CHECKS = {
    "perm_axioms": af.check_laurent_perm_axioms,
    "perm_coalgebra": af.check_completed_perm_coalgebra,
    "graded_form": af.check_graded_form,
    "nu_pairing": af.check_nu_pairing,
}


def _b_live(check) -> set:
    """The laws of ``check`` with a nonzero pattern on B as the module's names
    give it now."""
    tables = {name: IntTable(entries=list(entries))
              for name, entries in zip(("mul", "co", "w"), af._skeleton_b())}
    return {label for label, law in B_LAWS[check].items()
            if af._patterns(af._on_skeleton(law), tables, None, 1)[0]}


@pytest.mark.parametrize("fault", sorted(B_FAULTS))
@pytest.mark.parametrize("check", sorted(B_CHECKS))
def test_a_b_check_passes_iff_its_patterns_are_zero(monkeypatch, check, fault):
    """Antisymmetry, grading and the dual pairing of the graded form are not
    read on the skeleton; each is decided per ∂-pair, so whether it fails
    does not depend on N, and N = 2 gives it."""
    for name, value in B_FAULTS[fault].items():
        monkeypatch.setattr(af, name, value)
    live = _b_live(check)
    labels = {f[0] for f in B_CHECKS[check](Window(2)).failures}
    written_out = labels - set(B_LAWS[check])
    assert labels & set(B_LAWS[check]) == live
    for N in WINDOWS:
        assert bool(B_CHECKS[check](Window(N)).failures) == bool(live | written_out)


def test_every_b_law_fails_under_some_fault(monkeypatch):
    failing = set()
    for patch in B_FAULTS.values():
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(af, name, value)
            failing |= {label for check in B_LAWS for label in _b_live(check)}
    assert failing == {label for laws in B_LAWS.values() for label in laws}


# --- the sign convention of NU_PAIRING -----------------------------------------------


def _nu_pairing_violation(qp, form):
    tables = {"co": qp.nu.tables["co"], "w": form.table, "mul": qp.algebra.tables["mul"]}
    return law_residuals(NU_PAIRING, tables, qp.algebra.dim).violations["nu_pairing"]


def _transposed(form):
    return BilinForm(transpose(form.matrix))


def test_nu_pairing_holds_with_the_transposed_form():
    """The ν of a form ω pairs with ω to +ω(bᵢ, bⱼbₖ), so NU_PAIRING holds
    with w = ωᵀ = −ω and fails with ω itself, by 2ω(bᵢ, bⱼbₖ)."""
    qp = examples.perm_pair_quadratic()
    assert _nu_pairing_violation(qp, _transposed(qp.form)) is None
    assert _nu_pairing_violation(qp, qp.form) == ((0, 1, 1), Fraction(2))


_entry = st.integers(min_value=-2, max_value=2)


@settings(max_examples=15, deadline=None)
@given(entries=st.lists(_entry, min_size=4, max_size=4))
def test_nu_pairing_convention_survives_basis_change(entries):
    S = int_matrix([entries[:2], entries[2:]])
    assume(determinant(S) != 0)
    src = examples.perm_pair_quadratic()
    qp = make_quadratic_perm(conjugate_algebra(src.algebra, S), conjugate_form(src.form, S))
    assert _nu_pairing_violation(qp, _transposed(qp.form)) is None
    assert _nu_pairing_violation(qp, qp.form) is not None
