"""Yang-Baxter residuals, coboundary coproducts, O-operators and transfers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrikit import examples
from dendrikit.algebras import KIND_OPS, FinAlgebra
from dendrikit.bialgebras import check_coalgebra
from dendrikit.exact import ONE, ZERO, LinMap, Tensor2, flip, sharp
from dendrikit.functors import dendriform_to_prelie, tensor_assoc, tensor_lie
from dendrikit.ybe import (
    YBE_LAWS,
    HypothesisError,
    check_ooperator,
    coboundary_coproduct,
    coregular_bimodule,
    factorizable_check,
    invariance_residual,
    is_ybe_solution,
    kappa_tensor,
    lift_r,
    transfer_aybe_to_cybe,
    transfer_assoc_cobound_to_lie,
    transfer_assoc_ooperator_to_lie,
    transfer_dend_cobound_to_prelie,
    transfer_dend_ooperator_to_prelie,
    transfer_dybe_lift,
    transfer_dybe_to_plybe,
    transfer_induced_asi_coproduct,
    transfer_induced_lie_cobracket,
    transfer_plybe_lift,
    ybe_residual,
)

from conftest import ybe_residual_loop


# --- residuals ---------------------------------------------------------------


def test_symmetric_families_solve_dendriform_equation(dend_pair):
    for r in (
        examples.r_corner(1),
        examples.r_corner(Fraction(5, 3)),
        examples.r_family(1, 1),
        examples.r_family(0, 1),
        examples.r_family(2, -3),
    ):
        assert ybe_residual(dend_pair, r).is_zero()


def test_nonsolution_has_nonzero_residual(dend_pair):
    assert not ybe_residual(dend_pair, examples.r_nonsolution()).is_zero()
    assert not is_ybe_solution(dend_pair, examples.r_nonsolution())


def test_prelie_residual_for_symmetric_solution(dend_pair):
    P = dendriform_to_prelie(dend_pair)
    assert ybe_residual(P, examples.r_corner()).is_zero()


def test_lift_solves_lie_and_assoc_equations(dend_pair, qperm_pair):
    P = dendriform_to_prelie(dend_pair)
    rhat = lift_r(examples.r_corner(), qperm_pair)
    assert rhat.coeffs == examples.expected_lift().coeffs
    assert ybe_residual(tensor_lie(P, qperm_pair.algebra), rhat).is_zero()
    assert ybe_residual(tensor_assoc(dend_pair, qperm_pair.algebra), rhat).is_zero()


def test_lift_is_skew(dend_pair, qperm_pair):
    for r in (examples.r_corner(), examples.r_family(1, 1), examples.r_family(0, 1)):
        rhat = lift_r(r, qperm_pair)
        assert (rhat + flip(rhat)).is_zero()


def test_kappa_is_antisymmetric(qperm_pair):
    kap = kappa_tensor(qperm_pair)
    assert (kap + flip(kap)).is_zero()


# zero, sparse and dense structure constants and r-matrices
DENSITIES = (0.0, 0.2, 1.0)


@st.composite
def ybe_inputs(draw):
    """An algebra of a kind with a Yang-Baxter equation (no law is imposed
    on its constants) and an r-matrix, both with denominators up to 7."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(sorted(YBE_LAWS)))
    n = draw(st.integers(1, 5))
    density, r_density = draw(st.sampled_from(DENSITIES)), draw(st.sampled_from(DENSITIES))
    max_den = draw(st.integers(1, 7))

    def matrix(d):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, max_den))
                 if rng.random() < d else ZERO for _ in range(n)] for _ in range(n)]

    alg = FinAlgebra(kind, n, {op: [matrix(density) for _ in range(n)]
                               for op in KIND_OPS[kind]})
    return alg, Tensor2(matrix(r_density))


@settings(max_examples=80, deadline=None)
@given(ybe_inputs())
def test_ybe_residual_matches_the_term_by_term_loop(inputs):
    alg, r = inputs
    residual = ybe_residual(alg, r).coeffs
    assert residual == ybe_residual_loop(alg, r)
    assert all(type(x) is Fraction for plane in residual for row in plane for x in row)


def test_ybe_residual_refuses_a_missized_r_and_a_kind_without_an_equation(dend_pair, perm_pair):
    wide = Tensor2([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])
    with pytest.raises(ValueError, match="r-matrix dimension"):
        ybe_residual(dend_pair, wide)
    with pytest.raises(ValueError, match="no Yang-Baxter equation for kind 'perm'"):
        ybe_residual(perm_pair, examples.r_corner())


# --- coboundary coproducts ---------------------------------------------------


def test_dendriform_coboundary_matches_expected(dend_pair):
    theta = coboundary_coproduct(dend_pair, examples.r_corner())
    assert theta.coproducts == examples.dendriform_pair_coalgebra().coproducts
    assert check_coalgebra(theta).ok


def test_coboundary_coproducts_are_coalgebras_for_solutions(dend_pair, qperm_pair):
    r = examples.r_family(1, 1)
    assert check_coalgebra(coboundary_coproduct(dend_pair, r)).ok
    P = dendriform_to_prelie(dend_pair)
    assert check_coalgebra(coboundary_coproduct(P, r)).ok
    rhat = lift_r(r, qperm_pair)
    lie = tensor_lie(P, qperm_pair.algebra)
    assert check_coalgebra(coboundary_coproduct(lie, rhat)).ok
    assoc = tensor_assoc(dend_pair, qperm_pair.algebra)
    assert check_coalgebra(coboundary_coproduct(assoc, rhat)).ok


# --- invariance --------------------------------------------------------------


def test_skew_part_of_symmetric_solution_is_invariant(dend_pair):
    P = dendriform_to_prelie(dend_pair)
    r = examples.r_corner()
    assert invariance_residual(P, r - flip(r)).ok  # zero tensor, trivially


def test_invariance_failure_detected(dend_pair):
    P = dendriform_to_prelie(dend_pair)
    rep = invariance_residual(P, examples.r_corner())
    assert not rep.ok


# --- O-operators -------------------------------------------------------------


def test_sharp_of_solution_is_ooperator_all_kinds(dend_pair, qperm_pair):
    r = examples.r_corner()
    rhat = lift_r(r, qperm_pair)
    P = dendriform_to_prelie(dend_pair)
    lie = tensor_lie(P, qperm_pair.algebra)
    assoc = tensor_assoc(dend_pair, qperm_pair.algebra)
    for alg, tensor in ((dend_pair, r), (P, r), (assoc, rhat), (lie, rhat)):
        rep = check_ooperator(coregular_bimodule(alg), sharp(tensor))
        assert rep.ok, (alg.kind, rep.first_violation)


def test_sharp_of_nonsolution_is_not_ooperator(dend_pair):
    rep = check_ooperator(
        coregular_bimodule(dend_pair), sharp(examples.r_nonsolution())
    )
    assert not rep.ok


def test_misshaped_operator_or_tensor_is_rejected(dend_pair):
    """A 2x3 operator or a 3x3 r on a 2-dim algebra is refused, not read."""
    bim = coregular_bimodule(dend_pair)
    wide = LinMap([[ONE, ZERO, ONE], [ZERO, ONE, ZERO]])
    with pytest.raises(ValueError, match="operator must be 2x2"):
        check_ooperator(bim, wide)
    big = Tensor2([[ONE, ZERO, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ONE]])
    pre = dendriform_to_prelie(dend_pair)
    for call in (lambda: coboundary_coproduct(dend_pair, big),
                 lambda: invariance_residual(pre, big),
                 lambda: ybe_residual(dend_pair, big)):
        with pytest.raises(ValueError, match="r-matrix dimension"):
            call()


def test_ooperator_iff_ybe_dendriform_exhaustive(dend_pair):
    """r symmetric: solving the dendriform equation ⇔ r♯ is an O-operator."""
    vals = (Fraction(-1), ZERO, ONE)
    bim = coregular_bimodule(dend_pair)
    seen_both = {True: 0, False: 0}
    for a in vals:
        for b in vals:
            for c in vals:
                r = Tensor2(((a, b), (b, c)))
                solves = ybe_residual(dend_pair, r).is_zero()
                oop = check_ooperator(bim, sharp(r)).ok
                assert solves == oop, (a, b, c)
                seen_both[solves] += 1
    assert seen_both[True] > 0 and seen_both[False] > 0


def test_ooperator_iff_ybe_prelie_exhaustive(dend_pair):
    P = dendriform_to_prelie(dend_pair)
    vals = (Fraction(-1), ZERO, ONE)
    bim = coregular_bimodule(P)
    for a in vals:
        for b in vals:
            for c in vals:
                r = Tensor2(((a, b), (b, c)))
                assert ybe_residual(P, r).is_zero() == check_ooperator(bim, sharp(r)).ok


def test_factorizable_check():
    dend = examples.dendriform_pair()
    P = dendriform_to_prelie(dend)
    res = factorizable_check(P, examples.r_corner())
    # symmetric r: r♯ − (τr)♯ = 0, never factorizable in the pre-Lie sense
    assert not res.factorizable
    assert res.determinant == 0


# --- transfer theorems -------------------------------------------------------


def test_transfer_dybe_to_plybe(dend_pair):
    for r in (examples.r_corner(), examples.r_family(1, 1), examples.r_family(0, 1)):
        assert transfer_dybe_to_plybe(dend_pair, r).ok


def test_transfer_aybe_to_cybe(dend_pair, qperm_pair):
    assoc = tensor_assoc(dend_pair, qperm_pair.algebra)
    rhat = lift_r(examples.r_corner(), qperm_pair)
    assert transfer_aybe_to_cybe(assoc, rhat).ok


def test_transfer_coboundary_edges(dend_pair, qperm_pair):
    r = examples.r_corner()
    assert transfer_dend_cobound_to_prelie(dend_pair, r).ok
    assoc = tensor_assoc(dend_pair, qperm_pair.algebra)
    rhat = lift_r(r, qperm_pair)
    assert transfer_assoc_cobound_to_lie(assoc, rhat).ok


def test_transfer_lifts(dend_pair, qperm_pair):
    P = dendriform_to_prelie(dend_pair)
    for r in (examples.r_corner(), examples.r_family(1, 1)):
        assert transfer_dybe_lift(dend_pair, r, qperm_pair).ok
        assert transfer_plybe_lift(P, r, qperm_pair).ok
        assert transfer_induced_asi_coproduct(dend_pair, r, qperm_pair).ok
        assert transfer_induced_lie_cobracket(P, r, qperm_pair).ok


def test_transfer_ooperator_edges(dend_pair, qperm_pair):
    r = examples.r_corner()
    assert transfer_dend_ooperator_to_prelie(dend_pair, sharp(r)).ok
    assoc = tensor_assoc(dend_pair, qperm_pair.algebra)
    rhat = lift_r(r, qperm_pair)
    assert transfer_assoc_ooperator_to_lie(assoc, sharp(rhat)).ok


def test_transfer_hypothesis_failures_raise(dend_pair, qperm_pair):
    skew = Tensor2(((ZERO, ONE), (-ONE, ZERO)))
    with pytest.raises(HypothesisError, match="symmetric"):
        transfer_dybe_to_plybe(dend_pair, skew)
    with pytest.raises(HypothesisError, match="solve"):
        transfer_dybe_lift(dend_pair, examples.r_nonsolution(), qperm_pair)
    P = dendriform_to_prelie(dend_pair)
    with pytest.raises(HypothesisError):
        transfer_induced_lie_cobracket(P, skew, qperm_pair)
    with pytest.raises(HypothesisError, match="O-operator"):
        transfer_dend_ooperator_to_prelie(
            dend_pair, sharp(examples.r_nonsolution())
        )
