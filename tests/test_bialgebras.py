"""Coalgebras, bialgebra compatibility, quadratic perm data and induction."""

from fractions import Fraction

import pytest

from dendrikit import examples
from dendrikit.algebras import FinAlgebra, check_axioms
from dendrikit.bialgebras import (
    CoalgStruct,
    check_bialgebra,
    check_bialgebra_square,
    check_coalgebra,
    check_quadratic_perm_identities,
    dendriform_to_prelie_bialgebra,
    induce_asi_bialgebra,
    induce_lie_bialgebra,
    make_quadratic_perm,
)
from dendrikit.exact import ONE, ZERO, BilinForm, Vec

from conftest import conjugate_algebra, conjugate_form, int_matrix


def test_example_coalgebras_pass(dend_theta):
    assert check_coalgebra(dend_theta).ok
    assert check_coalgebra(examples.prelie_pair_coalgebra()).ok
    assert check_coalgebra(examples.expected_lie_cobracket()).ok
    assert check_coalgebra(examples.expected_asi_coproduct()).ok


def test_broken_coassociativity_detected():
    cube = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][0] = ONE
    cube[0][0][1] = ONE  # Δ(b₀) = b₀⊗b₀ + b₀⊗b₁ is not coassociative
    bad = CoalgStruct("assoc", 2, {"co": cube})
    assert not check_coalgebra(bad).ok


def test_dendriform_bialgebra_compat(dend_pair, dend_theta):
    rep = check_bialgebra(dend_pair, dend_theta)
    assert rep.ok, rep.first_violation
    assert set(rep.residuals) == {f"dbi{i}" for i in range(1, 7)}


def test_dbi6_reading_recorded(dend_pair, dend_theta):
    rep = check_bialgebra(dend_pair, dend_theta, dbi6_reading="literal")
    assert "literal" in rep.subject


def test_quadratic_perm_rejects_bad_forms(perm_pair):
    with pytest.raises(ValueError, match="antisymmetric"):
        make_quadratic_perm(perm_pair, BilinForm(((ONE, ZERO), (ZERO, ONE))))
    with pytest.raises(ValueError, match="degenerate"):
        make_quadratic_perm(perm_pair, BilinForm(((ZERO, ZERO), (ZERO, ZERO))))


def test_quadratic_perm_rejects_noninvariant_form():
    # x₁·x₁ = x₂ is a valid perm product, but the symplectic form is not
    # invariant for it: ω(x₁x₁, x₁) = −1 while ω(x₁, x₁x₁ − x₁x₁) = 0
    from dendrikit.algebras import FinAlgebra, check_axioms as _check

    cube = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    cube[1][0][0] = ONE
    alg = FinAlgebra("perm", 2, {"mul": cube})
    assert _check(alg).ok
    with pytest.raises(ValueError, match="invariant"):
        make_quadratic_perm(alg, BilinForm(((ZERO, ONE), (-ONE, ZERO))))


def test_nu_satisfies_pairing_convention(qperm_pair):
    """⟨ν(b₁), b₂⊗b₃⟩ = ω(b₁, b₂b₃) with the product pairing on 2-tensors."""
    alg, form = qperm_pair.algebra, qperm_pair.form
    nu = qperm_pair.nu
    n = alg.dim
    for i in range(n):
        m = nu.coproducts["co"][i]
        for j in range(n):
            for k in range(n):
                lhs = sum(
                    (
                        m[p][q]
                        * form.pair(Vec.basis(n, p), Vec.basis(n, j))
                        * form.pair(Vec.basis(n, q), Vec.basis(n, k))
                        for p in range(n)
                        for q in range(n)
                    ),
                    ZERO,
                )
                rhs = form.pair(
                    Vec.basis(n, i),
                    alg.multiply("mul", Vec.basis(n, j), Vec.basis(n, k)),
                )
                assert lhs == rhs


def test_nu_values_on_example(qperm_pair):
    nu = qperm_pair.nu
    # ν(x₁) = x₁⊗x₁ and ν(x₂) = x₁⊗x₂
    assert nu.coproducts["co"][0] == ((ONE, ZERO), (ZERO, ZERO))
    assert nu.coproducts["co"][1] == ((ZERO, ONE), (ZERO, ZERO))
    assert check_coalgebra(nu).ok


def test_quadratic_perm_identities(qperm_pair):
    rep = check_quadratic_perm_identities(qperm_pair)
    assert rep.ok, rep.first_violation


def test_quadratic_perm_identities_after_basis_change(qperm_pair):
    S = int_matrix([[1, 2], [1, 1]])
    alg = conjugate_algebra(qperm_pair.algebra, S)
    form = conjugate_form(qperm_pair.form, S)
    qp2 = make_quadratic_perm(alg, form)
    rep = check_quadratic_perm_identities(qp2)
    assert rep.ok, rep.first_violation
    assert check_coalgebra(qp2.nu).ok


def test_dual_basis_vectors_pair_to_identity(qperm_pair):
    # column j of the dual-basis matrix is fⱼ
    fs = [Vec(column) for column in zip(*qperm_pair.dual.matrix)]
    for i in range(2):
        for j in range(2):
            expected = ONE if i == j else ZERO
            assert qperm_pair.form.pair(Vec.basis(2, i), fs[j]) == expected


def test_induced_lie_bialgebra_matches_expected(qperm_pair):
    P = examples.prelie_pair()
    lie, cobr = induce_lie_bialgebra(P, examples.prelie_pair_coalgebra(), qperm_pair)
    assert lie.products == examples.expected_tensor_lie().products
    assert cobr.coproducts == examples.expected_lie_cobracket().coproducts
    assert check_axioms(lie).ok
    assert check_coalgebra(cobr).ok
    assert check_bialgebra(lie, cobr).ok


def test_induced_asi_bialgebra_matches_expected(dend_pair, dend_theta, qperm_pair):
    assoc, delta = induce_asi_bialgebra(dend_pair, dend_theta, qperm_pair)
    assert assoc.products == examples.expected_tensor_assoc().products
    assert delta.coproducts == examples.expected_asi_coproduct().coproducts
    assert check_axioms(assoc).ok
    assert check_coalgebra(delta).ok
    assert check_bialgebra(assoc, delta).ok


def test_prelie_bialgebra_from_dendriform(dend_pair, dend_theta):
    P, theta = dendriform_to_prelie_bialgebra(dend_pair, dend_theta)
    assert P.products == examples.prelie_pair().products
    assert theta.coproducts == examples.prelie_pair_coalgebra().coproducts
    assert check_bialgebra(P, theta).ok


def test_bialgebra_square_commutes(dend_pair, dend_theta, qperm_pair):
    rep = check_bialgebra_square(dend_pair, dend_theta, qperm_pair)
    assert rep.ok, rep.first_violation


def test_bialgebra_square_detects_mismatch(dend_pair, qperm_pair):
    # a coproduct that is a valid dendriform coalgebra but not the coboundary
    # one still yields agreeing routes: the square commutes for every
    # D-coalgebra, so perturbing only one route's input must break agreement.
    # Instead check the trivial coalgebra also commutes (both routes zero).
    zero = [[[ZERO] * 2 for _ in range(2)] for _ in range(2)]
    trivial = CoalgStruct("dendriform", 2, {"co_lt": zero, "co_gt": zero})
    rep = check_bialgebra_square(dend_pair, trivial, qperm_pair)
    assert rep.ok


@pytest.mark.parametrize("site", [(k, i, j) for k in range(2) for i in range(2) for j in range(2)])
def test_invariance_failure_names_the_first_basis_triple(qperm_pair, site):
    """Each perm constant of the quadratic pair shifted by 1/3, against the
    first triple where ω(b₁b₂, b₃) ≠ ω(b₁, b₂b₃ − b₃b₂) by dense sums."""
    c = [[list(row) for row in plane] for plane in qperm_pair.algebra.products["mul"]]
    k, i, j = site
    c[k][i][j] += Fraction(1, 3)
    w = qperm_pair.form.matrix
    n = len(w)

    def left(x, y, z):  # ω(bₓb_y, b_z)
        return sum((c[m][x][y] * w[m][z] for m in range(n)), Fraction(0))

    def right(x, y, z):  # ω(bₓ, b_yb_z)
        return sum((w[x][m] * c[m][y][z] for m in range(n)), Fraction(0))

    fails = [
        (a, b, d) for a in range(n) for b in range(n) for d in range(n)
        if left(a, b, d) != right(a, b, d) - right(a, d, b)
    ]
    alg = FinAlgebra("perm", n, {"mul": c})
    if not fails:
        assert make_quadratic_perm(alg, qperm_pair.form).algebra == alg
        return
    a, b, d = fails[0]
    with pytest.raises(ValueError, match=fr"fails on basis triple \({a}, {b}, {d}\)$"):
        make_quadratic_perm(alg, qperm_pair.form)
