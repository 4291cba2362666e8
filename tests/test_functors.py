"""Constructions between algebra kinds and the commuting square."""

import pytest

from dendrikit import examples
from dendrikit.algebras import check_axioms
from dendrikit.exact import Vec
from dendrikit.functors import (
    check_square,
    commutator_lie,
    dendriform_to_assoc,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_lie,
)


def test_dendriform_to_prelie_matches_expected(dend_pair):
    P = dendriform_to_prelie(dend_pair)
    assert P.products == examples.prelie_pair().products
    assert check_axioms(P).ok


def test_dendriform_to_assoc_sums_the_halves(dend_pair):
    A = dendriform_to_assoc(dend_pair)
    assert check_axioms(A).ok
    for i in range(2):
        for j in range(2):
            a, b = Vec.basis(2, i), Vec.basis(2, j)
            total = dend_pair.multiply("lt", a, b) + dend_pair.multiply("gt", a, b)
            assert A.multiply("mul", a, b).coords == total.coords


def test_commutator_lie_of_truncated_polynomials_is_abelian():
    L = commutator_lie(examples.truncated_polynomials())
    assert check_axioms(L).ok
    assert all(
        L.products["bracket"][k][i][j] == 0
        for k in range(3) for i in range(3) for j in range(3)
    )


def test_tensor_assoc_matches_expected(dend_pair, perm_pair):
    ta = tensor_assoc(dend_pair, perm_pair)
    assert ta.products == examples.expected_tensor_assoc().products
    assert check_axioms(ta).ok


def test_tensor_lie_matches_expected(dend_pair, perm_pair):
    tl = tensor_lie(dendriform_to_prelie(dend_pair), perm_pair)
    assert tl.products == examples.expected_tensor_lie().products
    assert check_axioms(tl).ok


def test_square_commutes_on_both_dendriform_algebras(perm_pair):
    for D in (examples.dendriform_pair(), examples.rota_baxter_dendriform()):
        rep = check_square(D, perm_pair)
        assert rep.ok, (D.dim, rep.first_violation)


def test_square_residual_names(dend_pair, perm_pair):
    rep = check_square(dend_pair, perm_pair)
    assert set(rep.residuals) == {
        "square_commutes", "prelie_axioms", "assoc_axioms", "tensor_lie_jacobi"
    }


def test_tensor_constructions_reject_wrong_kinds(dend_pair, perm_pair):
    with pytest.raises(ValueError):
        tensor_lie(dend_pair, perm_pair)
    with pytest.raises(ValueError):
        tensor_assoc(perm_pair, perm_pair)
