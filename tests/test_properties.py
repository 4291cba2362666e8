"""Randomized property tests: laws survive arbitrary changes of basis."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dendrikit import examples
from dendrikit.algebras import check_axioms
from dendrikit.bialgebras import (
    check_coalgebra,
    check_quadratic_perm_identities,
    make_quadratic_perm,
)
from dendrikit.exact import Tensor2, determinant, sharp
from dendrikit.functors import commutator_lie, dendriform_to_prelie
from dendrikit.ybe import (
    check_ooperator,
    coboundary_coproduct,
    coregular_bimodule,
    transfer_dybe_lift,
    transfer_dybe_to_plybe,
    ybe_residual,
)

from conftest import (
    conjugate_algebra,
    conjugate_form,
    conjugate_tensor,
    int_matrix,
)

SEED_ALGEBRAS = (
    examples.dendriform_pair(),
    examples.prelie_pair(),
    examples.perm_pair(),
    examples.truncated_polynomials(),
    examples.rota_baxter_dendriform(),
    commutator_lie(examples.truncated_polynomials()),
    dendriform_to_prelie(examples.rota_baxter_dendriform()),
)

SOLUTION_TENSORS = (
    examples.r_corner(1),
    examples.r_corner(Fraction(5, 3)),
    examples.r_family(1, 1),
    examples.r_family(0, 1),
    examples.r_family(2, -3),
)

_entry = st.integers(min_value=-2, max_value=2)


def _invertible(dim):
    def build(entries):
        S = int_matrix([entries[i * dim:(i + 1) * dim] for i in range(dim)])
        return S

    return st.lists(_entry, min_size=dim * dim, max_size=dim * dim).map(build)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, len(SEED_ALGEBRAS) - 1))
def test_axioms_survive_basis_change(data, seed):
    alg = SEED_ALGEBRAS[seed]
    S = data.draw(_invertible(alg.dim))
    assume(determinant(S) != 0)
    assert check_axioms(conjugate_algebra(alg, S)).ok


@settings(max_examples=25, deadline=None)
@given(data=st.data(), which=st.integers(0, len(SOLUTION_TENSORS) - 1))
def test_ybe_solutions_survive_basis_change(data, which):
    S = data.draw(_invertible(2))
    assume(determinant(S) != 0)
    D = conjugate_algebra(examples.dendriform_pair(), S)
    r = conjugate_tensor(SOLUTION_TENSORS[which], S)
    assert ybe_residual(D, r).is_zero()
    # the coboundary coproduct of a solution is always a coalgebra
    assert check_coalgebra(coboundary_coproduct(D, r)).ok


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_nonsolution_residual_survives_basis_change(data):
    S = data.draw(_invertible(2))
    assume(determinant(S) != 0)
    D = conjugate_algebra(examples.dendriform_pair(), S)
    r = conjugate_tensor(examples.r_nonsolution(), S)
    assert not ybe_residual(D, r).is_zero()


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_quadratic_identities_survive_basis_change(data):
    S = data.draw(_invertible(2))
    assume(determinant(S) != 0)
    src = examples.perm_pair_quadratic()
    qp = make_quadratic_perm(
        conjugate_algebra(src.algebra, S), conjugate_form(src.form, S)
    )
    assert check_quadratic_perm_identities(qp).ok


@settings(max_examples=15, deadline=None)
@given(data=st.data(), which=st.integers(0, len(SOLUTION_TENSORS) - 1))
def test_transfer_theorems_on_random_inputs(data, which):
    S = data.draw(_invertible(2))
    assume(determinant(S) != 0)
    D = conjugate_algebra(examples.dendriform_pair(), S)
    r = conjugate_tensor(SOLUTION_TENSORS[which], S)
    assert transfer_dybe_to_plybe(D, r).ok
    assert transfer_dybe_lift(D, r, examples.perm_pair_quadratic()).ok


@settings(max_examples=40, deadline=None)
@given(a=st.fractions(min_value=-2, max_value=2, max_denominator=2),
       b=st.fractions(min_value=-2, max_value=2, max_denominator=2),
       c=st.fractions(min_value=-2, max_value=2, max_denominator=2))
def test_ooperator_equivalence_on_random_symmetric_tensors(a, b, c):
    """For symmetric r: solving the equation ⇔ r♯ is an O-operator.

    Holds in both the dendriform and pre-Lie settings, and both for
    solutions and non-solutions.
    """
    r = Tensor2(((a, b), (b, c)))
    D = examples.dendriform_pair()
    P = dendriform_to_prelie(D)
    for alg in (D, P):
        solves = ybe_residual(alg, r).is_zero()
        oop = check_ooperator(coregular_bimodule(alg), sharp(r)).ok
        assert solves == oop


def test_random_suites_cover_enough_ground():
    # the deterministic seed lists themselves already span the required
    # variety: seven verified algebras in dims 2-3 and five solutions
    assert len(SEED_ALGEBRAS) >= 7
    assert {alg.kind for alg in SEED_ALGEBRAS} == {
        "dendriform", "prelie", "perm", "assoc", "lie"
    }
    assert len(SOLUTION_TENSORS) >= 5
