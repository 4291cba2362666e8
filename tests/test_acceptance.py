"""Acceptance gate: worked-example replays, theorem-as-test suites, windows.

Every comparison is exact rational arithmetic; every tolerance is literally
zero.  Each test also enforces its runtime budget.
"""

import random
import time
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from dendrikit import examples
from dendrikit.affinization import (
    Mono,
    Window,
    check_affine_associativity,
    check_completed_asi,
    check_completed_coassociativity,
)
from dendrikit.algebras import check_axioms, dendriform_from_rota_baxter
from dendrikit.bialgebras import (
    check_bialgebra,
    check_coalgebra,
    check_quadratic_perm_identities,
    dendriform_to_prelie_bialgebra,
    induce_asi_bialgebra,
    induce_lie_bialgebra,
    make_quadratic_perm,
)
from dendrikit.cli import main
from dendrikit.exact import ONE, ZERO, Tensor2, Vec, sharp
from dendrikit.functors import (
    commutator_lie,
    dendriform_to_assoc,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_lie,
)
from dendrikit.io import parse_algebra
from dendrikit.ybe import (
    HypothesisError,
    check_ooperator,
    coboundary_coproduct,
    coregular_bimodule,
    lift_r,
    transfer_aybe_to_cybe,
    transfer_dybe_to_plybe,
    transfer_plybe_lift,
    ybe_residual,
)

from conftest import (
    ASSOC_LOCALIZATION,
    ASSOC_LOCALIZATION_TARGET,
    LOCALIZATION_SIGN,
    affine_associator,
    conjugate_algebra,
    conjugate_form,
    conjugate_tensor,
    int_matrix,
    perturb_coproduct,
    perturb_product,
)

CORPUS = Path(str(files("dendrikit") / "corpus"))


def _reproduce(example_id: str, budget: float):
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["reproduce", example_id])
    elapsed = time.perf_counter() - start
    assert res.exit_code == 0, res.output
    assert "status: pass" in res.output
    assert elapsed < budget, f"{example_id} took {elapsed:.2f}s (budget {budget}s)"
    return res.output


def test_criterion_1_tensor_constructions():
    out = _reproduce("ex-2.13", 1.0)
    assert "lie_products" in out or "pass" in out


def test_criterion_2_induced_lie_bialgebra():
    _reproduce("ex-3.13", 1.0)


def test_criterion_3_induced_asi_bialgebra():
    _reproduce("ex-4.27", 1.0)


def test_criterion_4_commuting_cube():
    _reproduce("ex-5.13", 2.0)


def test_criterion_5_property_corpus():
    """Theorem-as-test over ≥20 verified algebras and ≥10 solutions."""
    start = time.perf_counter()
    rng = random.Random(20260824)
    bases = [
        int_matrix([[1, 0], [0, 1]]),
        int_matrix([[1, 1], [0, 1]]),
        int_matrix([[1, 2], [1, 1]]),
    ]
    bases3 = [
        int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        int_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
        int_matrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
    ]
    seeds = (
        examples.dendriform_pair(),
        examples.prelie_pair(),
        examples.perm_pair(),
        examples.truncated_polynomials(),
        examples.rota_baxter_dendriform(),
        commutator_lie(examples.truncated_polynomials()),
        dendriform_to_prelie(examples.rota_baxter_dendriform()),
    )
    algebras = []
    for alg in seeds:
        for S in (bases if alg.dim == 2 else bases3):
            conj = conjugate_algebra(alg, S)
            assert check_axioms(conj).ok
            algebras.append(conj)
    assert len(algebras) >= 20

    D = examples.dendriform_pair()
    P = dendriform_to_prelie(D)
    B = examples.perm_pair_quadratic()
    assoc = tensor_assoc(D, B.algebra)
    lie = tensor_lie(P, B.algebra)

    solutions = []
    for r in (examples.r_corner(1), examples.r_corner(Fraction(5, 3)),
              examples.r_family(1, 1), examples.r_family(0, 1),
              examples.r_family(2, -3)):
        for S in bases:
            D2 = conjugate_algebra(D, S)
            r2 = conjugate_tensor(r, S)
            assert ybe_residual(D2, r2).is_zero()
            solutions.append((D2, r2))
            # (a) symmetric solutions transfer to the pre-Lie equation
            assert transfer_dybe_to_plybe(D2, r2).ok
    assert len(solutions) >= 10

    # (b)+(c) lifts are skew solutions of the Lie/assoc equations with
    # ad-invariant symmetric part, and transfer accordingly
    for r in (examples.r_corner(), examples.r_family(1, 1),
              examples.r_family(0, 1)):
        rhat = lift_r(r, B)
        assert ybe_residual(assoc, rhat).is_zero()
        assert ybe_residual(lie, rhat).is_zero()
        assert transfer_aybe_to_cybe(assoc, rhat).ok
        assert transfer_plybe_lift(P, r, B).ok

    # fail branches: non-solutions have provably nonzero residuals and the
    # transfer hypotheses reject them
    bad = examples.r_nonsolution()
    assert not ybe_residual(D, bad).is_zero()
    from dendrikit.ybe import transfer_dybe_lift

    with pytest.raises(HypothesisError):
        transfer_dybe_lift(D, bad, B)
    skew = Tensor2(((ZERO, ONE), (-ONE, ZERO)))
    with pytest.raises(HypothesisError):
        transfer_dybe_to_plybe(D, skew)

    # (d) all four O-operator ⇔ YBE equivalences, both directions.
    # Dendriform and pre-Lie: exhaustive over symmetric integer tensors.
    vals = (Fraction(-1), ZERO, ONE)
    seen = {("dendriform", True): 0, ("dendriform", False): 0,
            ("prelie", True): 0, ("prelie", False): 0}
    for a in vals:
        for b in vals:
            for c in vals:
                r = Tensor2(((a, b), (b, c)))
                for alg in (D, P):
                    solves = ybe_residual(alg, r).is_zero()
                    oop = check_ooperator(
                        coregular_bimodule(alg), sharp(r)
                    ).ok
                    assert solves == oop
                    seen[(alg.kind, solves)] += 1
    assert all(count > 0 for count in seen.values())

    # Associative and Lie: random skew tensors on the 4-dim algebras.
    seen4 = {("assoc", True): 0, ("assoc", False): 0,
             ("lie", True): 0, ("lie", False): 0}
    skews = [lift_r(examples.r_corner(), B)]
    for _ in range(30):
        m = [[ZERO] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = Fraction(rng.randint(-1, 1))
                m[i][j], m[j][i] = v, -v
        skews.append(Tensor2(tuple(tuple(row) for row in m)))
    for r in skews:
        for alg in (assoc, lie):
            solves = ybe_residual(alg, r).is_zero()
            oop = check_ooperator(coregular_bimodule(alg), sharp(r)).ok
            assert solves == oop
            seen4[(alg.kind, solves)] += 1
    assert all(count > 0 for count in seen4.values())

    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"property corpus took {elapsed:.2f}s"


def test_criterion_6_affinization_window():
    start = time.perf_counter()
    w = Window(2)
    D = examples.dendriform_pair()
    theta = examples.dendriform_pair_coalgebra()

    assert check_affine_associativity(D, w).ok
    assert check_completed_coassociativity(D, theta, w).ok
    assert check_completed_asi(D, theta, w).ok

    # every single product perturbation breaks affine associativity exactly
    # when it breaks a finite axiom
    for op in ("lt", "gt"):
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    bad = perturb_product(D, op, k, i, j, 1)
                    assert check_axioms(bad).ok == \
                        check_affine_associativity(bad, w).ok

    # the failing coefficient sits exactly where the proof localizes it
    for op, k, i, j in (("lt", 0, 0, 0), ("gt", 1, 1, 1)):
        bad = perturb_product(D, op, k, i, j, 1)
        finite = check_axioms(bad)
        for pattern, axiom in ASSOC_LOCALIZATION.items():
            sign = LOCALIZATION_SIGN[pattern]
            for d1 in range(2):
                for d2 in range(2):
                    for d3 in range(2):
                        sources = tuple(
                            (d, Mono(0, 0, s))
                            for d, s in zip((d1, d2, d3), pattern)
                        )
                        diff = affine_associator(bad, *sources)
                        for kk in range(2):
                            got = diff.get((kk, ASSOC_LOCALIZATION_TARGET), ZERO)
                            assert got == sign * finite.residuals[axiom][d1][d2][d3][kk]

    # single coproduct perturbations break the completed checks at
    # derivation-indexed coefficients, in step with the finite checks
    for name, i, j, k in (("co_lt", 0, 1, 1), ("co_gt", 1, 0, 0),
                          ("co_lt", 1, 1, 1), ("co_gt", 0, 0, 1)):
        bad = perturb_coproduct(theta, name, i, j, k, 1)
        finite_co = check_coalgebra(bad).ok
        rep_co = check_completed_coassociativity(D, bad, w)
        assert rep_co.ok == finite_co
        finite_bi = finite_co and check_bialgebra(D, bad).ok
        rep_asi = check_completed_asi(D, bad, w)
        assert rep_asi.ok == finite_bi
        if not rep_asi.ok:
            label, source, (key, value) = rep_asi.failures[0]
            assert label in {"casi1", "casi2", "coassoc"}
            assert value != 0
            assert all(isinstance(slot[1], Mono) for slot in key)

    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"affinization checks took {elapsed:.2f}s"


def test_criterion_7_structural_invariants():
    """Every constructor output passes its kind's checker; dual-basis laws."""
    D = examples.dendriform_pair()
    theta = examples.dendriform_pair_coalgebra()
    qp = examples.perm_pair_quadratic()
    r = examples.r_corner()

    P = dendriform_to_prelie(D)
    A = dendriform_to_assoc(D)
    L = commutator_lie(A)
    split = dendriform_from_rota_baxter(
        examples.truncated_polynomials(), examples.integration_operator()
    )
    ta = tensor_assoc(D, qp.algebra)
    tl = tensor_lie(P, qp.algebra)
    for alg in (P, A, L, split, ta, tl):
        assert check_axioms(alg).ok, alg.kind

    nu = qp.nu
    cob = coboundary_coproduct(D, r)
    Pb, Ptheta = dendriform_to_prelie_bialgebra(D, theta)
    lie, cobr = induce_lie_bialgebra(Pb, Ptheta, qp)
    assoc4, delta = induce_asi_bialgebra(D, theta, qp)
    for co in (nu, cob, Ptheta, cobr, delta):
        assert check_coalgebra(co).ok, co.kind
    assert check_bialgebra(Pb, Ptheta).ok
    assert check_bialgebra(lie, cobr).ok
    assert check_bialgebra(assoc4, delta).ok

    # dual-basis identities for every quadratic perm algebra in the corpus
    qperms = [qp]
    for path in sorted(CORPUS.glob("*.json")):
        pf = parse_algebra(path)
        if pf.qperm is not None:
            qperms.append(pf.qperm)
    assert len(qperms) >= 2
    for q in qperms:
        n = q.algebra.dim
        fs = [Vec(column) for column in zip(*q.dual.matrix)]  # column j is fⱼ
        for i in range(n):
            for j in range(n):
                expected = ONE if i == j else ZERO
                assert q.form.pair(Vec.basis(n, i), fs[j]) == expected
        assert check_quadratic_perm_identities(q).ok
        # the identities also survive a change of basis
        S = int_matrix([[1, 1], [0, 1]]) if n == 2 else None
        if S is not None:
            q2 = make_quadratic_perm(
                conjugate_algebra(q.algebra, S), conjugate_form(q.form, S)
            )
            assert check_quadratic_perm_identities(q2).ok
