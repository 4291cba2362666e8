"""Algebra axiom checkers, bimodules and the Rota-Baxter splitting.

The regular and coregular bimodules are built from construction tables; here
their action matrices are compared with the index formulas written out, on
random algebras that break their laws, where a swapped or mis-signed action
cannot hide behind a law that holds.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrikit import examples
from dendrikit.algebras import (
    KIND_OPS,
    Bimodule,
    FinAlgebra,
    check_axioms,
    check_bimodule,
    dendriform_from_rota_baxter,
    regular_bimodule,
    rota_baxter_residual,
)
from dendrikit.exact import IntTable, LinMap, Vec
from dendrikit.functors import commutator_lie, dendriform_to_prelie
from dendrikit.ybe import coregular_bimodule

from conftest import conjugate_algebra, int_matrix


ALL_EXAMPLE_ALGEBRAS = [
    examples.dendriform_pair(),
    examples.perm_pair(),
    examples.prelie_pair(),
    examples.truncated_polynomials(),
    examples.rota_baxter_dendriform(),
]


@pytest.mark.parametrize("alg", ALL_EXAMPLE_ALGEBRAS, ids=lambda a: a.kind)
def test_example_algebras_satisfy_axioms(alg):
    rep = check_axioms(alg)
    assert rep.ok, rep.first_violation


def test_broken_jacobi_reports_first_violation():
    cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][1] = Fraction(1)
    cube[0][1][0] = Fraction(-1)
    cube[1][0][1] = Fraction(1)  # breaks antisymmetry/jacobi
    bad = FinAlgebra("lie", 2, {"bracket": cube})
    rep = check_axioms(bad)
    assert not rep.ok
    name, path, value = rep.first_violation
    assert value != 0


def test_axiom_failure_value_is_exact():
    cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][0] = Fraction(1, 3)
    bad = FinAlgebra("assoc", 2, {"mul": cube})
    rep = check_axioms(bad)
    # x² = x/3 with x²·x ≠ x·x² never happens for 1-dim images; this algebra
    # is actually associative, so perturb to break it
    cube[1][1][1] = Fraction(1)
    cube[0][1][1] = Fraction(1)
    bad = FinAlgebra("assoc", 2, {"mul": cube})
    rep = check_axioms(bad)
    if not rep.ok:
        assert isinstance(rep.first_violation[2], Fraction)


@pytest.mark.parametrize(
    "alg",
    [examples.dendriform_pair(), examples.prelie_pair(),
     examples.truncated_polynomials(), examples.rota_baxter_dendriform()],
    ids=lambda a: a.kind,
)
def test_regular_bimodule_satisfies_axioms(alg):
    rep = check_bimodule(regular_bimodule(alg))
    assert rep.ok, rep.first_violation


@pytest.mark.parametrize(
    "alg",
    [
        examples.dendriform_pair(),
        examples.rota_baxter_dendriform(),
        examples.prelie_pair(),
        examples.truncated_polynomials(),
        commutator_lie(examples.truncated_polynomials()),
        dendriform_to_prelie(examples.rota_baxter_dendriform()),
    ],
    ids=lambda a: f"{a.kind}{a.dim}",
)
def test_coregular_bimodule_satisfies_axioms(alg):
    rep = check_bimodule(coregular_bimodule(alg))
    assert rep.ok, rep.first_violation


# The action matrices written out index by index, as functions of the product
# cubes c and of (i, p, q): entry (p, q) of the matrix of bᵢ.
def _l(op):
    """𝔩(bᵢ)[p][q] = c[p][i][q], the matrix of v ↦ bᵢ·v."""
    return lambda c, i, p, q: c[op][p][i][q]


def _r(op):
    """𝔯(bᵢ)[p][q] = c[p][q][i], the matrix of v ↦ v·bᵢ."""
    return lambda c, i, p, q: c[op][p][q][i]


def _dual(*signed):
    """The action on the dual space of a signed sum of actions: its transpose."""
    return lambda c, i, p, q: sum(sign * f(c, i, q, p) for sign, f in signed)


REGULAR_FORMULAS = {
    "dendriform": {"l_lt": _l("lt"), "r_lt": _r("lt"), "l_gt": _l("gt"), "r_gt": _r("gt")},
    "prelie": {"l": _l("mul"), "r": _r("mul")},
    "assoc": {"l": _l("mul"), "r": _r("mul")},
    "lie": {"rho": _l("bracket")},
}
COREGULAR_FORMULAS = {
    # (D*, −𝔯*_≻, 𝔩*_≺+𝔩*_≻, 𝔯*_≺+𝔯*_≻, −𝔩*_≺)
    "dendriform": {
        "l_lt": _dual((-1, _r("gt"))),
        "r_lt": _dual((1, _l("lt")), (1, _l("gt"))),
        "l_gt": _dual((1, _r("lt")), (1, _r("gt"))),
        "r_gt": _dual((-1, _l("lt"))),
    },
    # (A*, 𝔯*−𝔩*, 𝔯*)
    "prelie": {"l": _dual((1, _r("mul")), (-1, _l("mul"))), "r": _dual((1, _r("mul")))},
    # (A*, 𝔯*, 𝔩*)
    "assoc": {"l": _dual((1, _r("mul"))), "r": _dual((1, _l("mul")))},
    # (𝔤*, −ad*)
    "lie": {"rho": _dual((-1, _l("bracket")))},
}


def _random_algebra(rng, kind, n, density):
    """Random rational constants: the algebra almost never satisfies its laws."""
    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else 0
    return FinAlgebra(kind, n, {op: [[[scalar() for _ in range(n)] for _ in range(n)]
                                     for _ in range(n)] for op in KIND_OPS[kind]})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(sorted(REGULAR_FORMULAS)), st.integers(1, 3),
       st.sampled_from((0.0, 0.3, 1.0)))
def test_bimodule_actions_match_their_index_formulas(seed, kind, n, density):
    alg = _random_algebra(random.Random(seed), kind, n, density)
    c = alg.products
    for build, formulas in ((regular_bimodule, REGULAR_FORMULAS),
                            (coregular_bimodule, COREGULAR_FORMULAS)):
        bim = build(alg)
        want = {name: tuple(tuple(tuple(Fraction(f(c, i, p, q)) for q in range(n))
                                  for p in range(n)) for i in range(n))
                for name, f in formulas[kind].items()}
        assert bim.algebra is alg and bim.dim == n
        assert bim.actions == want, build.__name__
        assert all(type(x) is Fraction for mats in bim.actions.values()
                   for m in mats for row in m for x in row)
        public = Bimodule(alg, n, want)
        assert bim == public and repr(bim) == repr(public)
        for name, table in bim.tables.items():
            read = IntTable(want[name])
            assert (table.scale, table.entries) == (read.scale, read.entries), name


@pytest.mark.parametrize("build,name", [(regular_bimodule, "regular"),
                                        (coregular_bimodule, "coregular")])
def test_a_perm_algebra_has_no_bimodule(build, name):
    with pytest.raises(ValueError, match=f"^no {name} bimodule for kind 'perm'$"):
        build(examples.perm_pair())


def test_rota_baxter_splitting_is_dendriform():
    split = dendriform_from_rota_baxter(
        examples.truncated_polynomials(), examples.integration_operator()
    )
    assert split.kind == "dendriform"
    assert check_axioms(split).ok
    # defining property: a≺b = a·R(b) and a≻b = R(a)·b
    A = examples.truncated_polynomials()
    R = examples.integration_operator()
    for i in range(3):
        for j in range(3):
            a, b = Vec.basis(3, i), Vec.basis(3, j)
            lt = split.multiply("lt", a, b)
            gt = split.multiply("gt", a, b)
            assert lt.coords == A.multiply("mul", a, R.apply(b)).coords
            assert gt.coords == A.multiply("mul", R.apply(a), b).coords
            # R intertwines the summed product with the original one
            total = R.apply(lt + gt)
            assert total.coords == A.multiply(
                "mul", R.apply(a), R.apply(b)
            ).coords


def test_rota_baxter_rejects_non_rb_operator():
    from dendrikit.exact import identity_matrix

    with pytest.raises(ValueError, match="Rota-Baxter"):
        dendriform_from_rota_baxter(
            examples.truncated_polynomials(), LinMap(identity_matrix(3))
        )


def _dense_rota_baxter_residual(A, R):
    """R(a)R(b) − R(R(a)b + aR(b)) on basis pairs, nested [i][j][k], by dense sums."""
    n, c, M = A.dim, A.products["mul"], R.matrix

    def mul(x, y):
        return [sum((x[i] * y[j] * c[k][i][j] for i in range(n) for j in range(n)),
                    Fraction(0)) for k in range(n)]

    def op(x):
        return [sum((M[k][i] * x[i] for i in range(n)), Fraction(0)) for k in range(n)]

    def basis(i):
        return [Fraction(int(k == i)) for k in range(n)]

    def residual(a, b):
        rhs = op([x + y for x, y in zip(mul(op(a), b), mul(a, op(b)))])
        return tuple(x - y for x, y in zip(mul(op(a), op(b)), rhs))

    return tuple(tuple(residual(basis(i), basis(j)) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("site", [None] + [(p, q) for p in range(3) for q in range(3)])
def test_rota_baxter_residual_and_failure_witness(site):
    """The integration operator, clean and with each entry shifted by 2/3."""
    A = examples.truncated_polynomials()
    M = [list(row) for row in examples.integration_operator().matrix]
    if site is not None:
        M[site[0]][site[1]] += Fraction(2, 3)
    R = LinMap(M)
    dense = _dense_rota_baxter_residual(A, R)
    rep = rota_baxter_residual(A, R)
    assert rep.residuals["rota_baxter"] == dense
    assert rep.ok == (not any(x for plane in dense for row in plane for x in row))
    fails = [(i, j) for i in range(3) for j in range(3) if any(dense[i][j])]
    if not fails:
        assert check_axioms(dendriform_from_rota_baxter(A, R)).ok
        return
    i, j = fails[0]
    with pytest.raises(ValueError, match=fr"fails on basis pair \({i}, {j}\)$"):
        dendriform_from_rota_baxter(A, R)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 4)])
def test_misshaped_rota_baxter_operator_is_rejected(shape):
    R = LinMap([[Fraction(1)] * shape[1] for _ in range(shape[0])])
    with pytest.raises(ValueError, match=f"operator must be 3x3, got {shape[0]}x{shape[1]}"):
        dendriform_from_rota_baxter(examples.truncated_polynomials(), R)
    with pytest.raises(ValueError, match="operator must be 3x3"):
        rota_baxter_residual(examples.truncated_polynomials(), R)


def test_conjugated_algebras_keep_axioms():
    S = int_matrix([[1, 1], [0, 1]])
    for alg in (examples.dendriform_pair(), examples.prelie_pair(), examples.perm_pair()):
        rep = check_axioms(conjugate_algebra(alg, S))
        assert rep.ok, (alg.kind, rep.first_violation)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FinAlgebra("banana", 1, {"mul": [[[Fraction(0)]]]})
