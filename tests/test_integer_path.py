"""Constructions and reports read straight from the kernel's integers.

A constructed structure (`algebras._structure`) nests its cubes from
`exact.contract_cells` and builds its tables from the same integers, and
`algebras.law_residuals` takes each law's first violation from them before
they are nested.  Here, on random cubes of every density, on perturbed
examples and after random changes of basis, every construction table is
checked against what the public constructors build from the structure's own
cubes, and every finite report against a scan of its nested residuals.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dendrikit import examples
from dendrikit.algebras import (
    KIND_BIMODULE_ACTIONS,
    KIND_OPS,
    REGULAR_BIMODULE,
    Bimodule,
    FinAlgebra,
    Residuals,
    check_axioms,
    check_bimodule,
    dendriform_from_rota_baxter,
    regular_bimodule,
)
from dendrikit.bialgebras import (
    BIALGEBRA_LAWS,
    COPRODUCT_CONSTRUCTIONS,
    DBI6_READINGS,
    KIND_COOPS,
    CoalgStruct,
    asi_to_lie_bialgebra,
    check_bialgebra,
    check_bialgebra_square,
    check_coalgebra,
    check_quadratic_perm_identities,
    dendriform_to_prelie_bialgebra,
    induce_asi_bialgebra,
    induce_lie_bialgebra,
    make_quadratic_perm,
)
from dendrikit.exact import (
    IntTable,
    LinMap,
    Tensor2,
    determinant,
    freeze_cube,
    mat_inverse,
    mat_mul,
)
from dendrikit.functors import (
    CONSTRUCTIONS,
    check_square,
    commutator_lie,
    dendriform_to_assoc,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_lie,
)
from dendrikit.ybe import (
    COBOUNDARY,
    COREGULAR_BIMODULE,
    check_ooperator,
    coboundary_coproduct,
    coregular_bimodule,
    invariance_residual,
    transfer_dybe_lift,
)

from conftest import (conjugate_algebra, conjugate_form, first_nonzero, int_matrix,
                      perturb_product)

DENSITIES = (0.0, 0.1, 0.3, 0.6, 1.0)

# A valid example of each kind, which a sample perturbs at one constant.
EXAMPLES = {
    "dendriform": examples.dendriform_pair,
    "prelie": examples.prelie_pair,
    "perm": examples.perm_pair,
    "assoc": examples.truncated_polynomials,
    "lie": lambda: commutator_lie(examples.truncated_polynomials()),
}
COALGEBRA_EXAMPLES = {
    "dendriform": examples.dendriform_pair_coalgebra,
    "prelie": examples.prelie_pair_coalgebra,
}


def _scalar(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _matrix(rng, rows, cols, density):
    return [[_scalar(rng, density) for _ in range(cols)] for _ in range(rows)]


def _cube(rng, n, density):
    return [_matrix(rng, n, n, density) for _ in range(n)]


def _invertible(rng, n):
    while True:
        S = int_matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if determinant(S) != 0:
            return S


class Sample:
    """Inputs drawn from one seeded generator: either random cubes of one
    dimension and density, or each kind's example with one constant
    shifted, in a random basis."""

    def __init__(self, rng: random.Random, n: int, density: float, perturbed: bool):
        self.rng, self.n, self.density, self.perturbed = rng, n, density, perturbed

    def algebra(self, kind: str) -> FinAlgebra:
        rng = self.rng
        if not self.perturbed:
            return FinAlgebra(kind, self.n, {
                op: _cube(rng, self.n, self.density) for op in KIND_OPS[kind]})
        alg = EXAMPLES[kind]()
        n = alg.dim
        alg = perturb_product(alg, rng.choice(KIND_OPS[kind]), rng.randrange(n),
                              rng.randrange(n), rng.randrange(n),
                              Fraction(rng.choice((1, -1, 2)), rng.randint(1, 3)))
        return conjugate_algebra(alg, _invertible(rng, n))

    def coalgebra(self, kind: str, n: int) -> CoalgStruct:
        example = COALGEBRA_EXAMPLES.get(kind)
        if self.perturbed and example is not None and example().dim == n:
            cubes = {name: [[list(row) for row in plane] for plane in cube]
                     for name, cube in example().coproducts.items()}
            name = self.rng.choice(KIND_COOPS[kind])
            cubes[name][self.rng.randrange(n)][self.rng.randrange(n)][
                self.rng.randrange(n)] += self.rng.choice((1, -1, Fraction(1, 2)))
            return CoalgStruct(kind, n, cubes)
        return CoalgStruct(kind, n, {
            name: _cube(self.rng, n, max(self.density, 0.3)) for name in KIND_COOPS[kind]})

    def tensor(self, n: int) -> Tensor2:
        return Tensor2(_matrix(self.rng, n, n, max(self.density, 0.3)))

    def quadratic_perm(self):
        src = examples.perm_pair_quadratic()
        S = _invertible(self.rng, src.algebra.dim)
        return make_quadratic_perm(conjugate_algebra(src.algebra, S),
                                   conjugate_form(src.form, S))


@st.composite
def samples(draw):
    # a seed, not st.randoms(): a sample draws hundreds of constants
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return Sample(rng, draw(st.integers(1, 3)), draw(st.sampled_from(DENSITIES)),
                  draw(st.booleans()))


def constructed(s: Sample):
    """(table, name) and the structure built by that construction, for
    every construction on the integer path."""
    D, A, P = s.algebra("dendriform"), s.algebra("assoc"), s.algebra("prelie")
    L, perm, qp = s.algebra("lie"), s.algebra("perm"), s.quadratic_perm()
    theta = s.coalgebra("dendriform", D.dim)
    yield ("CONSTRUCTIONS", "dendriform_to_prelie"), dendriform_to_prelie(D)
    yield ("CONSTRUCTIONS", "dendriform_to_assoc"), dendriform_to_assoc(D)
    yield ("CONSTRUCTIONS", "commutator_lie"), commutator_lie(A)
    yield ("CONSTRUCTIONS", "commutator_lie"), commutator_lie(P)
    yield ("CONSTRUCTIONS", "tensor_lie"), tensor_lie(P, perm)
    yield ("CONSTRUCTIONS", "tensor_assoc"), tensor_assoc(D, perm)
    yield ("COPRODUCT_CONSTRUCTIONS", "induce_asi"), induce_asi_bialgebra(D, theta, qp)[1]
    yield ("COPRODUCT_CONSTRUCTIONS", "induce_lie"), induce_lie_bialgebra(
        P, s.coalgebra("prelie", P.dim), qp)[1]
    yield ("COPRODUCT_CONSTRUCTIONS", "asi_to_lie"), asi_to_lie_bialgebra(
        A, s.coalgebra("assoc", A.dim))[1]
    yield ("COPRODUCT_CONSTRUCTIONS", "dendriform_to_prelie"), dendriform_to_prelie_bialgebra(
        D, theta)[1]
    for kind, alg in (("lie", L), ("prelie", P), ("assoc", A), ("dendriform", D)):
        yield ("COBOUNDARY", kind), coboundary_coproduct(alg, s.tensor(alg.dim))
        yield ("REGULAR_BIMODULE", kind), regular_bimodule(alg)
        yield ("COREGULAR_BIMODULE", kind), coregular_bimodule(alg)
    yield ("NU_COPRODUCT", "co"), qp.nu
    # an endomorphism R is transported as S⁻¹·R·S
    trunc, R = examples.truncated_polynomials(), examples.integration_operator()
    S = _invertible(s.rng, trunc.dim)
    yield ("ROTA_BAXTER_SPLIT", "split"), dendriform_from_rota_baxter(
        conjugate_algebra(trunc, S), LinMap(mat_mul(mat_mul(mat_inverse(S), R.matrix), S)))


def _same_as_public(x):
    """``x`` equals what its public constructor builds from its own cubes,
    with the same repr, and each table has the scale and entries that
    `IntTable` reads from the cube."""
    if isinstance(x, Bimodule):
        cubes, public = x.actions, Bimodule(x.algebra, x.dim, x.actions)
    else:
        cubes = x.products if isinstance(x, FinAlgebra) else x.coproducts
        public = type(x)(x.kind, x.dim, cubes)
    assert x == public and repr(x) == repr(public)
    assert set(x.tables) == set(cubes)
    for name, cube in cubes.items():
        assert freeze_cube(cube) == cube
        assert all(type(c) is Fraction for plane in cube for row in plane for c in row)
        table, read = x.tables[name], IntTable(cube)
        assert (table.scale, table.entries) == (read.scale, read.entries)
        assert (table.scale, table.entries) == (public.tables[name].scale,
                                                public.tables[name].entries)


@settings(max_examples=40, deadline=None)
@given(samples())
def test_constructed_tables_are_the_tables_of_their_cubes(s):
    for _name, structure in constructed(s):
        _same_as_public(structure)


def test_every_construction_table_is_covered():
    names = {key for key, _x in constructed(Sample(random.Random(0), 2, 0.3, False))}
    assert {("CONSTRUCTIONS", k) for k in CONSTRUCTIONS} <= names
    assert {("COPRODUCT_CONSTRUCTIONS", k) for k in COPRODUCT_CONSTRUCTIONS} <= names
    assert {("COBOUNDARY", k) for k in COBOUNDARY} <= names
    assert {("REGULAR_BIMODULE", k) for k in REGULAR_BIMODULE} <= names
    assert {("COREGULAR_BIMODULE", k) for k in COREGULAR_BIMODULE} <= names


def _scanned_first(residuals: dict):
    """The first violation by a scan of the nested residuals, law by law in
    order."""
    for name, res in residuals.items():
        hit = first_nonzero(res)
        if hit is not None:
            return (name, *hit)
    return None


def reports(s: Sample):
    """Every finite check on the sample."""
    algs = {kind: s.algebra(kind) for kind in KIND_OPS}
    for alg in algs.values():
        yield check_axioms(alg)
    for kind in KIND_BIMODULE_ACTIONS:
        alg = algs[kind]
        m = s.rng.randint(1, 3)
        bim = Bimodule(alg, m, {name: [_matrix(s.rng, m, m, max(s.density, 0.3))
                                       for _ in range(alg.dim)]
                                for name in KIND_BIMODULE_ACTIONS[kind]})
        yield check_bimodule(bim)
        P = LinMap(_matrix(s.rng, alg.dim, m, max(s.density, 0.3)))
        yield check_ooperator(bim, P)
        yield check_ooperator(coregular_bimodule(alg), LinMap(s.tensor(alg.dim).coeffs))
    for kind, alg in algs.items():
        coalg = s.coalgebra(kind, alg.dim)
        yield check_coalgebra(coalg)
        if kind in BIALGEBRA_LAWS:
            for reading in DBI6_READINGS:
                yield check_bialgebra(alg, coalg, reading)
        if kind in ("lie", "prelie", "assoc"):
            yield invariance_residual(alg, s.tensor(alg.dim))
    qp = s.quadratic_perm()
    yield check_quadratic_perm_identities(qp)
    D = algs["dendriform"]
    yield check_square(D, algs["perm"])
    yield check_bialgebra_square(D, s.coalgebra("dendriform", D.dim), qp)
    # a transfer theorem mixes a Yang-Baxter residual in
    r = examples.r_family(s.rng.randint(-2, 2), 1)
    yield transfer_dybe_lift(examples.dendriform_pair(), r, qp)


@settings(max_examples=30, deadline=None)
@given(samples())
def test_report_violations_match_a_scan_of_the_nested_residuals(s):
    for rep in reports(s):
        assert isinstance(rep.residuals, Residuals), rep.subject
        assert rep.violations == {name: first_nonzero(res)
                                  for name, res in rep.residuals.items()}
        assert rep.first_violation == _scanned_first(rep.residuals)
        assert rep.ok == (rep.first_violation is None)


def test_the_square_reports_a_sub_check_violation():
    """A dendriform algebra that breaks its own laws makes the square fail in
    the sub-checks it mixes in, found without a scan."""
    bad = perturb_product(examples.dendriform_pair(), "gt", 1, 1, 1, 1)
    rep = check_square(bad, examples.perm_pair())
    assert isinstance(rep.residuals, Residuals)
    assert not rep.ok
    assert rep.first_violation == _scanned_first(rep.residuals)
    assert rep.violations["prelie_axioms"] is not None or rep.violations[
        "assoc_axioms"] is not None
