"""The sparse contraction kernel against the dense textbook formulas.

Every structure reads its cubes as `exact.IntTable`s built once in its
constructor; single products, `mat_mul`, `LinMap.apply`, actions, coproducts and
whole laws are evaluated by `exact.contract`, which sums integer-scaled
tables; the multiplication matrices of the regular and coregular bimodules
are constructions over the product cubes; and the Yang-Baxter residual sums
scaled integers.  Here each one is compared, exactly, with the dense sum
written out inline, on random rational constants of every density from
all-zero to full, in dimensions 1 to 4, and after a random change of basis.
Every coordinate returned must be a `Fraction`, never a bare int, since
reports render Fractions.  `contract` is also compared with a sum over every
assignment of values to the labels of random term tables, and its plan cache
is checked to be keyed on the law and the extents only.  Laws of four output
labels on dense tables take the packed path, whose nonzero cells, first
violation and Fractions must equal the plain path's, at the width bound too.
"""

import random
from fractions import Fraction
from itertools import product
from math import ceil, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrikit import examples
from dendrikit.algebras import (
    AXIOMS,
    KIND_OPS,
    Bimodule,
    FinAlgebra,
    Residuals,
    regular_bimodule,
)
from dendrikit.bialgebras import BIALGEBRA_LAWS, CoalgStruct, check_bialgebra
from dendrikit.exact import (
    MIN_FILL_PERCENT,
    ZERO,
    IntTable,
    LinMap,
    PackedCells,
    Tensor2,
    Vec,
    _compile,
    contract,
    contract_cells,
    determinant,
    fractions,
    mat_mul,
    nest,
    nonzero_cells,
    transpose,
)
from dendrikit.ybe import coregular_bimodule, ybe_residual

from conftest import (conjugate_algebra, first_nonzero, int_matrix, perturb_coproduct,
                      perturb_product)

DENSITIES = (0.0, 0.1, 0.3, 0.6, 1.0)


def _scalar(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _vector(rng, n, density):
    return Vec([_scalar(rng, density) for _ in range(n)])


def _matrix(rng, rows, cols, density):
    return [[_scalar(rng, density) for _ in range(cols)] for _ in range(rows)]


def _cube(rng, n, density):
    return [_matrix(rng, n, n, density) for _ in range(n)]


def _fractions(x):
    """Whether every leaf of the nested tuple ``x`` is a Fraction."""
    if isinstance(x, tuple):
        return all(_fractions(y) for y in x)
    return type(x) is Fraction


def _invertible(rng, n):
    while True:
        S = int_matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if determinant(S) != 0:
            return S


@st.composite
def algebras(draw):
    """A random 'assoc'-kind algebra (no law is imposed on the constants)."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 4))
    density = draw(st.sampled_from(DENSITIES))
    alg = FinAlgebra("assoc", n, {"mul": _cube(rng, n, density)})
    if draw(st.booleans()):
        alg = conjugate_algebra(alg, _invertible(rng, n))
    return alg, rng, density


def _acting(mats, u):
    """Σᵢ uᵢ·mats[i], summed densely."""
    rows, cols = len(mats[0]), len(mats[0][0])
    return tuple(
        tuple(sum((u.coords[i] * m[p][q] for i, m in enumerate(mats)), Fraction(0))
              for q in range(cols))
        for p in range(rows)
    )


def _check_products(alg, rng, density):
    n, c = alg.dim, alg.products["mul"]
    u, v = _vector(rng, n, density), _vector(rng, n, 0.7)
    assert _fractions(alg.multiply("mul", u, v).coords)
    assert alg.multiply("mul", u, v).coords == tuple(
        sum((u.coords[i] * v.coords[j] * c[k][i][j] for i in range(n) for j in range(n)),
            Fraction(0))
        for k in range(n)
    )
    # the matrices of v ↦ u·v and v ↦ v·u
    left = tuple(
        tuple(sum((u.coords[i] * c[k][i][j] for i in range(n)), Fraction(0))
              for j in range(n))
        for k in range(n)
    )
    right = tuple(
        tuple(sum((u.coords[j] * c[k][i][j] for j in range(n)), Fraction(0))
              for i in range(n))
        for k in range(n)
    )
    reg, coreg = regular_bimodule(alg).actions, coregular_bimodule(alg).actions
    assert _fractions(reg["l"]) and _fractions(reg["r"])
    assert _fractions(coreg["l"]) and _fractions(coreg["r"])
    assert _acting(reg["l"], u) == left and _acting(reg["r"], u) == right
    # (A*, 𝔯*, 𝔩*): the duals are the transposes
    assert _acting(coreg["l"], u) == transpose(right)
    assert _acting(coreg["r"], u) == transpose(left)
    table = alg.tables["mul"]
    nonzero = {(k, i, j): c[k][i][j]
               for k in range(n) for i in range(n) for j in range(n) if c[k][i][j]}
    assert table.scale == lcm(*(x.denominator for x in nonzero.values()))
    assert all(type(x) is int and x for _idx, x in table.entries)
    assert {idx: Fraction(x, table.scale) for idx, x in table.entries} == nonzero


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_products_match_dense_formulas(sample):
    _check_products(*sample)


@pytest.mark.parametrize("n,density", [(1, 0.0), (1, 1.0), (3, 0.0)])
def test_products_on_dim_one_and_the_zero_cube(n, density):
    rng = random.Random(n)
    _check_products(FinAlgebra("assoc", n, {"mul": _cube(rng, n, density)}), rng, 1.0)


@settings(max_examples=60, deadline=None)
@given(algebras(), st.integers(1, 4))
def test_bimodule_action_matches_dense_formula(sample, m):
    alg, rng, density = sample
    n = alg.dim
    actions = {name: [_matrix(rng, m, m, density) for _ in range(n)] for name in ("l", "r")}
    bim = Bimodule(alg, m, actions)
    a = _vector(rng, n, 0.7)
    extents = {"i": n, "p": m, "q": m}
    for name, mats in actions.items():
        # the action of a = Σ aᵢbᵢ: Σᵢ aᵢ·M[i]
        tables = {"a": IntTable(a.coords), name: IntTable(bim.actions[name])}
        action = nest(contract(((1, ("a", "i"), (name, "ipq")),), tables, "pq", extents),
                      (m, m))
        assert _fractions(action)
        assert action == tuple(
            tuple(sum((a.coords[i] * mats[i][p][q] for i in range(n)), Fraction(0))
                  for q in range(m))
            for p in range(m)
        )


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.sampled_from(DENSITIES))
def test_coproduct_matches_dense_formula(rng, n, density):
    cube = _cube(rng, n, density)
    co = CoalgStruct("assoc", n, {"co": cube}).coproducts["co"]
    v = _vector(rng, n, 0.7)
    m = _matrix(rng, n, n, 0.7)
    tables = {"v": IntTable(v.coords), "m": IntTable(m), "co": IntTable(co)}
    image = nest(contract(((1, ("v", "i"), ("co", "ijk")),), tables, "jk", n), (n, n))
    assert _fractions(image)
    assert image == tuple(
        tuple(sum((v.coords[i] * cube[i][j][k] for i in range(n)), Fraction(0))
              for k in range(n))
        for j in range(n)
    )
    # (θ⊗id)(m) and (id⊗θ)(m) for the 2-tensor with coefficient matrix m, as
    # the co-laws write them
    first = nest(contract(((1, ("m", "jk"), ("co", "jpq")),), tables, "pqk", n), (n, n, n))
    second = nest(contract(((1, ("m", "jk"), ("co", "kqr")),), tables, "jqr", n), (n, n, n))
    assert _fractions(first) and _fractions(second)
    assert first == tuple(
        tuple(tuple(sum((m[j][k] * cube[j][p][q] for j in range(n)), Fraction(0))
                    for k in range(n))
              for q in range(n))
        for p in range(n)
    )
    assert second == tuple(
        tuple(tuple(sum((m[j][k] * cube[k][q][r] for k in range(n)), Fraction(0))
                    for r in range(n))
              for q in range(n))
        for j in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(DENSITIES))
def test_contract_mixes_denominators_and_broadcasts(rng, n, m, density):
    """c·M terms and M·N terms with unrelated denominators in one sum, and a
    term that reads N alone and carries the output label i on a table of
    ones, against the dense Fraction sums."""
    c = _cube(rng, n, density)
    M = [_matrix(rng, m, m, density) for _ in range(n)]
    N = [_matrix(rng, m, m, 1.0) for _ in range(n)]
    terms = (
        (+1, ("c", "kij"), ("M", "kab")),
        (-1, ("M", "iac"), ("N", "jcb")),
        (+1, ("N", "jab"), ("one", "i")),
    )
    extents = {"i": n, "j": n, "k": n, "a": m, "b": m, "c": m}
    tables = {"c": IntTable(c), "M": IntTable(M), "N": IntTable(N),
              "one": IntTable((Fraction(1),) * n)}
    got = nest(contract(terms, tables, "ijab", extents), (n, n, m, m))
    assert _fractions(got)
    assert got == tuple(
        tuple(
            tuple(
                tuple(
                    sum((c[k][i][j] * M[k][a][b] for k in range(n)), Fraction(0))
                    - sum((M[i][a][x] * N[j][x][b] for x in range(m)), Fraction(0))
                    + N[j][a][b]
                    for b in range(m)
                )
                for a in range(m)
            )
            for j in range(n)
        )
        for i in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(DENSITIES))
def test_contract_chains_three_factors(rng, n, m, density):
    """P(v₁)·P(v₂) − P(X(P(v₁))v₂), each of degree 2 in P, as chained
    contractions, against the dense Fraction sums."""
    c = _cube(rng, n, density)
    X = [_matrix(rng, m, m, density) for _ in range(n)]
    P = _matrix(rng, n, m, 0.7)
    terms = (
        (+1, ("P", "ai"), ("c", "kab"), ("P", "bj")),
        (-1, ("P", "ai"), ("X", "apj"), ("P", "kp")),
    )
    extents = {"i": m, "j": m, "p": m, "k": n, "a": n, "b": n}
    tables = {"c": IntTable(c), "X": IntTable(X), "P": IntTable(P)}
    got = nest(contract(terms, tables, "ijk", extents), (m, m, n))
    assert _fractions(got)
    assert got == tuple(
        tuple(
            tuple(
                sum((P[a][i] * P[b][j] * c[k][a][b] for a in range(n) for b in range(n)),
                    Fraction(0))
                - sum((P[k][p] * P[a][i] * X[a][p][j] for a in range(n) for p in range(m)),
                      Fraction(0))
                for k in range(n)
            )
            for j in range(m)
        )
        for i in range(m)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(DENSITIES),
)
def test_linear_maps_match_dense_formulas(rng, rows, inner, cols, density):
    a = _matrix(rng, rows, inner, density)
    b = _matrix(rng, inner, cols, density)
    v = _vector(rng, inner, 0.7)
    assert _fractions(LinMap(a).apply(v).coords) and _fractions(mat_mul(a, b))
    assert LinMap(a).apply(v).coords == tuple(
        sum((a[i][j] * v.coords[j] for j in range(inner)), Fraction(0))
        for i in range(rows)
    )
    assert mat_mul(a, b) == tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
              for j in range(cols))
        for i in range(rows)
    )


# Each Yang-Baxter residual as a signed list of products rₚᵩ·rₛₜ of placed
# copies of r: (sign, product, (p, q), (s, t)) for r_pq ∘ r_st, slots 0-based.
# The two placements share exactly one slot, where the product acts.
YBE_TERMS = {
    # [r₁₂,r₁₃] + [r₁₃,r₂₃] + [r₁₂,r₂₃]
    "lie": ((1, "bracket", (0, 1), (0, 2)), (1, "bracket", (0, 2), (1, 2)),
            (1, "bracket", (0, 1), (1, 2))),
    # r₁₃⋄r₁₂ + r₂₃⋄r₁₂ + r₂₁⋄r₁₃ + r₂₃⋄r₁₃ − r₂₃⋄r₂₁ − r₁₂⋄r₂₃ − r₁₃⋄r₂₁ − r₁₃⋄r₂₃
    "prelie": ((1, "mul", (0, 2), (0, 1)), (1, "mul", (1, 2), (0, 1)),
               (1, "mul", (1, 0), (0, 2)), (1, "mul", (1, 2), (0, 2)),
               (-1, "mul", (1, 2), (1, 0)), (-1, "mul", (0, 1), (1, 2)),
               (-1, "mul", (0, 2), (1, 0)), (-1, "mul", (0, 2), (1, 2))),
    # r₁₂∗r₁₃ + r₁₃∗r₂₃ − r₂₃∗r₁₂
    "assoc": ((1, "mul", (0, 1), (0, 2)), (1, "mul", (0, 2), (1, 2)),
              (-1, "mul", (1, 2), (0, 1))),
    # r₁₂≺r₁₃ + r₁₂≻r₁₃ − r₁₃≺r₂₃ − r₂₃≻r₁₂
    "dendriform": ((1, "lt", (0, 1), (0, 2)), (1, "gt", (0, 1), (0, 2)),
                   (-1, "lt", (0, 2), (1, 2)), (-1, "gt", (1, 2), (0, 1))),
}


def _dense_ybe(alg, r):
    """The residual cube by the dense sum over every pair of entries of r."""
    n, R = alg.dim, r.coeffs
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for sign, op, left, right in YBE_TERMS[alg.kind]:
        cube = alg.products[op]
        (shared,) = set(left) & set(right)
        for i in range(n):
            for j in range(n):
                for p in range(n):
                    for q in range(n):
                        at_left = dict(zip(left, (i, j)))
                        at_right = dict(zip(right, (p, q)))
                        for k in range(n):
                            c = cube[k][at_left[shared]][at_right[shared]]
                            slot = {**at_left, **at_right, shared: k}
                            out[slot[0]][slot[1]][slot[2]] += sign * R[i][j] * R[p][q] * c
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


@settings(max_examples=60, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(sorted(YBE_TERMS)),
    st.integers(1, 4),
    st.sampled_from(DENSITIES),
    st.sampled_from(DENSITIES),
    st.booleans(),
)
def test_ybe_residual_matches_dense_formula(rng, kind, n, density, r_density, conjugate):
    alg = FinAlgebra(kind, n, {op: _cube(rng, n, density) for op in KIND_OPS[kind]})
    if conjugate:
        alg = conjugate_algebra(alg, _invertible(rng, n))
    r = Tensor2(_matrix(rng, n, n, r_density))
    residual = ybe_residual(alg, r).coeffs
    assert _fractions(residual)
    assert residual == _dense_ybe(alg, r)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_equality_ignores_the_derived_table(sample):
    alg, rng, _density = sample
    n, cube = alg.dim, alg.products["mul"]
    same = FinAlgebra("assoc", n, {"mul": cube})
    assert same == alg and repr(same) == repr(alg)
    assert same.tables is not alg.tables
    coalg = CoalgStruct("assoc", n, {"co": cube})
    for x, y in ((regular_bimodule(same), regular_bimodule(alg)),
                 (coalg, CoalgStruct("assoc", n, {"co": cube}))):
        assert x == y and repr(x) == repr(y) and x.tables is not y.tables
    for x in (alg, regular_bimodule(alg), coalg):
        assert "tables" not in repr(x) and "IntTable" not in repr(x)
    k, i, j = (rng.randrange(n) for _ in range(3))
    changed = [[list(row) for row in plane] for plane in cube]
    changed[k][i][j] += 1
    assert FinAlgebra("assoc", n, {"mul": changed}) != alg


# --- contract against a sum over every label assignment --------------------------

LETTERS = "abcde"
DENOMINATORS = (1, 1, 2, 3, 5, 7)


def _table(rng, shape, density):
    """A nested tuple of Fractions of the given shape."""
    if not shape:
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-5, 5), rng.choice(DENOMINATORS))
    return tuple(_table(rng, shape[1:], density) for _ in range(shape[0]))


@st.composite
def term_tables(draw):
    """Random terms of 1 to 3 factors over a few letters, each carrying every
    output label, their tables (some read twice, some all zero, with mixed
    denominators), the output labels and the extents, an int or a dict."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        extent = lambda _x: n  # noqa: E731
    else:
        n = {x: draw(st.integers(1, 3)) for x in LETTERS}
        extent = n.get
    out = "".join(draw(st.permutations(LETTERS))[:draw(st.integers(0, 3))])
    labelings = [["".join(draw(st.permutations(LETTERS))[:draw(st.integers(1, 3))])
                  for _ in range(draw(st.integers(1, 3)))]
                 for _ in range(draw(st.integers(1, 4)))]
    for labels in labelings:
        if len(labels) == 1:
            # a lone factor cannot sum a label: its labels join the output
            out += "".join(x for x in labels[0] if x not in out)
    for labels in labelings:
        # a term carries every output label: one it lacks goes on a factor
        for x in out:
            if not any(x in lab for lab in labels):
                t = draw(st.integers(0, len(labels) - 1))
                labels[t] += x
    tables, terms = {}, []
    for term in labelings:
        factors = []
        for labels in term:
            name = f"t{len(tables)}"
            reuse = [t for t, (lab, _tab) in tables.items() if len(lab) == len(labels)
                     and [extent(x) for x in lab] == [extent(x) for x in labels]]
            if reuse and draw(st.booleans()):
                name = draw(st.sampled_from(reuse))
            else:
                density = draw(st.sampled_from(DENSITIES))
                tables[name] = (labels, _table(rng, [extent(x) for x in labels], density))
            factors.append((name, labels))
        terms.append((draw(st.sampled_from((1, -1, 2))), *factors))
    return tuple(terms), {t: tab for t, (_lab, tab) in tables.items()}, out, n, extent


def _by_every_assignment(terms, tables, out, extent):
    """The flat residual of ``contract`` as Σ over every value of every label."""
    res = [Fraction(0)] * prod(extent(x) for x in out)
    for sign, *factors in terms:
        labels = sorted(set("".join(lab for _name, lab in factors)) | set(out))
        for values in product(*(range(extent(x)) for x in labels)):
            at = dict(zip(labels, values))
            value = Fraction(sign)
            for name, lab in factors:
                cell = tables[name]
                for x in lab:
                    cell = cell[at[x]]
                value *= cell
            pos = 0
            for x in out:
                pos = pos * extent(x) + at[x]
            res[pos] += value
    return res


def test_a_lone_factor_cannot_sum_a_label():
    with pytest.raises(ValueError, match="leaves a label outside"):
        contract(((1, ("a", "ij")),), {"a": IntTable(((ZERO,),))}, "i", 1)


@pytest.mark.parametrize("terms,out", [
    (((1, ("a", "ij")), (1, ("a", "ik"), ("b", "kj")), (1, ("b", "kj"), ("c", "k"))), "ij"),
    (((1, ("a", "i")),), "ij"),
    (((1, ("a", "ij"), ("b", "pq")), (-1, ("b", "jq"), ("a", "qp"))), "ijpq"),
], ids=["two-factor", "lone-factor", "four-labels"])
def test_a_term_without_an_output_label_is_refused(terms, out):
    """A term must carry every output label: one that lacks one is refused
    when its law is compiled, before any table is read."""
    with pytest.raises(ValueError, match="lacks a label of"):
        contract_cells(terms, {}, out, 3)


def test_the_plan_cache_is_keyed_on_the_law_and_the_extents():
    """A second dendriform pair of the same dimension compiles nothing new; a
    new dimension compiles one plan per law."""
    laws = len(BIALGEBRA_LAWS["dendriform"]) + 1  # and one reading of dbi6
    D, theta = examples.dendriform_pair(), examples.dendriform_pair_coalgebra()
    shifted = (perturb_product(D, "gt", 0, 1, 1, Fraction(1, 3)),
               perturb_coproduct(theta, "co_lt", 1, 0, 1, Fraction(-2, 5)))
    D3 = examples.rota_baxter_dendriform()
    theta3 = CoalgStruct("dendriform", 3, {
        name: _cube(random.Random(3), 3, 0.3) for name in ("co_lt", "co_gt")})
    _compile.cache_clear()
    check_bialgebra(D, theta)
    assert _compile.cache_info().currsize == laws
    assert not check_bialgebra(*shifted).ok
    assert _compile.cache_info().currsize == laws
    check_bialgebra(D3, theta3)
    assert _compile.cache_info().currsize == 2 * laws


# --- the packed cells ---------------------------------------------------------------
#
# A law of four or more output labels whose last two every term carries
# once, on one factor, has a packed plan; it runs where a packed int holds at
# least MIN_PACKED_CELLS cells and every table is dense.  Its cells must be
# the plain path's, which the same tables marked sparse give.

PACKED_LETTERS = "abcdefg"


def _plain(table: IntTable) -> IntTable:
    """The same entries, with no size given, so never dense."""
    return IntTable(scale=table.scale, entries=table.entries)


def _dense_table(rng, shape, fill):
    """A nested tuple of Fractions of the given shape with the share ``fill``
    of its cells nonzero, exactly (rounded up)."""
    size = prod(shape)
    nonzero = set(rng.sample(range(size), ceil(size * fill)))
    cells = [Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.choice(DENOMINATORS))
             if p in nonzero else Fraction(0) for p in range(size)]
    return nest(cells, shape) if len(shape) > 1 else tuple(cells)


@st.composite
def packed_term_tables(draw):
    """Random terms over four output labels and up to three summed ones, each
    carrying the last two output labels once, on one factor; tables of
    extents 3 or 4 on the packed labels, filled densely or sparsely."""
    rng = draw(st.randoms(use_true_random=False))
    letters = draw(st.permutations(PACKED_LETTERS))
    out, summed = "".join(letters[:4]), letters[4:4 + draw(st.integers(0, 3))]
    n = {x: draw(st.integers(3, 4)) if x in out[2:] else draw(st.integers(1, 3))
         for x in PACKED_LETTERS}
    fills = draw(st.sampled_from(((1.0,), (0.5, 1.0), (0.3, 1.0), (0.1, 0.5))))
    tables, terms = {}, []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        if k == 1:
            factors = [draw(st.permutations(out))]
        else:
            factors = [[] for _ in range(k)]
            for x in out[2:]:
                factors[draw(st.integers(0, k - 1))].append(x)
            for x in out[:2] + "".join(summed):
                # a summed label on up to two factors, an unpacked output
                # label on one or two
                least = 1 if x in out else 0
                for t in draw(st.sets(st.integers(0, k - 1), min_size=least, max_size=2)):
                    factors[t].append(x)
            for labels in factors:
                if not labels:
                    labels.append(out[0])
            factors = [draw(st.permutations(labels)) for labels in factors]
        named = []
        for labels in factors:
            labels = "".join(labels)
            name = f"t{len(tables)}"
            tables[name] = (labels, _dense_table(rng, [n[x] for x in labels],
                                                 draw(st.sampled_from(fills))))
            named.append((name, labels))
        terms.append((draw(st.sampled_from((1, -1, 2))), *named))
    return tuple(terms), {t: tab for t, (_lab, tab) in tables.items()}, out, n, n.get


@settings(max_examples=300, deadline=None)
@given(st.one_of(term_tables(), packed_term_tables()))
def test_contract_matches_a_sum_over_every_label_assignment(sample):
    """Shared and summed labels, int and dict extents, mixed denominators
    and all-zero tables, and four-label outputs on dense and sparse tables:
    the compiled contraction is the sum over every assignment of values to
    the labels.  The packed path runs exactly where the law packs and every
    table is dense, and gives the plain path's nonzero cells."""
    terms, nested, out, n, extent = sample
    tables = {t: IntTable(tab) for t, tab in nested.items()}
    got = contract(terms, tables, out, n)
    assert all(type(x) is Fraction for x in got)
    assert all(x is ZERO for x in got if x == 0)
    assert got == _by_every_assignment(terms, nested, out, extent)
    cells, den = contract_cells(terms, tables, out, n)
    packs = _compile(terms, out, n if isinstance(n, int) else tuple(sorted(n.items())))[2]
    assert isinstance(cells, PackedCells) == (
        packs is not None and all(t.dense for t in tables.values()))
    plain, plain_den = contract_cells(terms, {t: _plain(tab) for t, tab in tables.items()},
                                      out, n)
    assert type(plain) is list and den == plain_den and len(cells) == len(plain)
    assert list(nonzero_cells(cells)) == list(nonzero_cells(plain)) == [
        (p, x) for p, x in enumerate(plain) if x]


@pytest.mark.parametrize("short", (0, 1))
def test_the_fill_rule_at_its_threshold(short):
    """A table with MIN_FILL_PERCENT of its cells nonzero is dense, and the
    law packs; one nonzero cell fewer and it runs the plain path.  Both give
    the sum over every assignment."""
    rng = random.Random(short)
    n = 4
    size = n ** 3
    nonzero = -(-size * MIN_FILL_PERCENT // 100) - short
    cells = [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice(DENOMINATORS)) for _ in range(nonzero)]
    cells += [Fraction(0)] * (size - nonzero)
    rng.shuffle(cells)
    cube = nest(cells, (n, n, n))
    table = IntTable(cube)
    assert table.dense == (not short)
    terms, out = AXIOMS["assoc"]["associativity"][1], AXIOMS["assoc"]["associativity"][0]
    got, den = contract_cells(terms, {"mul": table}, out, n)
    assert isinstance(got, PackedCells) == (not short)
    assert contract(terms, {"mul": table}, out, n) == _by_every_assignment(
        terms, {"mul": cube}, out, lambda _x: n)


@st.composite
def width_bound_laws(draw):
    """Two terms A(ij)·B(pq) and C(ij)·E(pq) over denominators 3 and 5 whose
    sum reaches the width bound, 2^b − 1 with b drawn at and around multiples
    of 32, in the top cell, negative, and under any other cell; with a pair
    of terms that cancel in every field, or as a law whose terms all cancel."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(3, 4))
    b = draw(st.sampled_from((31, 32, 33, 63, 64, 65, 95, 96, 127, 128)))
    shape = draw(st.sampled_from(("bound", "cancel", "zero")))
    top = 2 ** b - 1
    # cell = 5·A·B + 3·C·E over D = 15: A and C are ±1/3 and ±1/5, so the
    # bound 5·max|B| + 3·max|E| is reached where A = C = 1 and B, E are at
    # their most negative
    top_b = draw(st.integers(3, top // 5 - 1))
    top_b -= (top_b - 2 * top) % 3
    top_e = (top - 5 * top_b) // 3
    assert top_b > 0 and top_e > 0 and 5 * top_b + 3 * top_e == top

    def square(den, corner, bound):
        cells = [Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), den)
                 for _ in range(n * n - 1)] + [Fraction(corner, den)]
        return nest(cells, (n, n))

    nested = {"A": square(3, 1, 1), "B": square(1, -top_b, top_b),
              "C": square(5, 1, 1), "E": square(1, -top_e, top_e)}
    terms = ((+1, ("A", "ij"), ("B", "pq")), (+1, ("C", "ij"), ("E", "pq")))
    if shape == "cancel":
        nested["F"] = square(7, draw(st.integers(1, 2 ** b)), 2 ** b)
        nested["G"] = square(1, 1, 2 ** b)
        terms += ((+1, ("F", "ip"), ("G", "jq")), (-1, ("G", "jq"), ("F", "ip")))
    elif shape == "zero":
        terms += ((-1, ("B", "pq"), ("A", "ij")), (-1, ("E", "pq"), ("C", "ij")))
    return terms, nested, n, b, shape


@settings(max_examples=100, deadline=None)
@given(width_bound_laws())
def test_packed_cells_at_the_width_bound(sample):
    """Huge numerators, mixed denominators, cells at ±(2^b − 1) with the top
    field negative, and terms that cancel in every field: the packed cells,
    the first violation and `contract` equal the plain path's."""
    terms, nested, n, b, shape = sample
    out = "ijpq"
    tables = {t: IntTable(tab) for t, tab in nested.items()}
    cells, den = contract_cells(terms, tables, out, n)
    assert isinstance(cells, PackedCells)
    plain, plain_den = contract_cells(terms, {t: _plain(tab) for t, tab in tables.items()},
                                      out, n)
    assert type(plain) is list and den == plain_den
    if shape == "bound":
        # the top cell, the top field of the last packed int, is −(2^b − 1)
        assert cells.w == (b + 32) // 32 * 32 and den == 15
        assert plain[-1] == -(2 ** b - 1)
        assert list(nonzero_cells(cells))[-1] == (len(plain) - 1, plain[-1])
        assert max(map(abs, plain)) == 2 ** b - 1
    if shape == "zero":
        assert not any(plain) and not any(cells.ints)
    assert len(cells) == len(plain)
    assert list(nonzero_cells(cells)) == [(p, x) for p, x in enumerate(plain) if x]
    dims = (n,) * 4
    packed, reference = Residuals(), Residuals()
    packed.add("law", cells, den, dims)
    reference.add("law", plain, den, dims)
    assert packed.violations == reference.violations
    assert packed.violations["law"] == (None if shape == "zero" else first_nonzero(
        nest(fractions(plain, den), dims)))
    assert contract(terms, tables, out, n) == fractions(plain, den)
