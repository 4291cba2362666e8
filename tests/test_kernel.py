"""The sparse contraction kernel against the dense textbook formulas.

Every product, action and coproduct is evaluated through `exact.combine`
over a sparse table derived from the structure constants.  Here each one is
compared, exactly, with the dense sum written out inline, on random rational
constants of every density from all-zero to full, in dimensions 1 to 4, and
after a random change of basis.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrikit.algebras import Bimodule, FinAlgebra
from dendrikit.bialgebras import CoalgStruct, _co_first, _co_second
from dendrikit.exact import LinMap, Vec, determinant, mat_mul

from conftest import conjugate_algebra, int_matrix

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


def _check_products(alg, rng, density):
    n, c = alg.dim, alg.products["mul"]
    u, v = _vector(rng, n, density), _vector(rng, n, 0.7)
    assert alg.multiply("mul", u, v).coords == tuple(
        sum((u.coords[i] * v.coords[j] * c[k][i][j] for i in range(n) for j in range(n)),
            Fraction(0))
        for k in range(n)
    )
    assert alg.left_mult("mul", u).matrix == tuple(
        tuple(sum((u.coords[i] * c[k][i][j] for i in range(n)), Fraction(0))
              for j in range(n))
        for k in range(n)
    )
    assert alg.right_mult("mul", u).matrix == tuple(
        tuple(sum((u.coords[j] * c[k][i][j] for j in range(n)), Fraction(0))
              for i in range(n))
        for k in range(n)
    )
    for i in range(n):
        for j in range(n):
            terms = alg.product_terms("mul", i, j)
            assert all(x != 0 for _, x in terms)
            assert dict(terms) == {k: c[k][i][j] for k in range(n) if c[k][i][j]}


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
    for name, mats in actions.items():
        assert bim.action(name, a).matrix == tuple(
            tuple(sum((a.coords[i] * mats[i][p][q] for i in range(n)), Fraction(0))
                  for q in range(m))
            for p in range(m)
        )


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.sampled_from(DENSITIES))
def test_coproduct_matches_dense_formula(rng, n, density):
    cube = _cube(rng, n, density)
    coalg = CoalgStruct("assoc", n, {"co": cube})
    v = _vector(rng, n, 0.7)
    assert coalg.coproduct("co", v).coeffs == tuple(
        tuple(sum((v.coords[i] * cube[i][j][k] for i in range(n)), Fraction(0))
              for k in range(n))
        for j in range(n)
    )
    m = _matrix(rng, n, n, 0.7)
    # (θ⊗id)(m) and (id⊗θ)(m) for the 2-tensor with coefficient matrix m
    assert _co_first(coalg, "co", m).coeffs == tuple(
        tuple(tuple(sum((m[j][k] * cube[j][p][q] for j in range(n)), Fraction(0))
                    for k in range(n))
              for q in range(n))
        for p in range(n)
    )
    assert _co_second(coalg, "co", m).coeffs == tuple(
        tuple(tuple(sum((m[j][k] * cube[k][q][r] for k in range(n)), Fraction(0))
                    for r in range(n))
              for q in range(n))
        for j in range(n)
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
    assert LinMap(a).apply(v).coords == tuple(
        sum((a[i][j] * v.coords[j] for j in range(inner)), Fraction(0))
        for i in range(rows)
    )
    assert mat_mul(a, b) == tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
              for j in range(cols))
        for i in range(rows)
    )


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_equality_ignores_the_derived_table(sample):
    alg, rng, _density = sample
    n, cube = alg.dim, alg.products["mul"]
    same = FinAlgebra("assoc", n, {"mul": cube})
    assert same == alg and repr(same) == repr(alg)
    assert "_pairs" not in repr(alg)
    k, i, j = (rng.randrange(n) for _ in range(3))
    changed = [[list(row) for row in plane] for plane in cube]
    changed[k][i][j] += 1
    assert FinAlgebra("assoc", n, {"mul": changed}) != alg
