"""Pinned failure lists of the windowed affinization checks.

Each case records the ``checked`` count and the SHA-256 of ``repr(failures)``
of one windowed check, so a change to how the checks enumerate or accumulate
their terms must reproduce every failure, its location, its exact value and
its order.  The perturbations use fractional deltas, so the common-denominator
scaling of the structure constants and coproduct coefficients is exercised.
"""

import hashlib
from fractions import Fraction

import pytest

from dendrikit import examples
from dendrikit.affinization import (
    Window,
    check_affine_associativity,
    check_completed_asi,
    check_completed_coassociativity,
    check_completed_perm_coalgebra,
    check_graded_form,
    check_laurent_perm_axioms,
    check_nu_pairing,
)

from conftest import perturb_coproduct, perturb_product

THIRD = Fraction(1, 3)
MINUS_TWO_FIFTHS = Fraction(-2, 5)


def _pair(product=None, coproduct=None):
    """The corpus D-bialgebra, with at most one constant of each kind shifted."""
    D = examples.dendriform_pair()
    theta = examples.dendriform_pair_coalgebra()
    if product is not None:
        D = perturb_product(D, *product)
    if coproduct is not None:
        theta = perturb_coproduct(theta, *coproduct)
    return D, theta


def _window_only(check, N):
    return lambda: check(Window(N))


def _with_algebra(check, N, **perturbation):
    def run():
        D, _ = _pair(**perturbation)
        return check(D, Window(N))

    return run


def _with_coproducts(check, N, **perturbation):
    def run():
        D, theta = _pair(**perturbation)
        return check(D, theta, Window(N))

    return run


P_LT = ("lt", 0, 0, 1, THIRD)
P_GT = ("gt", 1, 1, 0, MINUS_TWO_FIFTHS)
P_GT0 = ("gt", 0, 0, 0, THIRD)
C_LT = ("co_lt", 0, 1, 1, THIRD)
C_GT = ("co_gt", 1, 0, 1, MINUS_TWO_FIFTHS)
C_GT0 = ("co_gt", 0, 0, 0, MINUS_TWO_FIFTHS)

CASES = {
    "lpa/N2": _window_only(check_laurent_perm_axioms, 2),
    "gf/N2": _window_only(check_graded_form, 2),
    "nu/N2": _window_only(check_nu_pairing, 2),
    "cpc/N2": _window_only(check_completed_perm_coalgebra, 2),
    "aa/N2": _with_algebra(check_affine_associativity, 2),
    "asi/N2": _with_coproducts(check_completed_asi, 2),
    "coassoc/N2": _with_coproducts(check_completed_coassociativity, 2),
    "lpa/N3": _window_only(check_laurent_perm_axioms, 3),
    "gf/N3": _window_only(check_graded_form, 3),
    "nu/N3": _window_only(check_nu_pairing, 3),
    "cpc/N3": _window_only(check_completed_perm_coalgebra, 3),
    "aa/N2/lt+1/3": _with_algebra(check_affine_associativity, 2, product=P_LT),
    "aa/N2/gt-2/5": _with_algebra(check_affine_associativity, 2, product=P_GT),
    "asi/N2/lt+1/3": _with_coproducts(check_completed_asi, 2, product=P_LT),
    "asi/N2/gt0+1/3": _with_coproducts(check_completed_asi, 2, product=P_GT0),
    "asi/N2/co_lt+1/3": _with_coproducts(check_completed_asi, 2, coproduct=C_LT),
    "asi/N2/co_gt-2/5": _with_coproducts(check_completed_asi, 2, coproduct=C_GT),
    "asi/N2/gt-2/5,co_lt+1/3": _with_coproducts(
        check_completed_asi, 2, product=P_GT, coproduct=C_LT
    ),
    "coassoc/N2/co_lt+1/3": _with_coproducts(
        check_completed_coassociativity, 2, coproduct=C_LT
    ),
    "coassoc/N2/co_gt0-2/5": _with_coproducts(
        check_completed_coassociativity, 2, coproduct=C_GT0
    ),
    "nu/N4": _window_only(check_nu_pairing, 4),
    "cpc/N4": _window_only(check_completed_perm_coalgebra, 4),
    "aa/N4": _with_algebra(check_affine_associativity, 4),
    "aa/N3/lt+1/3": _with_algebra(check_affine_associativity, 3, product=P_LT),
    "asi/N4": _with_coproducts(check_completed_asi, 4),
    "asi/N4/gt-2/5": _with_coproducts(check_completed_asi, 4, product=P_GT),
    "asi/N4/co_lt+1/3": _with_coproducts(check_completed_asi, 4, coproduct=C_LT),
    "asi/N4/co_gt0-2/5": _with_coproducts(check_completed_asi, 4, coproduct=C_GT0),
    "coassoc/N4": _with_coproducts(check_completed_coassociativity, 4),
    "coassoc/N4/co_lt+1/3": _with_coproducts(
        check_completed_coassociativity, 4, coproduct=C_LT
    ),
    "coassoc/N4/co_gt0-2/5": _with_coproducts(
        check_completed_coassociativity, 4, coproduct=C_GT0
    ),
    "lpa/N4": _window_only(check_laurent_perm_axioms, 4),
    "lpa/N5": _window_only(check_laurent_perm_axioms, 5),
    "gf/N4": _window_only(check_graded_form, 4),
    "gf/N5": _window_only(check_graded_form, 5),
}

# (checked, SHA-256 of repr(failures))
PINNED = {
    "aa/N2": (64, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "aa/N2/gt-2/5": (64, "cefb18e65a267945d4b47f08e45b00c0680b0b56ea11576dda7a2f2e146369f4"),
    "aa/N2/lt+1/3": (64, "7a81dcca9bf01583536562dd34252d16cb06e2f0e21ba355f3001ecf12d1f4a6"),
    "aa/N3/lt+1/3": (46656, "32c4ed43cb4d90562ea479e29e172e1047fc51babd81e4f6ef3f64146a832c02"),
    "aa/N4": (1000000, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "asi/N2": (20, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "asi/N2/co_gt-2/5": (20, "647607f4fbaa2aef0a4928b23afd4705bec25d9bd234cfea5c7faf66269fe00e"),
    "asi/N2/co_lt+1/3": (20, "0af95fa36a9016e042131d32c8aeccfc95e770462d27edb00417ed9de2839e8c"),
    "asi/N2/gt-2/5,co_lt+1/3": (20, "d46ab63fc965c7baeb93fd1a37868813c82a028a83f8000c72437e2b71e9c53b"),
    "asi/N2/gt0+1/3": (20, "0baa4a147ba020e7ab5ece4f0e256c511e8da5580d48f2eb829cc8dfd3b577f8"),
    "asi/N2/lt+1/3": (20, "8f5e878a74b9486a939546a7c6ad864053e916dddf7bd0feab9095fbfc1654e6"),
    "asi/N4": (10100, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "asi/N4/co_gt0-2/5": (10100, "87cc207cc596863a13b618230c74b02dbf57f1f0d35baa78930f6b4eb1ca5329"),
    "asi/N4/co_lt+1/3": (10100, "2e0121f54e62ad8a940404bed7e6f71533e7fc1bda94cd4f86bdb21a72415f8f"),
    "asi/N4/gt-2/5": (10100, "ebd7971bfc1f0836e79910f221363ada0d8fadc9b47e4096536b6acea5e4a728"),
    "coassoc/N2": (4, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "coassoc/N2/co_gt0-2/5": (4, "530252db1ddd2bc13d0d509be6c6654603f068b7727b72c453b33b0cdb6fdce6"),
    "coassoc/N2/co_lt+1/3": (4, "a6a5916a8e92e09d1749c41a7acf612f01a9977721e02c5d274d4fd8df5d85c8"),
    "coassoc/N4": (100, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "coassoc/N4/co_gt0-2/5": (100, "0cfa776d9e8a3e5392e4fab897a05a4d80291f37cda81565d65cccdcc2154752"),
    "coassoc/N4/co_lt+1/3": (100, "04004e9730a504f8172e35e438081692b788c44a99ac639be3b6a0f2b75fe87b"),
    "cpc/N2": (4872, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "cpc/N3": (174472, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "cpc/N4": (1321800, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "gf/N2": (8332, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "gf/N3": (134604, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "gf/N4": (967436, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "gf/N5": (4310092, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "lpa/N2": (8, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "lpa/N3": (5832, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "lpa/N4": (125000, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "lpa/N5": (941192, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "nu/N2": (45000, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "nu/N3": (480200, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "nu/N4": (2571912, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
}


def _digest(rep):
    """``checked`` and the SHA-256 of ``repr(rep.failures)``.

    The repr is hashed one failure at a time, so that a long failure list is
    never held as a single string.  A failure (label, location, value) is
    written from the reprs of its parts, so that the slow ``NamedTuple`` repr
    of a monomial runs once per object: the reprs of labels, monomials, window
    cells and exact values are kept by identity, a location is written once
    for a run of failures that share it, and a value (target, exact value)
    joins the kept reprs of the target's cells without a call per cell.
    Every part is alive in ``rep.failures`` while the digest runs, so no
    identity is reused.
    """
    memo = {}

    def text(x):
        """repr(x), kept unless x is a tuple that holds a tuple."""
        r = memo.get(id(x))
        if r is None:
            if type(x) is not tuple:
                r = memo[id(x)] = repr(x)
            else:
                r = ", ".join([memo.get(id(e)) or text(e) for e in x])
                r = f"({r},)" if len(x) == 1 else f"({r})"
                if tuple not in map(type, x):
                    memo[id(x)] = r
        return r

    failures = rep.failures
    h = hashlib.sha256(b"(")
    where = last = None
    for i, (label, location, value) in enumerate(failures):
        if location is not last:
            last, where = location, text(location)
        if (type(value) is tuple and len(value) == 2
                and type(value[0]) is tuple and len(value[0]) > 1):
            target, exact = value
            cells = list(map(memo.get, map(id, target)))
            if None in cells:
                cells = list(map(text, target))
            value = f"(({', '.join(cells)}), {memo.get(id(exact)) or text(exact)})"
        else:
            value = text(value)
        if i:
            h.update(b", ")
        h.update(f"({memo.get(id(label)) or text(label)}, {where}, {value})".encode())
    h.update(b",)" if len(failures) == 1 else b")")
    return rep.checked, h.hexdigest()


def test_every_case_is_pinned():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_windowed_failures_are_stable(case):
    assert _digest(CASES[case]()) == PINNED[case]


@pytest.mark.parametrize(
    "case", sorted(c for c in CASES if int(c.split("/")[1][1:]) <= 3))
def test_digest_is_the_hash_of_the_repr(case):
    rep = CASES[case]()
    plain = hashlib.sha256(repr(rep.failures).encode()).hexdigest()
    assert _digest(rep) == (rep.checked, plain)
