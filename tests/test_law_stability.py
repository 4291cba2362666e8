"""Pinned residuals of the finite law checks.

For each check and algebra kind, the SHA-256 of
``repr((report.ok, report.first_violation, report.residuals))`` over a fixed
list of inputs is recorded; for the constructions between kinds and the
coboundary coproducts of an r-matrix, the SHA-256 of ``repr`` of the
structure cubes they build.  The inputs are seeded random structures with
fractional constants in dimensions 1 to 3, each as drawn and with one
constant shifted by a fractional amount, plus the valid corpus structures,
unchanged and with one constant shifted.  Random constants satisfy no law,
so nearly every residual coefficient is nonzero and a change to one term of
one law changes the hash.  A rewrite of how the laws are evaluated must
reproduce every residual, its nesting, its law order and its exact values.
The O-operator inputs pair random bimodules (and the coregular bimodule of
the valid structure) with random operators P; the commuting-square inputs
pair random dendriform algebras with random perm algebras.

The induced, derived and lifted structures of the bialgebra constructions
(the induced ASI and Lie coproducts, the coproducts of the derived Lie and
pre-Lie bialgebras, r̂ and κ) are pinned by their cubes on random inputs.
Their quadratic perm algebras are built as ``QuadraticPerm(perm, form)``
directly, from random perm products and random nondegenerate forms, so the
form is neither antisymmetric nor invariant and the quadratic perm
identities, the bialgebra square and the lifted transfers have nonzero
residuals.  Each transfer theorem is pinned on random r that is symmetric or
skew-symmetric where that is its only hypothesis, and on the corpus inputs
otherwise.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from dendrikit import examples
from dendrikit.algebras import (
    KIND_BIMODULE_ACTIONS,
    KIND_OPS,
    Bimodule,
    FinAlgebra,
    check_axioms,
    check_bimodule,
    regular_bimodule,
)
from dendrikit.bialgebras import (
    KIND_COOPS,
    CoalgStruct,
    QuadraticPerm,
    asi_to_lie_bialgebra,
    check_bialgebra,
    check_bialgebra_square,
    check_coalgebra,
    check_quadratic_perm_identities,
    dendriform_to_prelie_bialgebra,
    induce_asi_bialgebra,
    induce_lie_bialgebra,
)
from dendrikit.exact import BilinForm, LinMap, Tensor2, sharp
from dendrikit.functors import (
    check_square,
    commutator_lie,
    dendriform_to_assoc,
    dendriform_to_prelie,
    tensor_assoc,
    tensor_lie,
)
from dendrikit.ybe import (
    check_ooperator,
    coboundary_coproduct,
    coregular_bimodule,
    kappa_tensor,
    lift_r,
    transfer_assoc_cobound_to_lie,
    transfer_assoc_ooperator_to_lie,
    transfer_aybe_to_cybe,
    transfer_dend_cobound_to_prelie,
    transfer_dend_ooperator_to_prelie,
    transfer_dybe_lift,
    transfer_dybe_to_plybe,
    transfer_induced_asi_coproduct,
    transfer_induced_lie_cobracket,
    transfer_plybe_lift,
)

DIMS = (1, 2, 3)
SHIFT = Fraction(-2, 7)


def _scalar(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def _cube(rng, n, m=None):
    """n planes of m×m scalars (m defaults to n)."""
    m = n if m is None else m
    return [[[_scalar(rng) for _ in range(m)] for _ in range(m)] for _ in range(n)]


def _shifted(cubes: dict, rng) -> dict:
    """A copy of the named cubes with one entry shifted by SHIFT."""
    out = {nm: [[list(row) for row in plane] for plane in c] for nm, c in cubes.items()}
    name = rng.choice(sorted(out))
    plane = rng.choice(out[name])
    row = rng.choice(plane)
    row[rng.randrange(len(row))] += SHIFT
    return out


def _random_cubes(rng, names, n, m=None):
    return {nm: _cube(rng, n, m) for nm in names}


def _algebra_variants(kind, seed):
    """Random algebras of ``kind`` in every dimension, as drawn and shifted."""
    for n in DIMS:
        rng = random.Random(f"{seed}/{kind}/{n}")
        cubes = _random_cubes(rng, KIND_OPS[kind], n)
        yield FinAlgebra(kind, n, cubes)
        yield FinAlgebra(kind, n, _shifted(cubes, rng))


def _coalgebra_variants(kind, seed):
    for n in DIMS:
        rng = random.Random(f"{seed}/{kind}/{n}")
        cubes = _random_cubes(rng, KIND_COOPS[kind], n)
        yield CoalgStruct(kind, n, cubes)
        yield CoalgStruct(kind, n, _shifted(cubes, rng))


VALID_ALGEBRAS = {
    "dendriform": examples.dendriform_pair,
    "prelie": examples.prelie_pair,
    "perm": examples.perm_pair,
    "assoc": examples.truncated_polynomials,
    "lie": examples.expected_tensor_lie,
}

VALID_COALGEBRAS = {
    "dendriform": examples.dendriform_pair_coalgebra,
    "prelie": examples.prelie_pair_coalgebra,
    "perm": lambda: examples.perm_pair_quadratic().nu,
    "assoc": examples.expected_asi_coproduct,
    "lie": examples.expected_lie_cobracket,
}

VALID_BIALGEBRAS = {
    "dendriform": (examples.dendriform_pair, examples.dendriform_pair_coalgebra),
    "prelie": (examples.prelie_pair, examples.prelie_pair_coalgebra),
    "assoc": (examples.expected_tensor_assoc, examples.expected_asi_coproduct),
    "lie": (examples.expected_tensor_lie, examples.expected_lie_cobracket),
}


def _shift_algebra(alg, rng):
    return FinAlgebra(alg.kind, alg.dim, _shifted(alg.products, rng))


def _shift_coalgebra(co, rng):
    return CoalgStruct(co.kind, co.dim, _shifted(co.coproducts, rng))


def _axiom_reports(kind):
    for alg in _algebra_variants(kind, "axioms"):
        yield check_axioms(alg)
    valid = VALID_ALGEBRAS[kind]()
    yield check_axioms(valid)
    yield check_axioms(_shift_algebra(valid, random.Random(f"axioms/{kind}")))


def _bimodule_reports(kind):
    names = KIND_BIMODULE_ACTIONS[kind]
    for alg in _algebra_variants(kind, "bimodule"):
        # Module dimension 4 − n, so the algebra and module axes differ.
        m = 4 - alg.dim
        rng = random.Random(f"bimodule/{kind}/{alg.dim}/{m}")
        actions = _random_cubes(rng, names, alg.dim, m)
        yield check_bimodule(Bimodule(alg, m, actions))
        yield check_bimodule(Bimodule(alg, m, _shifted(actions, rng)))
    valid = regular_bimodule(VALID_ALGEBRAS[kind]())
    yield check_bimodule(valid)
    rng = random.Random(f"bimodule/{kind}")
    yield check_bimodule(Bimodule(valid.algebra, valid.dim, _shifted(valid.actions, rng)))


def _coalgebra_reports(kind):
    for co in _coalgebra_variants(kind, "coalgebra"):
        yield check_coalgebra(co)
    valid = VALID_COALGEBRAS[kind]()
    yield check_coalgebra(valid)
    yield check_coalgebra(_shift_coalgebra(valid, random.Random(f"coalgebra/{kind}")))


def _bialgebra_reports(kind, reading):
    check = lambda a, c: check_bialgebra(a, c, dbi6_reading=reading)
    for alg, co in zip(_algebra_variants(kind, "bialgebra"),
                       _coalgebra_variants(kind, "bialgebra")):
        yield check(alg, co)
    make_alg, make_co = VALID_BIALGEBRAS[kind]
    alg, co = make_alg(), make_co()
    rng = random.Random(f"bialgebra/{kind}")
    yield check(alg, co)
    yield check(_shift_algebra(alg, rng), co)
    yield check(alg, _shift_coalgebra(co, rng))


def _matrix(rng, rows, cols):
    return [[_scalar(rng) for _ in range(cols)] for _ in range(rows)]


def _ooperator_reports(kind):
    names = KIND_BIMODULE_ACTIONS[kind]
    for alg in _algebra_variants(kind, "ooperator"):
        # P maps the module (dimension 4 − n) to the algebra.
        m = 4 - alg.dim
        rng = random.Random(f"ooperator/{kind}/{alg.dim}/{m}")
        actions = _random_cubes(rng, names, alg.dim, m)
        P = _matrix(rng, alg.dim, m)
        yield check_ooperator(Bimodule(alg, m, actions), LinMap(P))
        yield check_ooperator(Bimodule(alg, m, _shifted(actions, rng)), LinMap(P))
        yield check_ooperator(Bimodule(alg, m, actions),
                              LinMap(_shifted({"P": [P]}, rng)["P"][0]))
    valid = VALID_ALGEBRAS[kind]()
    n = valid.dim
    rng = random.Random(f"ooperator/{kind}")
    bim = coregular_bimodule(valid)
    yield check_ooperator(bim, LinMap(_matrix(rng, n, n)))
    yield check_ooperator(Bimodule(valid, n, _shifted(bim.actions, rng)),
                          LinMap(_matrix(rng, n, n)))


def _perm_variants(seed):
    for n in (1, 2):
        rng = random.Random(f"{seed}/perm/{n}")
        yield FinAlgebra("perm", n, _random_cubes(rng, ("mul",), n))


def _square_reports():
    for dend in _algebra_variants("dendriform", "square"):
        for perm in _perm_variants(f"square/{dend.dim}"):
            yield check_square(dend, perm)
    yield check_square(examples.dendriform_pair(), examples.perm_pair())
    rng = random.Random("square")
    yield check_square(_shift_algebra(examples.dendriform_pair(), rng), examples.perm_pair())
    yield check_square(examples.dendriform_pair(), _shift_algebra(examples.perm_pair(), rng))


def _constructions():
    """The cubes of every construction on random inputs."""
    for dend in _algebra_variants("dendriform", "constructions"):
        yield dendriform_to_prelie(dend).products
        yield dendriform_to_assoc(dend).products
        for perm in _perm_variants(f"constructions/{dend.dim}"):
            yield tensor_assoc(dend, perm).products
    for kind in ("assoc", "prelie"):
        for alg in _algebra_variants(kind, "constructions"):
            yield commutator_lie(alg).products
    for pre in _algebra_variants("prelie", "constructions/tensor"):
        for perm in _perm_variants(f"constructions/tensor/{pre.dim}"):
            yield tensor_lie(pre, perm).products


def _coboundaries():
    """The coproduct cubes of random r-matrices on random algebras."""
    for kind in ("lie", "prelie", "assoc", "dendriform"):
        for alg in _algebra_variants(kind, "coboundary"):
            rng = random.Random(f"coboundary/{kind}/{alg.dim}")
            r = Tensor2(_matrix(rng, alg.dim, alg.dim))
            yield coboundary_coproduct(alg, r).coproducts


def _qperm_variants(seed):
    """Random perm algebras with random nondegenerate forms, in dimensions 1
    and 2, then the valid corpus pair."""
    for n in (1, 2):
        rng = random.Random(f"{seed}/qperm/{n}")
        perm = FinAlgebra("perm", n, _random_cubes(rng, ("mul",), n))
        form = BilinForm(_matrix(rng, n, n))
        while form.kernel_vector() is not None:
            form = BilinForm(_matrix(rng, n, n))
        yield QuadraticPerm(perm, form)
    yield examples.perm_pair_quadratic()


def _bialgebra_variants(kind, seed):
    return zip(_algebra_variants(kind, f"{seed}/algebra"),
               _coalgebra_variants(kind, f"{seed}/coalgebra"))


def _induced():
    """The cubes of the induced and derived bialgebras on random inputs."""
    for dend, theta in _bialgebra_variants("dendriform", "induced"):
        for qp in _qperm_variants(f"induced/{dend.dim}"):
            assoc, delta = induce_asi_bialgebra(dend, theta, qp)
            yield assoc.products, delta.coproducts
        pre, vartheta = dendriform_to_prelie_bialgebra(dend, theta)
        yield pre.products, vartheta.coproducts
    for pre, theta in _bialgebra_variants("prelie", "induced"):
        for qp in _qperm_variants(f"induced/prelie/{pre.dim}"):
            lie, delta = induce_lie_bialgebra(pre, theta, qp)
            yield lie.products, delta.coproducts
    for assoc, delta in _bialgebra_variants("assoc", "induced"):
        lie, cobr = asi_to_lie_bialgebra(assoc, delta)
        yield lie.products, cobr.coproducts


def _lifts():
    """κ and the lift r̂ of random and corpus r-matrices."""
    for n in DIMS:
        r = Tensor2(_matrix(random.Random(f"lift/{n}"), n, n))
        for qp in _qperm_variants(f"lift/{n}"):
            yield kappa_tensor(qp).coeffs, lift_r(r, qp).coeffs
    yield lift_r(examples.r_corner(), examples.perm_pair_quadratic()).coeffs


def _quadratic_perm_reports():
    for seed in ("qperm/a", "qperm/b", "qperm/c"):
        for qp in _qperm_variants(seed):
            yield check_quadratic_perm_identities(qp)


def _bialgebra_square_reports():
    for dend, theta in _bialgebra_variants("dendriform", "bialgebra_square"):
        for qp in _qperm_variants(f"bialgebra_square/{dend.dim}"):
            yield check_bialgebra_square(dend, theta, qp)
    yield check_bialgebra_square(examples.dendriform_pair(),
                                 examples.dendriform_pair_coalgebra(),
                                 examples.perm_pair_quadratic())


def _random_r(alg, seed, sign):
    """A random r on the algebra's basis with τ(r) = sign·r."""
    rng = random.Random(f"{seed}/{alg.kind}/{alg.dim}")
    m = _matrix(rng, alg.dim, alg.dim)
    return Tensor2([[m[i][j] + sign * m[j][i] for j in range(alg.dim)]
                    for i in range(alg.dim)])


CORPUS_R = (examples.r_corner, lambda: examples.r_family(1, 1),
            lambda: examples.r_family(0, 1))


def _corpus_asi():
    """The corpus ASI bialgebra on D⊗B and the lift of r = e₁⊗e₁."""
    qp = examples.perm_pair_quadratic()
    assoc, _delta = induce_asi_bialgebra(
        examples.dendriform_pair(), examples.dendriform_pair_coalgebra(), qp)
    return assoc, lift_r(examples.r_corner(), qp)


def _skew_r_reports(check, seed):
    """check(A, r) on random associative algebras with random skew r, then on
    the corpus ASI bialgebra with r̂."""
    for alg in _algebra_variants("assoc", seed):
        yield check(alg, _random_r(alg, seed, -1))
    yield check(*_corpus_asi())


def _symmetric_r_reports(check, seed):
    """check(D, r) on random dendriform algebras with random symmetric r,
    then on the corpus pair with the corpus r."""
    for alg in _algebra_variants("dendriform", seed):
        yield check(alg, _random_r(alg, seed, 1))
    for make_r in CORPUS_R:
        yield check(examples.dendriform_pair(), make_r())


def _lift_reports(check, alg, seed):
    """check(alg, r, qp) for the corpus r and every quadratic perm variant."""
    for make_r in CORPUS_R:
        for qp in _qperm_variants(seed):
            yield check(alg, make_r(), qp)


def _ooperator_transfer_reports():
    D = examples.dendriform_pair()
    for make_r in CORPUS_R:
        yield transfer_dend_ooperator_to_prelie(D, sharp(make_r()))
    assoc, rhat = _corpus_asi()
    yield transfer_assoc_ooperator_to_lie(assoc, sharp(rhat))


TRANSFER_CASES = {
    "transfer/aybe_to_cybe": lambda: _skew_r_reports(transfer_aybe_to_cybe, "aybe"),
    "transfer/assoc_cobound_to_lie": lambda: _skew_r_reports(
        transfer_assoc_cobound_to_lie, "assoc_cobound"),
    "transfer/dybe_to_plybe": lambda: _symmetric_r_reports(transfer_dybe_to_plybe, "dybe"),
    "transfer/dend_cobound_to_prelie": lambda: _symmetric_r_reports(
        transfer_dend_cobound_to_prelie, "dend_cobound"),
    "transfer/plybe_lift": lambda: _lift_reports(
        transfer_plybe_lift, dendriform_to_prelie(examples.dendriform_pair()), "plybe_lift"),
    "transfer/induced_lie_cobracket": lambda: _lift_reports(
        transfer_induced_lie_cobracket, dendriform_to_prelie(examples.dendriform_pair()),
        "induced_lie"),
    "transfer/dybe_lift": lambda: _lift_reports(
        transfer_dybe_lift, examples.dendriform_pair(), "dybe_lift"),
    "transfer/induced_asi_coproduct": lambda: _lift_reports(
        transfer_induced_asi_coproduct, examples.dendriform_pair(), "induced_asi"),
    "transfer/ooperator": _ooperator_transfer_reports,
}


CASES = {
    **{f"axioms/{k}": (lambda k=k: _axiom_reports(k)) for k in KIND_OPS},
    **{f"bimodule/{k}": (lambda k=k: _bimodule_reports(k)) for k in KIND_BIMODULE_ACTIONS},
    **{f"coalgebra/{k}": (lambda k=k: _coalgebra_reports(k)) for k in KIND_COOPS},
    **{f"bialgebra/{k}": (lambda k=k: _bialgebra_reports(k, "corrected"))
       for k in ("lie", "prelie", "assoc")},
    **{f"bialgebra/dendriform/{r}": (lambda r=r: _bialgebra_reports("dendriform", r))
       for r in ("corrected", "symmetric", "literal")},
    **{f"ooperator/{k}": (lambda k=k: _ooperator_reports(k)) for k in KIND_BIMODULE_ACTIONS},
    "square": _square_reports,
    "quadratic_perm_identities": _quadratic_perm_reports,
    "bialgebra_square": _bialgebra_square_reports,
    **TRANSFER_CASES,
}

LAW_SHA256 = {
    "axioms/assoc": "844354fd7436966a5a4acd869b9b8d7d8d330731be476c11f5c8c00904ca7f8b",
    "axioms/dendriform": "11ea7e0f8896252240d9bc976e61427a1ba6ee1da28154a506ea57e3ff379416",
    "axioms/lie": "cce5ab86e7b5e3b8be5ab23c39a3ce08923c95f2075712f6a4a6029c9cda657e",
    "axioms/perm": "cfc996d8d3bf4a6f8a3b2f860516d09dbe043a2447078bc26af60fd5fffbb63e",
    "axioms/prelie": "ab6f78544d1f2c693b228b8e3127e8ed21be9397734576516437540392f50329",
    "bialgebra/assoc": "f98b2c44f1e3bc1110fdcdb404e32732648f67aa80012344b185eb3b66965b5b",
    "bialgebra/dendriform/corrected": "312c03f762809e4f7131662c8f81ff9ea9b0f6358604ad38da8be8529ea7d870",
    "bialgebra/dendriform/literal": "b0688716525815ada14237768147cdb0e42fd20b677aa7dcec199b05c203686d",
    "bialgebra/dendriform/symmetric": "2304ffe91cd57637f6d7a6b47a951050e3b7bb5162175148a8ed9b1c0fff328e",
    "bialgebra/lie": "3fc8eee39a282210772905b2accb8eeb08ffb9c1c368e5b451f0baa0a3248c25",
    "bialgebra/prelie": "09efdb33f70af74c68c4209162b7df6a177adf3dd5a9acbd0fee8d0b2d3d4fa0",
    "bialgebra_square": "aa1a21693ecf8fffeaf80de092cb81a9f37022075d6bb46a9b6ee6418ffcf794",
    "bimodule/assoc": "7cec636cbada7cc4e88697dd28b969700fa348070f338f0d7c655172fedce848",
    "bimodule/dendriform": "ef49f37c6aa02ebeb12f8969ef54013663c8dbf6100ed20e87d055568279c4e1",
    "bimodule/lie": "b2943921b0a1ff85ff763eba7486e87ea49aa50cc9141f18c8d85eb01f2a8691",
    "bimodule/prelie": "71a396a15ef614f7b54658338c053985f58e9150a5b39e2a294c1386d26beb81",
    "coalgebra/assoc": "8dc074ca782e7d497c08970c4d31acc4fdd9d2044542883c81506f7282b2346d",
    "coalgebra/dendriform": "00dc803692b67ca000d430c896af4a664cdb6597f622ac2ea709678d6c234315",
    "coalgebra/lie": "d7afa3d58ef968eb3a26cd597a11f7fe1c6ac9512ec9b2475c9d6e5d04dd8dbf",
    "coalgebra/perm": "3e81de28b0330ab56aaf5ea624ab313e974de95f4c34063774933f2230b40415",
    "coalgebra/prelie": "5d1054292824694c0fe258389717417ed56b651ac32198ae16efa8c1bee25923",
    "ooperator/assoc": "f2b7d6b69287a350c57ca28f443875ef800f1794018e277d7cf8d5103bbfff15",
    "ooperator/dendriform": "3baee793890137d69969886801b2d14d68beda363a5720b2541f9b67a73b28a7",
    "ooperator/lie": "84358f4bca96abe9ab9aa6cbc057cb4ef3473f440efe4c5b13103a84dbea33eb",
    "ooperator/prelie": "e09f88412002434851174b1d55c5368066e4d9ac84be2ab5414bed0d81bf0c4d",
    "quadratic_perm_identities": "fbff744add1d7d187b616e6aec74a6c9c6a800943db5a93b5fe80fb425e5d32a",
    "square": "f680deb9f2093a52076dfc0f6762777c14f18d36336f0876a0b27413fce2e77c",
    "transfer/assoc_cobound_to_lie": "95956299f9f0fe9c2a94352886fe988cafa38f5eb88a9457be87178e5653c1da",
    "transfer/aybe_to_cybe": "086b2cd9d6a441ca79baf80efeb8bb6e5b1ade3eb8b48602bc7eaafa186bcbe1",
    "transfer/dend_cobound_to_prelie": "b995e6c7d4cf0dc17194e5d9d0536904a98a6a80c38b4c26811e3ca6cfecb441",
    "transfer/dybe_lift": "c1cc13a173753172c5483a5f72f290d86c83193cb90729fd493520cb82714955",
    "transfer/dybe_to_plybe": "fe1a361ca3ab0f2893f6ff8623b50b2fea9b442e4d11ab4fb3158c025d6026d9",
    "transfer/induced_asi_coproduct": "d449b5e84e6d3683f193f0b986f5f210c9bd986443c2005bbd4eaf9c6f0aeffa",
    "transfer/induced_lie_cobracket": "33648f3da3d780a40770603e07ed08125bfa7a73b369a12cbacbd9a2f3e116fe",
    "transfer/ooperator": "3d72e6b925075ee186fbf3181e1629e56e06f1d72bf418d721cf390fe2ecc636",
    "transfer/plybe_lift": "a40eb9b15ced7a8934a6aeb68aa822623d47c4b5a20f0d7ee79b5c23bee5c4b4",
}

CONSTRUCTIONS_SHA256 = "42d29c3b82c96469c3894afc1c1d9d7bda3f305008a40beb90c476f847112114"
INDUCED_SHA256 = "764e354c0675549562d9c8465f7d72757b2726072a7143f5f64c337e745f69a8"
LIFT_SHA256 = "dd73bfc89474990cee7c365744cb47abb7b1fe73ee4c4d2578f208083f312ee2"
COBOUNDARY_SHA256 = "2c5e612a1fe338046711095befa1150d2b584c37d76c50b8b696bdf25fbe1f58"


def _digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.ok, rep.first_violation, rep.residuals)).encode())
    return h.hexdigest()


def test_every_case_is_pinned():
    assert set(LAW_SHA256) == set(CASES)


def test_coboundary_cubes_are_stable():
    h = hashlib.sha256()
    for cubes in _coboundaries():
        h.update(repr(cubes).encode())
    assert h.hexdigest() == COBOUNDARY_SHA256


def test_construction_cubes_are_stable():
    h = hashlib.sha256()
    for cubes in _constructions():
        h.update(repr(cubes).encode())
    assert h.hexdigest() == CONSTRUCTIONS_SHA256


def test_induced_cubes_are_stable():
    h = hashlib.sha256()
    for cubes in _induced():
        h.update(repr(cubes).encode())
    assert h.hexdigest() == INDUCED_SHA256


def test_lift_cubes_are_stable():
    h = hashlib.sha256()
    for cubes in _lifts():
        h.update(repr(cubes).encode())
    assert h.hexdigest() == LIFT_SHA256


@pytest.mark.parametrize("case", sorted(CASES))
def test_law_residuals_are_stable(case):
    assert _digest(CASES[case]()) == LAW_SHA256[case]
