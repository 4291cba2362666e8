"""Every refusal of the library: the call, its arguments and the exact message.

Each row calls one public function or constructor with an input it must
refuse, and pins the `ValueError` (or `io.FileFormatError`) it raises.  A
`File` argument is written to a file first and passed as its path.
"""

import json
from types import SimpleNamespace

import pytest

from dendrikit.affinization import (
    Window,
    check_affine_associativity,
    check_completed_asi,
    check_completed_coassociativity,
)
from dendrikit.algebras import KIND_OPS, Bimodule, FinAlgebra, dendriform_from_rota_baxter
from dendrikit.bialgebras import (
    KIND_COOPS,
    CoalgStruct,
    asi_to_lie_bialgebra,
    check_bialgebra,
    dendriform_to_prelie_bialgebra,
    induce_asi_bialgebra,
    induce_lie_bialgebra,
    make_quadratic_perm,
)
from dendrikit.exact import BilinForm, LinMap, Tensor2, flip, sharp
from dendrikit.functors import commutator_lie, dendriform_to_assoc, dendriform_to_prelie
from dendrikit.io import FileFormatError, parse_algebra
from dendrikit.ybe import check_ooperator, coboundary_coproduct, factorizable_check


def _zero(n: int) -> list:
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def _algebra(kind: str, n: int = 2) -> FinAlgebra:
    return FinAlgebra(kind, n, {op: _zero(n) for op in KIND_OPS[kind]})


def _coalgebra(kind: str, n: int = 2) -> CoalgStruct:
    return CoalgStruct(kind, n, {op: _zero(n) for op in KIND_COOPS[kind]})


class File(dict):
    """The JSON of a structure file, passed to the call as a path."""


PERM = {"format": 1, "kind": "perm", "dim": 2, "products": {"mul": []}}
QPERM = SimpleNamespace(algebra=_algebra("perm"))

REFUSALS = [
    # algebras
    (FinAlgebra, ("assoc", 1, {"lt": _zero(1)}),
     "assoc algebra needs products ['mul'], got ['lt']"),
    (FinAlgebra, ("assoc", 2, {"mul": _zero(1)}), "product 'mul' cube is not 2^3"),
    (FinAlgebra, ("assoc", 1, {"mul": [[[0, 0]]]}), "product 'mul' cube is not 1^3"),
    (Bimodule, (_algebra("assoc"), 2, {"l": _zero(1), "r": _zero(2)}),
     "action 'l' needs 2 matrices"),
    (Bimodule, (_algebra("assoc"), 1, {"l": _zero(2)[:1] * 2, "r": _zero(2)}),
     "action 'l' matrices must be 1x1"),
    (Bimodule, (_algebra("perm"), 2, {}), "no bimodule notion for kind 'perm'"),
    (dendriform_from_rota_baxter, (_algebra("prelie"), LinMap([[0, 0], [0, 0]])),
     "Rota-Baxter splitting needs an associative algebra"),
    # bialgebras
    (CoalgStruct, ("hopf", 1, {}), "unknown coalgebra kind 'hopf'"),
    (check_bialgebra, (_algebra("assoc"), _coalgebra("assoc", 1)),
     "algebra and coalgebra must share kind and dimension"),
    (check_bialgebra, (_algebra("perm"), _coalgebra("perm")),
     "no bialgebra notion for kind 'perm'"),
    (check_bialgebra, (_algebra("dendriform"), _coalgebra("dendriform"), "reversed"),
     "dbi6_reading must be 'corrected', 'symmetric' or 'literal'"),
    (make_quadratic_perm, (_algebra("assoc"), BilinForm([[0, 1], [-1, 0]])),
     "quadratic structure needs a perm algebra"),
    (make_quadratic_perm, (_algebra("perm"), BilinForm([[0]])),
     "form dimension does not match the algebra"),
    (induce_lie_bialgebra, (_algebra("assoc"), _coalgebra("assoc"), QPERM),
     "expected a pre-Lie algebra with a pre-Lie coproduct"),
    (induce_asi_bialgebra, (_algebra("assoc"), _coalgebra("assoc"), QPERM),
     "expected a dendriform algebra with dendriform coproducts"),
    (asi_to_lie_bialgebra, (_algebra("prelie"), _coalgebra("prelie")),
     "expected an associative algebra with a coproduct"),
    (dendriform_to_prelie_bialgebra, (_algebra("assoc"), _coalgebra("assoc")),
     "expected a dendriform algebra with dendriform coproducts"),
    # functors
    (dendriform_to_prelie, (_algebra("assoc"),), "expected a dendriform algebra"),
    (dendriform_to_assoc, (_algebra("assoc"),), "expected a dendriform algebra"),
    (commutator_lie, (_algebra("lie"),),
     "commutator Lie algebra needs an associative or pre-Lie algebra"),
    # affinization
    (Window, (0,), "window size must be at least 1"),
    (check_completed_asi, (_algebra("assoc"), _coalgebra("assoc"), Window(2)),
     "expected a dendriform algebra with dendriform coproducts"),
    (check_completed_coassociativity,
     (_algebra("dendriform"), _coalgebra("dendriform", 1), Window(2)),
     "algebra and coproducts must share dimension"),
    (check_affine_associativity, (_algebra("assoc"), Window(2)),
     "expected a dendriform algebra"),
    # exact
    (flip, (Tensor2([[0, 0]]),), "flip requires a square tensor"),
    (sharp, (Tensor2([[0, 0]]),), "sharp requires a square tensor"),
    # ybe
    (coboundary_coproduct, (_algebra("perm"), Tensor2([[0, 0], [0, 0]])),
     "no coboundary coproduct for kind 'perm'"),
    (factorizable_check, (_algebra("perm"), Tensor2([[0, 0], [0, 0]])),
     "no factorizability notion for kind 'perm'"),
    # a module over an algebra of a kind with no bimodule notion, which the
    # Bimodule constructor refuses
    (check_ooperator, (SimpleNamespace(algebra=_algebra("perm"), dim=2, tables={}),
                       LinMap([[0, 0], [0, 0]])),
     "no O-operator notion for kind 'perm'"),
    # io
    (parse_algebra, (File(PERM, products={"mul": {}}),),
     "products.mul: expected a list of entries"),
    (parse_algebra, (File(PERM, form=[["0", "1"]]),), "form: expected 2 rows"),
    (parse_algebra, (File(PERM, form=[["0", "1"], ["-1"]]),), "form[1]: expected 2 entries"),
]


@pytest.mark.parametrize("call,args,message", REFUSALS,
                         ids=[f"{call.__name__}-{i}" for i, (call, *_r) in enumerate(REFUSALS)])
def test_each_library_refusal_raises_its_message(tmp_path, call, args, message):
    for i, arg in enumerate(args):
        if isinstance(arg, File):
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(arg))
            args = (*args[:i], path, *args[i + 1:])
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message
    assert isinstance(info.value, FileFormatError) == (call is parse_algebra)
