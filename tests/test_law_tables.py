"""Every law table of the package compiles and runs on the kernel.

A law table is a pair (output labels, terms), each term
``(sign, (table, labels), …)`` as `exact.contract_cells` takes it.  Each one
is found by walking the module-level values of the modules that write laws
(dicts, tuples and lists, at any depth), so a new table is covered without
being listed.  Each is run at extent 3 on dense tables (the packed plan,
where the law has one) and on the same tables read as sparse (the plain
plan), and the two must give the same nonzero cells.  A term that lacks an
output label then fails here, not at its first caller.
"""

from itertools import product

import pytest

from dendrikit import affinization, algebras, bialgebras, cli, functors, ybe
from dendrikit.exact import IntTable, PackedCells, contract_cells, nonzero_cells

MODULES = (algebras, bialgebras, functors, ybe, affinization, cli)


def _is_law(x) -> bool:
    return (isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], str)
            and isinstance(x[1], tuple) and bool(x[1])
            and all(isinstance(t, tuple) and len(t) > 1 and isinstance(t[0], int)
                    and all(isinstance(f, tuple) and len(f) == 2
                            and all(isinstance(y, str) for y in f) for f in t[1:])
                    for t in x[1]))


def _laws(x, path: str):
    """(path, law) for each law table inside ``x``."""
    if _is_law(x):
        yield path, x
    elif isinstance(x, dict):
        for key, value in x.items():
            yield from _laws(value, f"{path}[{key!r}]")
    elif isinstance(x, (tuple, list)):
        for i, value in enumerate(x):
            yield from _laws(value, f"{path}[{i}]")


# path ↦ law, each law under the first path that reaches it (a module reads
# the tables of another under the same name)
_FIRST: dict = {}
for module in MODULES:
    for name, value in vars(module).items():
        for path, law in _laws(value, f"{module.__name__.split('.')[-1]}.{name}"):
            _FIRST.setdefault(law, path)
LAWS = {path: law for law, path in _FIRST.items()}


def test_the_walk_finds_the_laws_of_every_module():
    found = {path.split("[")[0] for path in LAWS}
    assert {"algebras.AXIOMS", "algebras.BIMODULE_LAWS", "bialgebras.COALGEBRA_LAWS",
            "bialgebras.BIALGEBRA_LAWS", "bialgebras.DBI6_READINGS",
            "functors.CONSTRUCTIONS", "ybe.YBE_LAWS", "ybe.LIFT",
            "affinization._SKELETON_LAWS", "affinization._B_LAWS",
            "cli.CUBES_AGREE"} <= found
    assert "affinization._B_LAWS['invariance'][0]" in LAWS
    assert "bialgebras.DBI6_READINGS['literal']" in LAWS
    assert len(LAWS) >= 110 and sum(len(out) >= 4 for out, _terms in LAWS.values()) >= 55


def _tables(terms, n: int, dense: bool) -> dict:
    """A table with every cell nonzero for each name the terms read."""
    arity = {}
    for _sign, *factors in terms:
        for name, labels in factors:
            assert arity.setdefault(name, len(labels)) == len(labels), name
    return {name: IntTable(entries=[(idx, 1 + sum(idx)) for idx in product(range(n),
                                                                          repeat=k)],
                           size=n ** k if dense else 0)
            for name, k in arity.items()}


@pytest.mark.parametrize("path", sorted(LAWS))
def test_every_law_table_compiles_and_packs_to_the_plain_cells(path):
    out, terms = LAWS[path]
    packed, den = contract_cells(terms, _tables(terms, 3, True), out, 3)
    plain, plain_den = contract_cells(terms, _tables(terms, 3, False), out, 3)
    assert type(plain) is list and den == plain_den and len(packed) == len(plain) == 3 ** len(out)
    assert isinstance(packed, PackedCells) == (len(out) >= 4)
    assert list(nonzero_cells(packed)) == list(nonzero_cells(plain))
