"""Every law table of the package compiles and runs on the kernel, and each
is written once.

A law table is a pair (output labels, terms), each term
``(sign, (table, labels), …)`` as `exact.contract_cells` takes it.  Each one
is found by walking the module-level values of the modules that write laws
(dicts, tuples and lists, at any depth), so a new table is covered without
being listed.  Each is run at extent 3 on dense tables (the packed plan,
where the law has one) and on the same tables read as sparse (the plain
plan), and the two must give the same nonzero cells.  A term that lacks an
output label then fails here, not at its first caller.
"""

import ast
from itertools import product
from math import lcm, prod
from pathlib import Path

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


# the scale of each table a law reads, in order of first use
SCALES = (1, 2, 3, 5, 7, 11, 13, 17)


def _tables(terms, n: int, dense: bool, empty: str | None = None) -> dict:
    """A table with every cell nonzero for each name the terms read, except
    ``empty``, which has no entries; each over its own scale (``SCALES``)."""
    arity = {}
    for _sign, *factors in terms:
        for name, labels in factors:
            assert arity.setdefault(name, len(labels)) == len(labels), name
    assert len(arity) <= len(SCALES)
    return {name: IntTable(
        scale=scale, size=n ** k if dense else 0,
        entries=[] if name == empty else [(idx, 1 + sum(idx))
                                          for idx in product(range(n), repeat=k)])
            for (name, k), scale in zip(arity.items(), SCALES)}


def _den(terms, tables: dict) -> int:
    """The lcm over every term of the product of its tables' scales."""
    return lcm(*(prod(tables[name].scale for name, _labels in factors)
                 for _sign, *factors in terms))


@pytest.mark.parametrize("path", sorted(LAWS))
def test_every_law_table_compiles_and_packs_to_the_plain_cells(path):
    out, terms = LAWS[path]
    dense, sparse = _tables(terms, 3, True), _tables(terms, 3, False)
    packed, den = contract_cells(terms, dense, out, 3)
    plain, plain_den = contract_cells(terms, sparse, out, 3)
    assert den == plain_den == _den(terms, dense) == _den(terms, sparse)
    assert type(plain) is list and len(packed) == len(plain) == 3 ** len(out)
    assert isinstance(packed, PackedCells) == (len(out) >= 4)
    assert list(nonzero_cells(packed)) == list(nonzero_cells(plain))


@pytest.mark.parametrize("path", sorted(LAWS))
def test_a_table_with_no_entries_keeps_its_scale_in_den(path):
    """Every term's scale enters D, also where the term contributes nothing:
    with the last table the law reads left empty, D is the lcm over every
    term on both paths, and the two give the same cells."""
    out, terms = LAWS[path]
    empty = [name for _sign, *factors in terms for name, _labels in factors][-1]
    dense, sparse = (_tables(terms, 3, d, empty) for d in (True, False))
    packed, den = contract_cells(terms, dense, out, 3)
    plain, plain_den = contract_cells(terms, sparse, out, 3)
    assert den == plain_den == _den(terms, dense) == _den(terms, sparse)
    assert list(nonzero_cells(packed)) == list(nonzero_cells(plain))


def law_literals(source: str):
    """(line, law) for each tuple literal of ``source`` that is a law table.

    The walk reads the source, not the module: CPython merges equal constant
    tuples of a module into one object, so a law written twice is one value
    at run time."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Tuple):
            try:
                value = ast.literal_eval(node)
            except ValueError:
                continue
            if _is_law(value):
                yield node.lineno, value


def repeated_laws(sources: dict) -> list:
    """The sites ("file:line") of each law literal written more than once
    in ``sources``, a dict from file name to source."""
    sites = {}
    for name, source in sources.items():
        for line, law in law_literals(source):
            sites.setdefault(law, []).append(f"{name}:{line}")
    return [where for where in sites.values() if len(where) > 1]


def test_detects_a_law_written_twice():
    law = '("ij", ((+1, ("r", "ij")), (-1, ("r", "ji"))))'
    sources = {"a.py": f"X = {law}\nY = {{'k': {law}}}\n",
               "b.py": f"Z = {law}\nW = ('ij', ((+1, ('r', 'ij')),))\nV = (W, X)\n"}
    assert repeated_laws(sources) == [["a.py:1", "a.py:2", "b.py:1"]]


def test_each_law_literal_is_written_once():
    package = Path(algebras.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert repeated_laws(sources) == []


def test_the_coregular_bimodule_has_the_actions_of_each_kind():
    """Both bimodules of a kind have its actions, in the order of its cubes."""
    coregular = {kind: tuple(actions) for kind, actions in ybe.COREGULAR_BIMODULE.items()}
    assert coregular == algebras.KIND_BIMODULE_ACTIONS
