"""A file is read straight into its tables, and written from their entries.

`io` reads the products, coproducts and tensor entries of a file into
`exact.IntTable`s without building a nested cube.  Here the tables of every
corpus file, and of drawn sparse files with repeated entries and entries that
cancel, are compared with the `IntTable` of the cube that the dense reading
(a zero cube, each coefficient added at its index) builds: the same scale,
entries and density.  The nested cubes, a view on the tables, must equal that
cube, and writing the tables back gives a file that reads the same.
"""

import json
import tracemalloc
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dendrikit.algebras import KIND_OPS
from dendrikit.bialgebras import KIND_COOPS
from dendrikit.exact import IntTable, freeze_cube
from dendrikit.io import format_coeff, parse_algebra, serialize_parsed

CORPUS = Path(str(files("dendrikit") / "corpus"))


def _dense_cubes(obj: dict) -> dict:
    """Section ↦ name ↦ the cube of a file object, read the dense way: each
    coefficient added into a zero cube at its index."""
    n = obj["dim"]

    def zero():
        return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]

    out = {}
    if obj["kind"] == "tensor":
        mat = [[Fraction(0)] * n for _ in range(n)]
        for e in obj["entries"]:
            mat[e["left"]][e["right"]] += Fraction(e["coeff"])
        return {"entries": {"r": mat}}
    out["products"] = {nm: zero() for nm in KIND_OPS[obj["kind"]]}
    for nm, entries in obj.get("products", {}).items():
        for e in entries:
            for t in e["result"]:
                out["products"][nm][t["index"]][e["left"]][e["right"]] += Fraction(t["coeff"])
    if "coproducts" in obj:
        out["coproducts"] = {nm: zero() for nm in KIND_COOPS[obj["kind"]]}
        for nm, entries in obj["coproducts"].items():
            for e in entries:
                for t in e["result"]:
                    out["coproducts"][nm][e["input"]][t["left"]][t["right"]] += Fraction(
                        t["coeff"])
    return out


def _read_tables(path: Path) -> dict:
    """Section ↦ name ↦ (table, nested view) of a parsed file."""
    pf = parse_algebra(path)
    if pf.kind == "tensor":
        return {"entries": {"r": (pf.tensor.table, pf.tensor.coeffs)}}
    out = {"products": {nm: (pf.algebra.tables[nm], pf.algebra.products[nm])
                        for nm in pf.algebra.tables}}
    if pf.coalgebra is not None:
        out["coproducts"] = {nm: (pf.coalgebra.tables[nm], pf.coalgebra.coproducts[nm])
                             for nm in pf.coalgebra.tables}
    return out


def _reads_as_dense(path: Path):
    obj = json.loads(path.read_text())
    dense = _dense_cubes(obj)
    read = _read_tables(path)
    assert read.keys() == dense.keys()
    for section, cubes in dense.items():
        assert list(read[section]) == list(cubes), section
        for nm, cube in cubes.items():
            frozen = tuple(map(tuple, cube)) if section == "entries" else freeze_cube(cube)
            want = IntTable(frozen)
            table, view = read[section][nm]
            assert (table.scale, table.entries, table.dense) == (
                want.scale, want.entries, want.dense), (section, nm)
            assert view == frozen, (section, nm)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_corpus_files_read_as_the_tables_of_their_dense_cubes(path):
    _reads_as_dense(path)


_COEFFS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)).map(format_coeff)


@st.composite
def sparse_files(draw):
    """A file object of any kind with a few entries per table.  An index may
    be given again, and a repeated index may cancel its first coefficient."""
    kind = draw(st.sampled_from(sorted(KIND_OPS) + ["tensor"]))
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)

    def terms(keys):
        out = draw(st.lists(st.fixed_dictionaries(
            {**{k: index for k in keys}, "coeff": _COEFFS}), max_size=4))
        if out and draw(st.booleans()):
            again = dict(draw(st.sampled_from(out)))
            if draw(st.booleans()):
                again["coeff"] = format_coeff(-Fraction(again["coeff"]))
            out.append(again)
        return out

    def section(names, outer, inner):
        return {nm: [{**{k: draw(index) for k in outer}, "result": terms(inner)}
                     for _ in range(draw(st.integers(0, 3)))]
                for nm in names if draw(st.booleans())}

    obj = {"format": 1, "kind": kind, "dim": n}
    if kind == "tensor":
        obj["entries"] = terms(("left", "right"))
        return obj
    obj["products"] = section(KIND_OPS[kind], ("left", "right"), ("index",))
    if draw(st.booleans()):
        obj["coproducts"] = section(KIND_COOPS[kind], ("input",), ("left", "right"))
    return obj


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_files())
def test_drawn_files_read_as_the_tables_of_their_dense_cubes(tmp_path, obj):
    path = tmp_path / "drawn.json"
    path.write_text(json.dumps(obj))
    _reads_as_dense(path)
    # written from the table entries, the file reads the same
    again = tmp_path / "again.json"
    again.write_text(json.dumps(serialize_parsed(parse_algebra(path))))
    assert _dense_cubes(json.loads(again.read_text())) == _dense_cubes(obj)
    _reads_as_dense(again)


def test_a_sparse_file_of_the_largest_dim_reads_in_little_memory(tmp_path):
    # two product constants and one coproduct coefficient at dim 64: the
    # dense reading held four dim³ cubes (13.8 MiB at its peak)
    path = tmp_path / "d64.json"
    path.write_text(json.dumps({
        "format": 1, "kind": "dendriform", "dim": 64,
        "products": {
            "lt": [{"left": 0, "right": 63, "result": [{"index": 5, "coeff": "1"}]}],
            "gt": [{"left": 63, "right": 1, "result": [{"index": 2, "coeff": "-2/3"}]}]},
        "coproducts": {
            "co_gt": [{"input": 3, "result": [{"left": 1, "right": 62, "coeff": "1"}]}]}}))
    parse_algebra(path)  # the first read of the file, outside the measurement
    tracemalloc.start()
    try:
        pf = parse_algebra(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert pf.algebra.tables["gt"].entries == [((2, 63, 1), -2)]
    assert pf.algebra.tables["gt"].scale == 3
    assert pf.coalgebra.tables["co_lt"].entries == []
    assert pf.coalgebra.tables["co_gt"].entries == [((3, 1, 62), 1)]
