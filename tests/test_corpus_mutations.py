"""Mutated corpus files are read faithfully or rejected, never crash the CLI.

Each corpus file is changed at one place: a key deleted, a value replaced by
one of another JSON type, an index or ``dim`` moved out of range, or a
coefficient rewritten in a non-canonical form.  The command that reads the
file must then exit 0 or 1 (the file still means something) or 2 (it is
rejected); exit 3, an internal error, is a fault of the program.  Duplicate
entries are left out: they are still summed (see ROADMAP, strict input
contract).
"""

import json
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dendrikit.cli import main
from dendrikit.io import MAX_DIM

CORPUS = Path(__file__).resolve().parent.parent / "src" / "dendrikit" / "corpus"


def _corpus(name):
    return str(CORPUS / name)


# The commands that read each corpus file; "{}" is the mutated copy.
COMMANDS = {
    "assoc-truncated-rb.json": [["check", "{}"]],
    "dendriform-ooperator.json": [["ooperator", "--spec", "{}"]],
    "prelie-ooperator.json": [["ooperator", "--spec", "{}"]],
    "ex-D-alg-iii.json": [["check", "{}"],
                          ["ybe", "--eq", "dendriform", "--algebra", "{}",
                           "--r", _corpus("r-e1e1.json")]],
    "ex-dendind-bialgebra.json": [["check", "{}"],
                                  ["square", "--dendriform", "{}", "--qperm",
                                   _corpus("perm-quadratic.json"), "--bialgebra"]],
    "perm-quadratic.json": [["check", "{}"],
                            ["square", "--dendriform", _corpus("ex-dendind-bialgebra.json"),
                             "--qperm", "{}", "--bialgebra"]],
    **{name: [["ybe", "--eq", "dendriform", "--algebra", _corpus("ex-D-alg-iii.json"),
               "--r", "{}"]]
       for name in ("r-beta0-gamma1.json", "r-beta1-gamma1.json", "r-e1e1.json",
                    "r-nonsolution.json")},
}

INDEX_KEYS = {"left", "right", "index", "input"}
# Values of every JSON type; a swap draws one of a type other than the old value's.
OTHER_VALUES = [None, True, False, 0, 1, -1, 2.5, "", "x", "1", [], [0], ["1"], {}, {"x": 1}]


def _nodes(node, path=()):
    """Every (path, value) below the root, depth first."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


_DELETE = object()


def _set(root, path, value):
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _non_canonical(text: str) -> list:
    """Spellings of the rational ``text`` that the format rejects."""
    v = Fraction(text)
    num, den = v.numerator, v.denominator
    out = [f"+{text}", f" {text}", f"{text} ", f"{2 * num}/{2 * den}", f"{num}/{den}/1",
           f"{num}.0", f"{num}/0", text.replace("1", "١")]
    out.append(f"-0{text[1:]}" if text.startswith("-") else f"0{text}")
    if den == 1:
        out.append(f"{num}/1")
    return [s for s in out if s != text]


def _type_key(x):
    return "bool" if isinstance(x, bool) else type(x).__name__


@st.composite
def mutations(draw):
    """(corpus file, mutated JSON object, description of the change)."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    obj = json.loads((CORPUS / name).read_text())
    nodes = list(_nodes(obj))
    kind = draw(st.sampled_from(["delete", "swap", "range", "coeff"]))
    if kind == "delete":
        path, _ = draw(st.sampled_from([(p, v) for p, v in nodes if isinstance(p[-1], str)]))
        value = _DELETE
    elif kind == "swap":
        path, old = draw(st.sampled_from(nodes))
        value = draw(st.sampled_from([v for v in OTHER_VALUES
                                      if _type_key(v) != _type_key(old)]))
    elif kind == "range":
        dim = obj["dim"]
        sites = [p for p, _v in nodes if p[-1] in INDEX_KEYS or p == ("dim",)]
        path = draw(st.sampled_from(sites))
        choices = ([0, -1, dim - 1, dim + 1, MAX_DIM + 1] if path == ("dim",)
                   else [-1, dim, dim + 1, 2 ** 63])
        value = draw(st.sampled_from(choices))
    else:
        sites = [(p, v) for p, v in nodes
                 if isinstance(v, str) and (p[-1] == "coeff" or p[0] in ("form", "matrix"))]
        path, old = draw(st.sampled_from(sites))
        value = draw(st.sampled_from(_non_canonical(old)))
    _set(obj, path, value)
    return name, obj, f"{kind} {list(path)} -> {value if value is not _DELETE else '(deleted)'}"


def _exit_codes(name, obj, tmp_path) -> list:
    target = tmp_path / name
    target.write_text(json.dumps(obj), encoding="utf-8")
    runner = CliRunner()
    return [(args, runner.invoke(main, [str(target) if a == "{}" else a for a in args]))
            for args in COMMANDS[name]]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations())
def test_a_mutated_corpus_file_never_exits_3(tmp_path, mutation):
    name, obj, change = mutation
    for args, res in _exit_codes(name, obj, tmp_path):
        assert res.exit_code in (0, 1, 2), (name, change, args[0], res.output)


def test_every_mutation_kind_reaches_a_rejection(tmp_path):
    """Each kind of change, at a site every corpus algebra file has, exits 2."""
    obj = json.loads((CORPUS / "ex-D-alg-iii.json").read_text())
    for path, value in ((("format",), _DELETE), (("dim",), "2"),
                        (("products", "lt", 0, "left"), 2),
                        (("products", "lt", 0, "result", 0, "coeff"), "+1")):
        changed = json.loads(json.dumps(obj))
        _set(changed, path, value)
        for _args, res in _exit_codes("ex-D-alg-iii.json", changed, tmp_path):
            assert res.exit_code == 2, (path, res.output)
