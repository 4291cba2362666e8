"""Every module uses each name it imports, and the package each name it defines.

The package modules (apart from ``__init__``, which re-exports) and the test
modules are parsed with ``ast``; a name bound by an import and never read
elsewhere in the module is reported.  A name listed in ``__all__`` counts as
used.

A top-level function, class or constant of ``src/dendrikit`` must be read
somewhere in ``src/``, ``tests/`` or ``bench/``: as a name, as an attribute,
or as a string, since the benchmark's tracer (``bench/spans.py``) looks
functions up by name.  This module is not counted as a reader, so naming a
definition here does not keep it alive.  The ones that ``src/`` and ``bench/``
do not read are pinned, each with the reason it stays, so a new one fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dendrikit").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
THIS = Path(__file__).resolve()
PROGRAM = [p for p in READERS if p.relative_to(ROOT).parts[0] != "tests"]
# Defined on purpose and read by nothing yet: the package version, and the
# span claim that ROADMAP item 3 turns into code (or deletes).
UNREAD_ALLOWED = {"__version__", "CASI_FINITE_SPAN"}
# The package definitions that neither src/ nor bench/ reads, and why each stays.
NOT_READ_BY_THE_PROGRAM = {
    "__version__": "the package version",
    "CASI_FINITE_SPAN": "the span claim that ROADMAP item 3 turns into code or deletes",
    "perm_pair_quadratic": "the quadratic perm pair of the induced-bialgebra tests",
    "r_corner": "a family of dendriform Yang-Baxter solutions the tests transfer",
    "r_family": "a family of dendriform Yang-Baxter solutions the tests transfer",
    "r_nonsolution": "the tensor the Yang-Baxter tests must reject",
    "factorizable_check": "factorizability, a claim of the paper with no command yet",
    "transfer_plybe_lift": "the pre-Lie lift theorem, with no command yet",
}
MODULES = sorted(
    [p for p in (ROOT / "src" / "dendrikit").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: p.relative_to(ROOT).as_posix(),
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # the root name of a dotted use such as ``a.b.c`` is an ast.Name
        # already; string entries of ``__all__`` are uses too
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in getattr(node.value, "elts", ())
                if isinstance(e, ast.Constant)
            }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    src = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(src) == [(1, "os"), (2, "dumps")]


def test_dotted_and_aliased_uses_count():
    src = "import os.path\nimport json as j\nos.path.join('a')\nj.loads('1')\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_definitions(source: str) -> list:
    """The names a module binds at top level by ``def``, ``class`` or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def reads(source: str) -> set:
    """Every name read, attribute named and string constant in a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_detects_an_unread_definition():
    defined = top_level_definitions("X = 1\nY: int = 2\ndef f(): pass\nclass C: pass\n")
    assert defined == ["X", "Y", "f", "C"]
    used = reads("import m\nm.f()\nprint(X)\nsetattr(m, 'C', 0)\nY = 3\n")
    assert [name for name in defined if name not in used] == ["Y"]


def unread_definitions(package, readers) -> list:
    """The top-level definitions of ``package`` that no file of ``readers`` reads."""
    used = set().union(*(reads(p.read_text(encoding="utf-8")) for p in readers))
    return [
        f"{path.name}: {name}"
        for path in package
        for name in top_level_definitions(path.read_text(encoding="utf-8"))
        if name not in used
    ]


def test_a_pin_is_not_a_read(tmp_path):
    # A pin names its definition as a string; were the file holding the pins
    # counted as a reader, a pinned definition nothing else read would pass.
    (tmp_path / "m.py").write_text("def f(): pass\ndef g(): pass\n")
    (tmp_path / "test_m.py").write_text("from m import g\ng()\n")
    (tmp_path / "pins.py").write_text("PINS = {'f': 'why it stays'}\n")
    package, tests, pins = (tmp_path / n for n in ("m.py", "test_m.py", "pins.py"))
    assert unread_definitions([package], [tests, pins]) == []
    assert unread_definitions([package], [tests]) == ["m.py: f"]
    assert THIS in READERS


def test_every_definition_is_read():
    readers = [p for p in READERS if p != THIS]
    unread = [
        entry for entry in unread_definitions(PACKAGE, readers)
        if entry.split(": ")[1] not in UNREAD_ALLOWED
    ]
    assert unread == []


def test_definitions_only_tests_read_are_pinned():
    unread = {entry.split(": ")[1] for entry in unread_definitions(PACKAGE, PROGRAM)}
    assert unread == set(NOT_READ_BY_THE_PROGRAM)
