"""Every module uses each name it imports, and the package each name it defines.

The package modules (apart from ``__init__``, which re-exports) and the test
modules are parsed with ``ast``; a name bound by an import and never read
elsewhere in the module is reported.  A name listed in ``__all__`` counts as
used.

A top-level function, class or constant of ``src/dendrikit`` must be read
somewhere in ``src/``, ``tests/`` or ``bench/``: as a name, as an attribute,
or as a string, since the benchmark's tracer (``bench/spans.py``) looks
functions up by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dendrikit").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
# Defined on purpose and read by nothing yet: the package version, and the
# span claim that ROADMAP item 3 turns into code (or deletes).
UNREAD_ALLOWED = {"__version__", "CASI_FINITE_SPAN"}
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


def test_every_definition_is_read():
    used = set().union(*(reads(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{path.name}: {name}"
        for path in PACKAGE
        for name in top_level_definitions(path.read_text(encoding="utf-8"))
        if name not in used and name not in UNREAD_ALLOWED
    ]
    assert unread == []
