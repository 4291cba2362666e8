"""A check's residuals are nested on first read, never earlier.

`algebras.Residuals` keeps each law's integer cells and nests a residual
only when something reads it.  Read in any way, it must be the mapping that
nests every law at once, ``{name: nest(fractions(cells, den), dims)}``.  The
CLI's verification commands and worked-example replays read each law's
first violation only, so they must give the same exit code and bytes when
nesting a residual raises, whether their checks pass or fail.
"""

import random
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from dendrikit import examples
from dendrikit.algebras import ROTA_BAXTER_LAW, CheckReport, Residuals, law_residuals
from dendrikit.cli import REPRODUCERS, main
from dendrikit.exact import IntTable, fractions, nest
from dendrikit.functors import dendriform_to_prelie
from dendrikit.ybe import transfer_plybe_lift

from test_integer_path import Sample, reports, samples

CORPUS = Path(__file__).resolve().parent.parent / "src" / "dendrikit" / "corpus"


def _eager(res: Residuals) -> dict:
    return {name: nest(fractions(cells, den), dims)
            for name, (cells, den, dims) in res.flat.items()}


def _unread(res: Residuals) -> Residuals:
    """A copy of ``res`` in which no law is nested yet."""
    copy = Residuals()
    for name, flat in res.flat.items():
        copy.add(name, *flat)
    return copy


def _get_everywhere(res, eager):
    absent = object()
    return ([res.get(name) for name in eager], res.get("no such law", absent) is absent,
            res.get("no such law"))


# Each read of a residual mapping, as a function of the mapping and the
# eagerly nested dict it must equal.  The read's result is compared with the
# same read of the eager dict, by == and by repr.
READS = {
    "==": lambda res, eager: res == eager,
    "== reflected": lambda res, eager: eager == res,
    "!=": lambda res, eager: res != eager,
    "!= reflected": lambda res, eager: eager != res,
    "repr": lambda res, eager: repr(res),
    "str": lambda res, eager: str(res),
    "dict()": lambda res, eager: (type(dict(res)), dict(res)),
    "{**}": lambda res, eager: {**res},
    "copy": lambda res, eager: (type(res.copy()), res.copy()),
    "|": lambda res, eager: res | {},
    "| reflected": lambda res, eager: {} | res,
    "items": lambda res, eager: list(res.items()),
    "values": lambda res, eager: list(res.values()),
    "keys": lambda res, eager: list(res.keys()),
    "get": _get_everywhere,
    "[]": lambda res, eager: [res[name] for name in eager],
    "len": lambda res, eager: len(res),
    "in": lambda res, eager: ([name in res for name in eager], "no such law" in res),
    "iteration": lambda res, eager: list(res),
}


def _reads_as_eager(res: Residuals):
    eager = _eager(res)
    for name, read in READS.items():
        for fresh in (_unread(res), _half_read(res)):
            got, want = read(fresh, eager), read(eager, eager)
            assert got == want and repr(got) == repr(want), name
    assert _unread(res) == _half_read(res) and not _unread(res) != _half_read(res)
    assert isinstance(res, dict)


def _half_read(res: Residuals) -> Residuals:
    """A copy in which every other law has been read already."""
    copy = _unread(res)
    for name in list(copy)[::2]:
        copy[name]
    return copy


def _families(s: Sample):
    """Every finite check family on the sample, and the lift that adds the
    residual of a check it runs to its own."""
    yield from reports(s)
    qp = s.quadratic_perm()
    yield transfer_plybe_lift(dendriform_to_prelie(examples.dendriform_pair()),
                              examples.r_family(s.rng.randint(-2, 2), 1), qp)
    trunc, R = examples.truncated_polynomials(), examples.integration_operator()
    R = R.matrix if s.perturbed else s.tensor(trunc.dim).coeffs
    residuals = law_residuals(ROTA_BAXTER_LAW, {"mul": trunc.tables["mul"],
                                                "R": IntTable(R)}, trunc.dim)
    yield CheckReport.from_residuals("rota-baxter", residuals)


@settings(max_examples=15, deadline=None)
@given(samples())
def test_lazy_residuals_read_as_the_eagerly_nested_ones(s):
    for rep in _families(s):
        assert isinstance(rep.residuals, Residuals), rep.subject
        _reads_as_eager(rep.residuals)
        eager = CheckReport(rep.subject, _eager(rep.residuals), rep.ok, rep.first_violation,
                            rep.violations)
        fresh = CheckReport.from_residuals(rep.subject, _unread(rep.residuals))
        assert fresh == eager and eager == fresh, rep.subject
        assert repr(fresh) == repr(eager), rep.subject


def test_an_empty_mapping_reads_as_an_empty_dict():
    res = Residuals()
    assert res == {} and repr(res) == "{}" and dict(res) == {} and not res
    assert res.violations == {} and res.flat == {}


def test_one_law_is_nested_on_its_first_read_only():
    rep = reports(Sample(random.Random(1), 2, 0.3, True))
    res = next(rep).residuals
    name = next(iter(res))
    first = res[name]
    assert res[name] is first
    assert res.get(name) is first and dict(res)[name] is first


# --- the CLI never nests --------------------------------------------------------

COMMANDS = [
    ["check", str(CORPUS / "ex-dendind-bialgebra.json")],
    ["check", str(CORPUS / "perm-quadratic.json")],
    ["check", "--format", "json", str(CORPUS / "ex-dendind-bialgebra.json")],
    ["square", "--dendriform", str(CORPUS / "ex-dendind-bialgebra.json"),
     "--qperm", str(CORPUS / "perm-quadratic.json"), "--bialgebra"],
    ["ooperator", "--spec", str(CORPUS / "dendriform-ooperator.json")],
    ["ooperator", "--spec", str(CORPUS / "prelie-ooperator.json")],
    ["ybe", "--eq", "dybe", "--algebra", str(CORPUS / "ex-D-alg-iii.json"),
     "--r", str(CORPUS / "r-e1e1.json")],
    ["ybe", "--eq", "dybe", "--algebra", str(CORPUS / "ex-D-alg-iii.json"),
     "--r", str(CORPUS / "r-nonsolution.json")],
    ["invariance", "--algebra", str(CORPUS / "prelie-ooperator.json"),
     "--r", str(CORPUS / "r-e1e1.json")],
    *(["reproduce", example] for example in sorted(REPRODUCERS)),
]


def _never_nest(self, name):
    raise AssertionError(f"the residual of {name!r} was nested")


def test_the_patch_stops_any_read_of_a_residual(monkeypatch):
    res = next(reports(Sample(random.Random(2), 2, 0.3, False))).residuals
    monkeypatch.setattr(Residuals, "__getitem__", _never_nest)
    for read in (repr, dict, lambda r: list(r.values()), lambda r: r == {}):
        with pytest.raises(AssertionError, match="was nested"):
            read(res)
    assert res.violations and list(res) == list(res.flat)


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: " ".join(Path(x).name for x in a))
def test_verification_commands_never_nest_a_residual(monkeypatch, args):
    want = CliRunner().invoke(main, args)
    # a verdict, pass or fail, and not an input or internal error
    assert want.exit_code in (0, 1), want.output
    with monkeypatch.context() as patch:
        patch.setattr(Residuals, "__getitem__", _never_nest)
        got = CliRunner().invoke(main, args)
    assert (got.exit_code, got.stdout_bytes, got.stderr_bytes) == (
        want.exit_code, want.stdout_bytes, want.stderr_bytes)
