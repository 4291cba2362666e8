"""End-to-end CLI tests: every subcommand, exit codes, report determinism."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from dendrikit import affinization
from dendrikit.affinization import MAX_WINDOW
from dendrikit.algebras import check_axioms
from dendrikit.cli import REPRODUCERS, main
from dendrikit.io import parse_algebra

CORPUS = Path(str(files("dendrikit") / "corpus"))


def corpus(name: str) -> str:
    return str(CORPUS / name)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# --- check --------------------------------------------------------------------


def test_check_passes_on_algebra(runner):
    res = invoke(runner, "check", corpus("ex-D-alg-iii.json"))
    assert res.exit_code == 0
    assert "status: pass" in res.output


def test_check_bialgebra_file(runner):
    res = invoke(runner, "check", corpus("ex-dendind-bialgebra.json"))
    assert res.exit_code == 0
    assert "bialgebra:dbi1" in res.output


def test_check_quadratic_perm(runner):
    res = invoke(runner, "check", corpus("perm-quadratic.json"))
    assert res.exit_code == 0
    assert "qperm:" in res.output


def test_check_fails_on_broken_algebra(runner, tmp_path):
    obj = json.loads(Path(corpus("ex-D-alg-iii.json")).read_text())
    obj["products"]["lt"].append(
        {"left": 0, "right": 0, "result": [{"index": 1, "coeff": "1"}]}
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = invoke(runner, "check", str(bad))
    assert res.exit_code == 1
    assert "status: fail" in res.output


def test_check_tensor_file_is_usage_error(runner):
    res = invoke(runner, "check", corpus("r-e1e1.json"))
    assert res.exit_code == 2


def test_check_missing_file_is_usage_error(runner):
    res = invoke(runner, "check", "no-such-file.json")
    assert res.exit_code == 2


def test_check_dim_above_the_limit_is_usage_error(runner, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"format": 1, "kind": "assoc", "dim": 3000,
                               "products": {"mul": []}}))
    res = invoke(runner, "check", str(big))
    assert res.exit_code == 2
    assert "exceeds the limit 64" in res.output


@pytest.mark.parametrize("text,message", [
    ('{"format": 1, "kind": "tensor", "dim": 1, "entries": 5}', "entries: expected a list"),
    ('{"format": 1, "kind": ["assoc"], "dim": 1}', "unknown kind"),
    ('{"format": 1, "kind": "assoc", "dim": 2, "dim": 3, "products": {"mul": []}}',
     "duplicate key 'dim'"),
])
def test_check_malformed_file_is_usage_error(runner, tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    res = invoke(runner, "check", str(bad))
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize("coeff", ["9" * 5000, "1/" + "7" * 5000],
                         ids=["long-numerator", "long-denominator"])
def test_check_coefficient_beyond_the_digit_limit_is_usage_error(runner, tmp_path, coeff):
    obj = json.loads(Path(corpus("ex-D-alg-iii.json")).read_text())
    obj["products"]["lt"][0]["result"][0]["coeff"] = coeff
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(obj))
    res = invoke(runner, "check", str(bad))
    assert res.exit_code == 2, res.output
    assert "products.lt[0].result[0].coeff: a coefficient of more than" in res.output


def _exact(value: Fraction) -> str:
    """``value`` written out by `decimal`, which has no digit limit."""
    num = str(Decimal(value.numerator))
    return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("op", ["lt", "gt"])
def test_check_value_beyond_the_digit_limit_is_printed_in_full(runner, tmp_path, op, fmt):
    """A coefficient under the input limit can give a residual over it; the
    report prints it exactly and the check fails with exit 1."""
    obj = json.loads(Path(corpus("ex-D-alg-iii.json")).read_text())
    obj["products"][op][0]["result"][0]["coeff"] = "3" * 2500
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    res = invoke(runner, "check", str(path), "--format", fmt)
    assert res.exit_code == 1, res.output
    rep = check_axioms(parse_algebra(path).algebra)
    indices, value = next(fv for fv in rep.violations.values() if fv is not None)
    expected = _exact(value)
    if op == "lt":
        assert len(expected) > sys.get_int_max_str_digits()
    if fmt == "json":
        failed = next(c for c in json.loads(res.output)["checks"]
                      if not c["residual_is_zero"])
        assert failed["first_violation"] == {"indices": list(indices), "value": expected}
    else:
        assert f"first violation at {list(indices)} value {expected}\n" in res.output


def test_check_deeply_nested_file_is_usage_error(runner, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    res = invoke(runner, "check", str(bad))
    assert res.exit_code == 2, res.output
    assert "internal error" not in res.output


def _form_not_antisymmetric(obj):
    obj["form"] = [["1", "1"], ["-1", "0"]]


def _form_degenerate(obj):
    obj["form"] = [["0", "0"], ["0", "0"]]


def _form_not_invariant(obj):
    # x₁x₁ = x₁ breaks ω(x₁x₁, x₂) = ω(x₁, x₁x₂ − x₂x₁)
    obj["products"]["mul"].append(
        {"left": 0, "right": 0, "result": [{"index": 0, "coeff": "1"}]})


@pytest.mark.parametrize("mutate,message", [
    (_form_not_antisymmetric, "form is not antisymmetric: fails at entry (0, 0)"),
    (_form_degenerate, "form is degenerate: kernel vector"),
    (_form_not_invariant, "form is not invariant: fails on basis triple (0, 0, 1)"),
])
def test_invalid_quadratic_form_is_usage_error(runner, tmp_path, mutate, message):
    obj = json.loads(Path(corpus("perm-quadratic.json")).read_text())
    mutate(obj)
    bad = tmp_path / "qperm.json"
    bad.write_text(json.dumps(obj))
    res = invoke(runner, "check", str(bad))
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_check_json_format_is_deterministic(runner):
    a = invoke(runner, "check", corpus("ex-D-alg-iii.json"), "--format", "json")
    b = invoke(runner, "check", corpus("ex-D-alg-iii.json"), "--format", "json")
    assert a.exit_code == 0 and a.output == b.output
    obj = json.loads(a.output)
    assert list(obj) == ["command", "status", "checks", "provenance"]
    assert obj["status"] == "pass"
    assert len(obj["provenance"]) == 1


# --- ybe / invariance ---------------------------------------------------------


@pytest.mark.parametrize("eq,algebra,r", [
    ("dybe", "ex-D-alg-iii.json", "r-e1e1.json"),
    ("dybe", "ex-D-alg-iii.json", "r-beta1-gamma1.json"),
    ("dybe", "ex-D-alg-iii.json", "r-beta0-gamma1.json"),
])
def test_ybe_solutions_pass(runner, eq, algebra, r):
    res = invoke(runner, "ybe", "--eq", eq, "--algebra", corpus(algebra),
                 "--r", corpus(r))
    assert res.exit_code == 0, res.output


def test_ybe_nonsolution_fails(runner):
    res = invoke(runner, "ybe", "--eq", "dybe",
                 "--algebra", corpus("ex-D-alg-iii.json"),
                 "--r", corpus("r-nonsolution.json"))
    assert res.exit_code == 1
    assert "status: fail" in res.output


def test_ybe_kind_mismatch_is_usage_error(runner):
    res = invoke(runner, "ybe", "--eq", "dybe",
                 "--algebra", corpus("perm-quadratic.json"),
                 "--r", corpus("r-e1e1.json"))
    assert res.exit_code == 2
    assert "dendriform" in res.stderr


def test_invariance_detects_noninvariant_r(runner):
    res = invoke(runner, "invariance",
                 "--algebra", corpus("prelie-ooperator.json"),
                 "--r", corpus("r-e1e1.json"))
    assert res.exit_code == 1


def _dual_numbers(tmp_path, entries):
    """k[t]/(t²) on the basis 1, t, and the 2-tensor with coefficient 1 at
    each (left, right) of ``entries``, as files: (algebra file, tensor file)."""
    alg = tmp_path / "dual-numbers.json"
    alg.write_text(json.dumps({
        "format": 1, "kind": "assoc", "dim": 2, "basis": ["1", "t"],
        "products": {"mul": [
            {"left": i, "right": j, "result": [{"index": i + j, "coeff": "1"}]}
            for i, j in ((0, 0), (0, 1), (1, 0))]}}))
    s = tmp_path / "s.json"
    s.write_text(json.dumps({
        "format": 1, "kind": "tensor", "dim": 2, "basis": ["1", "t"],
        "entries": [{"left": i, "right": j, "coeff": "1"} for i, j in entries]}))
    return str(alg), str(s)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_invariance_passes_and_fails_on_the_dual_numbers(runner, tmp_path, fmt):
    """On k[t]/(t²), s = 1⊗t + t⊗1 commutes with every a (exit 0); s = 1⊗1
    does not with a = t, where (id⊗𝔩(t) − 𝔯(t)⊗id)(1⊗1) = 1⊗t − t⊗1."""
    alg, s = _dual_numbers(tmp_path, [(0, 1), (1, 0)])
    res = invoke(runner, "invariance", "--algebra", alg, "--r", s, "--format", fmt)
    assert res.exit_code == 0, res.output
    alg, s = _dual_numbers(tmp_path, [(0, 0)])
    bad = invoke(runner, "invariance", "--algebra", alg, "--r", s, "--format", fmt)
    assert bad.exit_code == 1, bad.output
    if fmt == "json":
        ok, (check,) = json.loads(res.output), json.loads(bad.output)["checks"]
        assert ok["status"] == "pass" and ok["checks"][0]["residual_is_zero"] is True
        # at a = t (index 1), the coefficient of 1⊗t
        assert check["first_violation"] == {"indices": [1, 0, 1], "value": "1"}
    else:
        assert "status: pass" in res.output and "[ok ] invariance" in res.output
        assert "[FAIL] invariance  (assoc invariance)  first violation at [1, 0, 1] value 1" \
            in bad.output


# --- induce / lift ------------------------------------------------------------


def test_induce_prelie_prints_structure(runner):
    res = invoke(runner, "induce", "--construction", "prelie",
                 "--algebra", corpus("ex-D-alg-iii.json"))
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["kind"] == "prelie" and obj["dim"] == 2


def test_induce_assoc_and_commutator(runner, tmp_path):
    res = invoke(runner, "induce", "--construction", "assoc",
                 "--algebra", corpus("ex-D-alg-iii.json"))
    assert res.exit_code == 0
    assoc_file = tmp_path / "assoc.json"
    assoc_file.write_text(res.output)
    res2 = invoke(runner, "induce", "--construction", "commutator",
                  "--algebra", str(assoc_file))
    assert res2.exit_code == 0
    assert json.loads(res2.output)["kind"] == "lie"


@pytest.mark.parametrize("construction,source", [
    ("tensor-assoc", "ex-D-alg-iii.json"),
    ("asi-bialgebra", "ex-dendind-bialgebra.json"),
])
def test_induce_tensor_constructions(runner, construction, source):
    res = invoke(runner, "induce", "--construction", construction,
                 "--algebra", corpus(source),
                 "--perm", corpus("perm-quadratic.json"))
    assert res.exit_code == 0, res.output
    obj = json.loads(res.output)
    assert obj["dim"] == 4
    assert obj["basis"][0] == "e1*x1"


def test_induce_lie_bialgebra_via_prelie_file(runner, tmp_path):
    # derive the pre-Lie bialgebra input from the dendriform one by hand
    from dendrikit.bialgebras import dendriform_to_prelie_bialgebra
    from dendrikit.io import ParsedFile, parse_algebra, serialize_parsed

    pf = parse_algebra(corpus("ex-dendind-bialgebra.json"))
    P, theta = dendriform_to_prelie_bialgebra(pf.algebra, pf.coalgebra)
    src = tmp_path / "prelie.json"
    src.write_text(json.dumps(serialize_parsed(
        ParsedFile(kind="prelie", algebra=P, coalgebra=theta, basis=pf.basis)
    )))
    res = invoke(runner, "induce", "--construction", "lie-bialgebra",
                 "--algebra", str(src), "--perm", corpus("perm-quadratic.json"))
    assert res.exit_code == 0, res.output
    obj = json.loads(res.output)
    assert obj["kind"] == "lie" and "coproducts" in obj


def test_induce_missing_perm_is_usage_error(runner):
    res = invoke(runner, "induce", "--construction", "tensor-assoc",
                 "--algebra", corpus("ex-D-alg-iii.json"))
    assert res.exit_code == 2


def test_induce_wrong_kind_is_usage_error(runner):
    res = invoke(runner, "induce", "--construction", "prelie",
                 "--algebra", corpus("perm-quadratic.json"))
    assert res.exit_code == 2


def test_lift_prints_expected_tensor(runner):
    res = invoke(runner, "lift", "--r", corpus("r-e1e1.json"),
                 "--qperm", corpus("perm-quadratic.json"))
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["kind"] == "tensor" and obj["dim"] == 4
    assert obj["entries"] == [
        {"left": 0, "right": 1, "coeff": "1"},
        {"left": 1, "right": 0, "coeff": "-1"},
    ]


# --- the D⊗B bound -------------------------------------------------------------


def _write(tmp_path, name: str, kind: str, dim: int, **data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"format": 1, "kind": kind, "dim": dim, **data}))
    return str(path)


@pytest.fixture()
def nothing_built(monkeypatch):
    """Every builder of a D⊗B (or of r̂ on it) refuses to run."""
    import dendrikit.cli as cli
    from dendrikit import ybe

    def refuse(*_args):
        raise AssertionError("nothing may be built")

    for construction, row in cli.INDUCTIONS.items():
        monkeypatch.setitem(cli.INDUCTIONS, construction, (*row[:3], refuse))
    for name in ("check_square", "check_bialgebra_square"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(ybe, "lift_r", refuse)


def test_tensor_product_past_the_limit_is_usage_error(runner, tmp_path, nothing_built):
    """A 9-dim D, pre-Lie algebra or r with an 8-dim B makes a 72-dim product:
    each of ``induce``, ``square`` and ``lift`` exits 2 before building it."""
    # the standard symplectic form of dim 8 is a quadratic form on the zero
    # perm algebra
    form = [["1" if j == i ^ 1 and i < j else "-1" if j == i ^ 1 else "0"
             for j in range(8)] for i in range(8)]
    B = _write(tmp_path, "B8.json", "perm", 8, form=form)
    D = _write(tmp_path, "D9.json", "dendriform", 9, coproducts={})
    P = _write(tmp_path, "P9.json", "prelie", 9, coproducts={})
    r = _write(tmp_path, "r9.json", "tensor", 9, entries=[])
    runs = [
        *(("induce", "--construction", c, "--algebra", D, "--perm", B)
          for c in ("tensor-assoc", "asi-bialgebra")),
        *(("induce", "--construction", c, "--algebra", P, "--perm", B)
          for c in ("tensor-lie", "lie-bialgebra")),
        ("square", "--dendriform", D, "--qperm", B),
        ("square", "--dendriform", D, "--qperm", B, "--bialgebra"),
        ("lift", "--r", r, "--qperm", B),
    ]
    for args in runs:
        res = invoke(runner, *args)
        assert res.exit_code == 2, (args, res.output)
        assert res.stdout == ""
        assert res.stderr == "error: tensor product dimension 72 exceeds the limit 64\n"


AT_THE_LIMIT = [
    ("induce", "--construction", "tensor-assoc", "--algebra", corpus("ex-D-alg-iii.json"),
     "--perm", corpus("perm-quadratic.json")),
    ("square", "--dendriform", corpus("ex-dendind-bialgebra.json"),
     "--qperm", corpus("perm-quadratic.json"), "--bialgebra"),
    ("lift", "--r", corpus("r-e1e1.json"), "--qperm", corpus("perm-quadratic.json")),
]


@pytest.mark.parametrize("args", AT_THE_LIMIT, ids=lambda args: args[0])
def test_tensor_product_at_the_limit_runs(runner, monkeypatch, args):
    """With the limit lowered to 4, a 2-dim D⊗B of dim 4 runs as it does under
    the real limit, and with the limit at 3 it is refused."""
    import dendrikit.cli as cli

    real = invoke(runner, *args)
    monkeypatch.setattr(cli, "MAX_DIM", 4)
    at_limit = invoke(runner, *args)
    assert (at_limit.exit_code, at_limit.stdout) == (real.exit_code, real.stdout)
    assert real.exit_code == 0
    monkeypatch.setattr(cli, "MAX_DIM", 3)
    past = invoke(runner, *args)
    assert past.exit_code == 2
    assert past.stderr == "error: tensor product dimension 4 exceeds the limit 3\n"


# --- ooperator / square / affine ---------------------------------------------


@pytest.mark.parametrize("spec", [
    "prelie-ooperator.json", "dendriform-ooperator.json",
])
def test_ooperator_passes(runner, spec):
    res = invoke(runner, "ooperator", "--spec", corpus(spec))
    assert res.exit_code == 0, res.output


def test_ooperator_without_matrix_is_usage_error(runner):
    res = invoke(runner, "ooperator", "--spec", corpus("ex-D-alg-iii.json"))
    assert res.exit_code == 2


def test_square_passes(runner):
    res = invoke(runner, "square", "--dendriform", corpus("ex-D-alg-iii.json"),
                 "--qperm", corpus("perm-quadratic.json"))
    assert res.exit_code == 0


def test_square_with_bialgebra_flag(runner):
    res = invoke(runner, "square",
                 "--dendriform", corpus("ex-dendind-bialgebra.json"),
                 "--qperm", corpus("perm-quadratic.json"), "--bialgebra")
    assert res.exit_code == 0
    assert "bialgebras:" in res.output


@pytest.mark.parametrize("which,source", [
    ("assoc", "ex-D-alg-iii.json"),
    ("coalg", "ex-dendind-bialgebra.json"),
    ("asi", "ex-dendind-bialgebra.json"),
])
def test_affine_checks_pass(runner, which, source):
    res = invoke(runner, "affine", "--dendriform", corpus(source),
                 "--window", "2", "--check", which)
    assert res.exit_code == 0, res.output
    assert "window N=2" in res.output


def test_affine_small_window_is_usage_error(runner):
    res = invoke(runner, "affine", "--dendriform", corpus("ex-D-alg-iii.json"),
                 "--window", "1", "--check", "assoc")
    assert res.exit_code == 2


@pytest.mark.parametrize("window", ["6", "1000000"])
def test_affine_window_above_the_limit_is_usage_error(runner, monkeypatch, window):
    def refuse(*_args):
        raise AssertionError("the check must not run")

    for name in ("Window", "check_affine_associativity", "check_completed_asi",
                 "check_completed_coassociativity"):
        monkeypatch.setattr(affinization, name, refuse)
    for which in ("assoc", "coalg", "asi"):
        res = invoke(runner, "affine", "--dendriform", corpus("ex-dendind-bialgebra.json"),
                     "--window", window, "--check", which)
        assert res.exit_code == 2
        assert res.output.strip() == f"error: --window {window} exceeds the limit {MAX_WINDOW}"


def test_affine_window_at_the_limit_runs_the_check(runner, monkeypatch):
    """N = MAX_WINDOW is accepted and reaches the check; the check itself is
    replaced by its N = 2 run."""
    seen = []
    real = affinization.check_affine_associativity

    def at_window_2(D, w):
        seen.append(w.N)
        return real(D, affinization.Window(2))

    monkeypatch.setattr(affinization, "check_affine_associativity", at_window_2)
    res = invoke(runner, "affine", "--dendriform", corpus("ex-D-alg-iii.json"),
                 "--window", str(MAX_WINDOW), "--check", "assoc")
    assert res.exit_code == 0, res.output
    assert seen == [MAX_WINDOW]


def test_affine_coalg_without_coproducts_is_usage_error(runner):
    res = invoke(runner, "affine", "--dendriform", corpus("ex-D-alg-iii.json"),
                 "--check", "coalg")
    assert res.exit_code == 2


# --- reproduce ----------------------------------------------------------------


@pytest.mark.parametrize("example_id", sorted(REPRODUCERS))
def test_reproduce_passes(runner, example_id):
    res = invoke(runner, "reproduce", example_id)
    assert res.exit_code == 0, res.output
    assert "status: pass" in res.output


def test_reproduce_json_lists_provenance(runner):
    res = invoke(runner, "reproduce", "ex-2.13", "--format", "json")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["status"] == "pass"
    assert all(len(h) == 64 for h in obj["provenance"].values())


def test_unknown_command_and_flags(runner):
    assert invoke(runner, "frobnicate").exit_code == 2
    assert invoke(runner, "check", "--bogus").exit_code == 2
    assert invoke(runner, "reproduce", "ex-9.99").exit_code == 2


# --- internal errors ----------------------------------------------------------


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_internal_error_exits_3_with_one_line(runner, monkeypatch):
    import dendrikit.cli as cli

    monkeypatch.setattr(cli, "check_axioms", _raise(ValueError("boom")))
    res = invoke(runner, "check", corpus("ex-D-alg-iii.json"))
    assert res.exit_code == 3
    assert res.stderr == "error: internal error: ValueError: boom\n"
    assert res.stdout == ""


def test_internal_error_message_is_kept_on_one_line(runner, monkeypatch):
    monkeypatch.setattr(
        affinization, "check_completed_asi", _raise(RuntimeError("first\n  second"))
    )
    res = invoke(
        runner, "affine", "--dendriform", corpus("ex-dendind-bialgebra.json"),
        "--window", "2", "--check", "asi",
    )
    assert res.exit_code == 3
    assert res.stderr == "error: internal error: RuntimeError: first second\n"


def test_usage_errors_keep_exit_2(runner):
    assert invoke(runner, "ybe", "--eq", "dybe").exit_code == 2
    assert invoke(runner, "reproduce", "no-such-id").exit_code == 2


# --- start-up -------------------------------------------------------------------

LAZY = ("affinization", "ybe", "examples")


# ``hashlib`` is listed last when loaded: only a command that records the
# SHA-256 of an input file needs it, and the worked examples of section 4
# read no file.
@pytest.mark.parametrize("args,loaded", [
    ((), ()),
    (("check", corpus("ex-dendind-bialgebra.json")), ("hashlib",)),
    (("square", "--dendriform", corpus("ex-dendind-bialgebra.json"),
      "--qperm", corpus("perm-quadratic.json"), "--bialgebra"), ("hashlib",)),
    (("affine", "--dendriform", corpus("ex-D-alg-iii.json"), "--check", "assoc"),
     ("affinization", "hashlib")),
    (("reproduce", "ex-4.9"), ("affinization",)),
    (("ybe", "--eq", "dybe", "--algebra", corpus("ex-D-alg-iii.json"),
      "--r", corpus("r-e1e1.json")), ("ybe", "hashlib")),
    (("reproduce", "ex-2.2"), ("examples", "hashlib")),
    (("invariance", "--algebra", corpus("prelie-ooperator.json"),
      "--r", corpus("r-e1e1.json")), ("ybe", "hashlib")),
    (("ooperator", "--spec", corpus("prelie-ooperator.json")), ("ybe", "hashlib")),
    (("lift", "--r", corpus("r-e1e1.json"), "--qperm", corpus("perm-quadratic.json")),
     ("ybe",)),
    (("induce", "--construction", "asi-bialgebra", "--algebra",
      corpus("ex-dendind-bialgebra.json"), "--perm", corpus("perm-quadratic.json")), ()),
    (("reproduce", "ex-4.2"), ("affinization",)),
    (("reproduce", "ex-4.27"), ("ybe", "examples", "hashlib")),
], ids=["import", "check", "square", "affine", "ex-4.9", "ybe", "ex-2.2", "invariance",
        "ooperator", "lift", "induce", "ex-4.2", "ex-4.27"])
def test_commands_import_only_the_modules_they_use(args, loaded):
    """A fresh process that imports the command line, and runs one command
    when given one, holds only the lazily imported modules it needs."""
    # no corpus tensor is invariant, so ``invariance`` reports a failure
    exit_code = 1 if args[:1] == ("invariance",) else 0
    code = (
        "import sys\n"
        "from dendrikit.cli import main\n"
        "try:\n"
        f"    main({list(args)!r}, prog_name='dendrikit') if {list(args)!r} else None\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {exit_code}, exc.code\n"
        f"print([m for m in {LAZY!r} if 'dendrikit.' + m in sys.modules]"
        " + ['hashlib'] * ('hashlib' in sys.modules), file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip().splitlines()[-1] == repr(list(loaded))
