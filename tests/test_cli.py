"""End-to-end CLI tests: every subcommand, exit codes, report determinism."""

import json
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from dendrikit.cli import REPRODUCERS, main

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
    import dendrikit.cli as cli

    monkeypatch.setattr(
        cli, "check_completed_asi", _raise(RuntimeError("first\n  second"))
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
