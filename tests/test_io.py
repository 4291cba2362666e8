"""File-format parsing, canonical serialization and report determinism."""

import json
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from dendrikit.io import (
    MAX_DIM,
    FileFormatError,
    Report,
    file_sha256,
    format_coeff,
    parse_algebra,
    parse_coeff,
    serialize_parsed,
)

CORPUS = Path(str(files("dendrikit") / "corpus"))
CORPUS_FILES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_present():
    assert len(CORPUS_FILES) == 10


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_round_trip_is_identity(path, tmp_path):
    pf = parse_algebra(path)
    obj = serialize_parsed(pf)
    # the shipped files are already canonical
    assert obj == json.loads(path.read_text())
    out = tmp_path / "again.json"
    out.write_text(json.dumps(obj))
    pf2 = parse_algebra(out)
    assert serialize_parsed(pf2) == obj
    assert pf2.kind == pf.kind and pf2.basis == pf.basis
    if pf.algebra is not None:
        assert pf2.algebra.products == pf.algebra.products
    if pf.coalgebra is not None:
        assert pf2.coalgebra.coproducts == pf.coalgebra.coproducts
    if pf.tensor is not None:
        assert pf2.tensor.coeffs == pf.tensor.coeffs
    if pf.operator is not None:
        assert pf2.operator.matrix == pf.operator.matrix


# --- coefficient strings ------------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("0", Fraction(0)),
    ("-3", Fraction(-3)),
    ("5/7", Fraction(5, 7)),
    ("-1/2", Fraction(-1, 2)),
])
def test_parse_coeff_accepts_reduced_rationals(text, value):
    assert parse_coeff(text) == value
    assert format_coeff(value) == text


@pytest.mark.parametrize("text", [
    "2/4",      # not reduced
    "3/1",      # denominator 1 must be written without the slash
    "1/0",      # zero denominator
    "1.5",      # not a rational string
    "p/1",
    "",
    "+2",
    "1\n",     # trailing newline
    " 1",       # surrounding whitespace
    "\u0663",  # ARABIC-INDIC DIGIT THREE: only ASCII digits
    "01",       # leading zero
    "-0",       # zero has no sign
    "3/07",     # leading zero in the denominator
])
def test_parse_coeff_rejections(text):
    with pytest.raises(FileFormatError):
        parse_coeff(text)


@pytest.mark.parametrize("text,message", [
    ("2/4", "coeff: '2/4' is not reduced"),
    ("1/0", "coeff: zero denominator in '1/0'"),
    ("1.5", "coeff: '1.5' is not a rational string"),
    ("01", "coeff: '01' is not canonical (write '1')"),
    ("-0", "coeff: '-0' is not canonical (write '0')"),
])
def test_parse_coeff_rejection_messages(text, message):
    with pytest.raises(FileFormatError) as exc:
        parse_coeff(text)
    assert str(exc.value) == message


def test_parse_coeff_rejects_non_strings():
    with pytest.raises(FileFormatError):
        parse_coeff(2)
    with pytest.raises(FileFormatError):
        parse_coeff(None)


# --- structural validation ----------------------------------------------------


def _write(tmp_path, obj):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(obj))
    return p


BASE = {
    "format": 1,
    "kind": "assoc",
    "dim": 1,
    "basis": ["u"],
    "products": {"mul": [{"left": 0, "right": 0,
                          "result": [{"index": 0, "coeff": "1"}]}]},
}


def test_minimal_file_parses(tmp_path):
    pf = parse_algebra(_write(tmp_path, BASE))
    assert pf.kind == "assoc" and pf.algebra.dim == 1


def test_unknown_top_level_key_rejected(tmp_path):
    bad = dict(BASE, extra=1)
    with pytest.raises(FileFormatError, match="unknown keys"):
        parse_algebra(_write(tmp_path, bad))


def test_unknown_product_name_rejected(tmp_path):
    bad = dict(BASE, products={"mul": [], "weird": []})
    with pytest.raises(FileFormatError, match="unknown keys"):
        parse_algebra(_write(tmp_path, bad))


def test_out_of_range_index_rejected(tmp_path):
    bad = dict(BASE)
    bad["products"] = {"mul": [{"left": 0, "right": 1,
                                "result": [{"index": 0, "coeff": "1"}]}]}
    with pytest.raises(FileFormatError, match="out of range"):
        parse_algebra(_write(tmp_path, bad))


def test_bad_format_version_rejected(tmp_path):
    with pytest.raises(FileFormatError, match="unsupported format"):
        parse_algebra(_write(tmp_path, dict(BASE, format=2)))


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_format_must_be_the_integer_1(tmp_path, version):
    with pytest.raises(FileFormatError, match="unsupported format"):
        parse_algebra(_write(tmp_path, dict(BASE, format=version)))


@pytest.mark.parametrize("dim", [True, 0, 1.0, "1"])
def test_bad_dim_rejected(tmp_path, dim):
    with pytest.raises(FileFormatError, match="dim must be a positive integer"):
        parse_algebra(_write(tmp_path, dict(BASE, dim=dim)))


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 3000])
def test_dim_above_the_limit_rejected(tmp_path, dim):
    with pytest.raises(FileFormatError, match=f"dim {dim} exceeds the limit 64"):
        parse_algebra(_write(tmp_path, dict(BASE, dim=dim)))


def test_dim_at_the_limit_accepted(tmp_path):
    tensor = {"format": 1, "kind": "tensor", "dim": MAX_DIM,
              "entries": [{"left": MAX_DIM - 1, "right": 0, "coeff": "1/2"}]}
    pf = parse_algebra(_write(tmp_path, tensor))
    assert pf.tensor.dim_left == MAX_DIM and pf.tensor.coeffs[-1][0] == Fraction(1, 2)


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(FileFormatError, match="unknown kind"):
        parse_algebra(_write(tmp_path, dict(BASE, kind="banana")))


def test_form_only_on_perm(tmp_path):
    bad = dict(BASE, form=[["0"]])
    with pytest.raises(FileFormatError, match="perm"):
        parse_algebra(_write(tmp_path, bad))


def test_entries_only_on_tensor(tmp_path):
    bad = dict(BASE, entries=[])
    with pytest.raises(FileFormatError, match="tensor"):
        parse_algebra(_write(tmp_path, bad))


def test_bad_basis_rejected(tmp_path):
    with pytest.raises(FileFormatError, match="basis"):
        parse_algebra(_write(tmp_path, dict(BASE, basis=["a", "b"])))


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileFormatError):
        parse_algebra(tmp_path / "nope.json")


def test_invalid_json_raises(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FileFormatError):
        parse_algebra(p)


def test_default_basis_names(tmp_path):
    obj = {k: v for k, v in BASE.items() if k != "basis"}
    pf = parse_algebra(_write(tmp_path, obj))
    assert pf.basis == ("b0",)


def test_duplicate_entries_accumulate(tmp_path):
    obj = dict(BASE)
    obj["products"] = {"mul": [
        {"left": 0, "right": 0, "result": [{"index": 0, "coeff": "1/3"}]},
        {"left": 0, "right": 0, "result": [{"index": 0, "coeff": "2/3"}]},
    ]}
    pf = parse_algebra(_write(tmp_path, obj))
    assert pf.algebra.products["mul"][0][0][0] == 1


# --- reports ------------------------------------------------------------------


def _sample_report():
    rep = Report(command=["check", "x.json"])
    rep.add_check("axioms", True)
    rep.add_check("extra", False, first_violation=((0, 1, 2), Fraction(1, 2)),
                  detail="demo")
    return rep


def test_report_status_reflects_checks():
    rep = Report(command=["c"])
    rep.add_check("a", True)
    assert rep.status == "pass"
    rep.add_check("b", False)
    assert rep.status == "fail"


def test_report_json_is_deterministic():
    assert _sample_report().to_json() == _sample_report().to_json()
    obj = _sample_report().to_json_obj()
    assert list(obj) == ["command", "status", "checks", "provenance"]
    assert obj["status"] == "fail"
    fv = obj["checks"][1]["first_violation"]
    assert fv == {"indices": [0, 1, 2], "value": "1/2"}


def test_report_text_marks_failures():
    text = _sample_report().to_text()
    assert "[ok ] axioms" in text
    assert "[FAIL] extra" in text
    assert "value 1/2" in text


def test_report_provenance_is_sorted(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text("{}")
    b.write_text("{}")
    rep = Report(command=["c"])
    rep.record_file(b)
    rep.record_file(a)
    obj = rep.to_json_obj()
    assert list(obj["provenance"]) == sorted([str(a), str(b)])
    assert obj["provenance"][str(a)] == file_sha256(a)
