"""JSON file format for algebras, r-matrices and machine-readable reports.

Files are UTF-8 JSON with a top-level ``"format": 1``.  Structure constants
are stored as sparse entry lists; coefficients are exact rationals rendered
as strings (``"3"``, ``"-5/7"``) in canonical form: ASCII digits, no
surrounding whitespace, no leading zeros or ``-0``, lowest terms.  Unknown
keys anywhere in a file, and a key repeated in one object, are rejected so
that typos cannot silently change meaning.

Reports serialize with a fixed field order so identical inputs always produce
byte-identical JSON.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

from .algebras import KIND_OPS, FinAlgebra
from .bialgebras import (
    KIND_COOPS,
    CoalgStruct,
    QuadraticPerm,
    make_quadratic_perm,
)
from .exact import ZERO, BilinForm, LinMap, Tensor2

FORMAT_VERSION = 1

# Largest accepted ``dim``.  A file is read into dense dim³ cubes, and the
# exhaustive checks cost about dim⁶ steps, so a bound keeps both memory and
# time finite for hostile input; 64 lies far beyond the corpus files
# (dimension 3 at most) and the benchmark inputs (5 at most).
MAX_DIM = 64

_COEFF_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


class FileFormatError(ValueError):
    """A file violates the format contract; the message carries field context."""


def parse_coeff(text: str, where: str = "coeff") -> Fraction:
    """Parse an exact rational string, rejecting anything but its canonical form."""
    if not isinstance(text, str) or not _COEFF_RE.match(text):
        raise FileFormatError(f"{where}: {text!r} is not a rational string")
    num_s, _, den_s = text.partition("/")
    try:
        num, den = int(num_s), int(den_s or "1")
    except ValueError as exc:
        # int() refuses a string of more digits than this limit
        raise FileFormatError(f"{where}: a coefficient of more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc
    if den_s:
        if den == 0:
            raise FileFormatError(f"{where}: zero denominator in {text!r}")
        if den == 1 or gcd(abs(num), den) != 1:
            raise FileFormatError(f"{where}: {text!r} is not reduced")
    value = Fraction(num, den)
    if format_coeff(value) != text:
        raise FileFormatError(
            f"{where}: {text!r} is not canonical (write {format_coeff(value)!r})"
        )
    return value


def format_coeff(value: Fraction) -> str:
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _decimal(x: int) -> str:
    """The decimal digits of x, also past the int digit limit that
    `parse_coeff` keeps for its input: a longer x is cut at a power of ten
    of about half its digits, and each half written the same way."""
    try:
        return str(x)
    except ValueError:
        if x < 0:
            return "-" + _decimal(-x)
        k = x.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        hi, lo = divmod(x, 10 ** k)
        return _decimal(hi) + _decimal(lo).zfill(k)


def _require_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise FileFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise FileFormatError(f"{where}: missing keys {sorted(missing)}")


def _index(value, dim: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < dim:
        raise FileFormatError(f"{where}: index {value!r} out of range 0..{dim - 1}")
    return value


@dataclass(frozen=True)
class ParsedFile:
    """Validated contents of an algebra/tensor/operator file."""

    kind: str
    algebra: FinAlgebra | None = None
    coalgebra: CoalgStruct | None = None
    qperm: QuadraticPerm | None = None
    basis: tuple = ()
    tensor: Tensor2 | None = None
    operator: LinMap | None = None


def _parse_products(data, kind: str, dim: int) -> FinAlgebra:
    names = KIND_OPS[kind]
    cubes = {nm: [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)] for nm in names}
    _require_keys(
        data, set(names), set(), "products"
    )
    for nm, entries in data.items():
        if not isinstance(entries, list):
            raise FileFormatError(f"products.{nm}: expected a list of entries")
        for pos, entry in enumerate(entries):
            where = f"products.{nm}[{pos}]"
            _require_keys(entry, {"left", "right", "result"}, {"left", "right", "result"}, where)
            i = _index(entry["left"], dim, f"{where}.left")
            j = _index(entry["right"], dim, f"{where}.right")
            if not isinstance(entry["result"], list):
                raise FileFormatError(f"{where}.result: expected a list")
            for rpos, term in enumerate(entry["result"]):
                rwhere = f"{where}.result[{rpos}]"
                _require_keys(term, {"index", "coeff"}, {"index", "coeff"}, rwhere)
                k = _index(term["index"], dim, f"{rwhere}.index")
                cubes[nm][k][i][j] += parse_coeff(term["coeff"], f"{rwhere}.coeff")
    return FinAlgebra(kind, dim, cubes)


def _parse_coproducts(data, kind: str, dim: int) -> CoalgStruct:
    names = KIND_COOPS[kind]
    cubes = {nm: [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)] for nm in names}
    _require_keys(data, set(names), set(), "coproducts")
    for nm, entries in data.items():
        if not isinstance(entries, list):
            raise FileFormatError(f"coproducts.{nm}: expected a list of entries")
        for pos, entry in enumerate(entries):
            where = f"coproducts.{nm}[{pos}]"
            _require_keys(entry, {"input", "result"}, {"input", "result"}, where)
            i = _index(entry["input"], dim, f"{where}.input")
            if not isinstance(entry["result"], list):
                raise FileFormatError(f"{where}.result: expected a list")
            for rpos, term in enumerate(entry["result"]):
                rwhere = f"{where}.result[{rpos}]"
                _require_keys(term, {"left", "right", "coeff"}, {"left", "right", "coeff"}, rwhere)
                j = _index(term["left"], dim, f"{rwhere}.left")
                k = _index(term["right"], dim, f"{rwhere}.right")
                cubes[nm][i][j][k] += parse_coeff(term["coeff"], f"{rwhere}.coeff")
    return CoalgStruct(kind, dim, cubes)


def _parse_matrix(data, rows: int, cols: int, where: str):
    if not isinstance(data, list) or len(data) != rows:
        raise FileFormatError(f"{where}: expected {rows} rows")
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise FileFormatError(f"{where}[{i}]: expected {cols} entries")
        out.append(
            tuple(parse_coeff(c, f"{where}[{i}][{j}]") for j, c in enumerate(row))
        )
    return tuple(out)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, rejecting a key that appears twice in it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_algebra(path) -> ParsedFile:
    """Load and fully validate a structure file.

    Supported kinds: the five algebra kinds (with optional ``coproducts``,
    an optional operator ``matrix``, and — for perm algebras — an optional
    quadratic ``form``), plus ``"tensor"`` for an element of A⊗A.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder's stack
        raise FileFormatError(f"{path}: {exc}") from exc
    _require_keys(raw, {"format", "kind", "dim", "basis", "products", "coproducts",
                        "form", "entries", "matrix"}, {"format", "kind", "dim"},
                  str(path))
    if type(raw["format"]) is not int or raw["format"] != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format {raw['format']!r}")
    kind = raw["kind"]
    dim = raw["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: dim must be a positive integer")
    if dim > MAX_DIM:
        raise FileFormatError(f"{path}: dim {dim} exceeds the limit {MAX_DIM}")
    basis = raw.get("basis", [f"b{i}" for i in range(dim)])
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(b, str) for b in basis
    ):
        raise FileFormatError(f"{path}: basis must be {dim} strings")

    if kind == "tensor":
        _require_keys(raw, {"format", "kind", "dim", "basis", "entries"},
                      {"entries"}, str(path))
        if not isinstance(raw["entries"], list):
            raise FileFormatError(f"{path}: entries: expected a list of entries")
        mat = [[ZERO] * dim for _ in range(dim)]
        for pos, entry in enumerate(raw["entries"]):
            where = f"entries[{pos}]"
            _require_keys(entry, {"left", "right", "coeff"}, {"left", "right", "coeff"}, where)
            i = _index(entry["left"], dim, f"{where}.left")
            j = _index(entry["right"], dim, f"{where}.right")
            mat[i][j] += parse_coeff(entry["coeff"], f"{where}.coeff")
        return ParsedFile(kind="tensor", basis=tuple(basis), tensor=Tensor2(mat))

    if not isinstance(kind, str) or kind not in KIND_OPS:
        raise FileFormatError(f"{path}: unknown kind {kind!r}")
    if "entries" in raw:
        raise FileFormatError(f"{path}: 'entries' only belongs to tensor files")
    algebra = _parse_products(raw.get("products", {}), kind, dim)
    coalgebra = None
    if "coproducts" in raw:
        coalgebra = _parse_coproducts(raw["coproducts"], kind, dim)
    qperm = None
    if "form" in raw:
        if kind != "perm":
            raise FileFormatError(f"{path}: 'form' requires a perm algebra")
        matrix = _parse_matrix(raw["form"], dim, dim, "form")
        try:
            qperm = make_quadratic_perm(algebra, BilinForm(matrix))
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    operator = None
    if "matrix" in raw:
        operator = LinMap(_parse_matrix(raw["matrix"], dim, dim, "matrix"))
    return ParsedFile(
        kind=kind,
        algebra=algebra,
        coalgebra=coalgebra,
        qperm=qperm,
        basis=tuple(basis),
        operator=operator,
    )


def serialize_parsed(pf: ParsedFile) -> dict:
    """Render a parsed file back to its canonical JSON object.

    Entries are sorted and zero coefficients dropped, so parse → serialize →
    parse is the identity on in-memory values.
    """
    out = {"format": FORMAT_VERSION, "kind": pf.kind, "dim": len(pf.basis)}
    out["basis"] = list(pf.basis)
    if pf.kind == "tensor":
        entries = []
        t = pf.tensor
        for i in range(t.dim_left):
            for j in range(t.dim_right):
                if t.coeffs[i][j] != 0:
                    entries.append(
                        {"left": i, "right": j, "coeff": format_coeff(t.coeffs[i][j])}
                    )
        out["entries"] = entries
        return out
    alg = pf.algebra
    dim = alg.dim
    products = {}
    for nm in KIND_OPS[alg.kind]:
        entries = []
        for i in range(dim):
            for j in range(dim):
                result = [
                    {"index": k, "coeff": format_coeff(alg.products[nm][k][i][j])}
                    for k in range(dim)
                    if alg.products[nm][k][i][j] != 0
                ]
                if result:
                    entries.append({"left": i, "right": j, "result": result})
        products[nm] = entries
    out["products"] = products
    if pf.coalgebra is not None:
        coproducts = {}
        for nm in KIND_COOPS[alg.kind]:
            entries = []
            for i in range(dim):
                result = [
                    {"left": j, "right": k,
                     "coeff": format_coeff(pf.coalgebra.coproducts[nm][i][j][k])}
                    for j in range(dim)
                    for k in range(dim)
                    if pf.coalgebra.coproducts[nm][i][j][k] != 0
                ]
                if result:
                    entries.append({"input": i, "result": result})
            coproducts[nm] = entries
        out["coproducts"] = coproducts
    if pf.qperm is not None:
        out["form"] = [
            [format_coeff(c) for c in row] for row in pf.qperm.form.matrix
        ]
    if pf.operator is not None:
        out["matrix"] = [[format_coeff(c) for c in row] for row in pf.operator.matrix]
    return out


def file_sha256(path) -> str:
    # imported here: its start-up cost is paid only by a command that hashes
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Report:
    """Machine-readable verification report with deterministic serialization."""

    command: list
    checks: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add_check(self, check_id: str, ok: bool, first_violation=None, detail=None):
        entry = {
            "check_id": check_id,
            "residual_is_zero": bool(ok),
        }
        if first_violation is not None:
            indices, value = first_violation
            entry["first_violation"] = {
                "indices": list(indices),
                "value": format_coeff(Fraction(value)),
            }
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)

    def add_report(self, rep, prefix: str = ""):
        """Fold in a residual-style check report, one entry per named law."""
        for name, fv in rep.violations.items():
            self.add_check(f"{prefix}{name}", fv is None, first_violation=fv,
                           detail=rep.subject)

    def record_file(self, path):
        self.provenance[str(path)] = file_sha256(path)

    @property
    def status(self) -> str:
        return "pass" if all(c["residual_is_zero"] for c in self.checks) else "fail"

    def to_json_obj(self) -> dict:
        return {
            "command": list(self.command),
            "status": self.status,
            "checks": self.checks,
            "provenance": {k: self.provenance[k] for k in sorted(self.provenance)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [f"command: {' '.join(self.command)}", f"status: {self.status}"]
        for c in self.checks:
            mark = "ok " if c["residual_is_zero"] else "FAIL"
            line = f"  [{mark}] {c['check_id']}"
            if "detail" in c:
                line += f"  ({c['detail']})"
            if "first_violation" in c:
                fv = c["first_violation"]
                line += f"  first violation at {fv['indices']} value {fv['value']}"
            lines.append(line)
        for name in sorted(self.provenance):
            lines.append(f"  input {name} sha256={self.provenance[name]}")
        return "\n".join(lines)
