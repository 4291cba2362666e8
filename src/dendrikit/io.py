"""JSON file format for algebras, r-matrices and machine-readable reports.

Files are UTF-8 JSON with a top-level ``"format": 1``.  Structure constants
are stored as sparse entry lists; coefficients are exact rationals rendered
as strings (``"3"``, ``"-5/7"``) in canonical form: ASCII digits, no
surrounding whitespace, no leading zeros or ``-0``, lowest terms.  Unknown
keys anywhere in a file, and a key repeated in one object, are rejected so
that typos cannot silently change meaning.

The entry lists of products, coproducts and tensors are read by one reader
(`_read_entries`) straight into `exact.IntTable`s, and written back by one
writer (`_write_entries`) from the table entries; each list's layout is a
row of ``PRODUCT_ENTRIES``, ``COPRODUCT_ENTRIES`` or ``TENSOR_ENTRIES``.  No
nested cube is built, so reading a file costs in proportion to its entries,
whatever its ``dim``.  A quadratic ``form`` and an operator ``matrix`` are
dense in the format and read as matrices.

Reports serialize with a fixed field order so identical inputs always produce
byte-identical JSON.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd
from pathlib import Path

from .algebras import KIND_OPS, FinAlgebra, _fill
from .bialgebras import (
    KIND_COOPS,
    CoalgStruct,
    QuadraticPerm,
    make_quadratic_perm,
)
from .exact import ZERO, BilinForm, IntTable, LinMap, Tensor2, _unchecked, int_entries, nested

FORMAT_VERSION = 1

# Largest accepted ``dim``.  A file is read into sparse tables, in time and
# memory in proportion to its entries, but the exhaustive checks fill dense
# residuals of up to dim⁴ cells and cost about dim⁶ steps, so a bound keeps
# both memory and time finite for hostile input; 64 lies far beyond the
# corpus files (dimension 3 at most) and the benchmark inputs (5 at most).
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


# How a file lays out the entries of a table: the index keys of an entry, the
# index keys of each term of its "result" (None where the entry holds its own
# "coeff"), and for each axis of the table the place of its key among them.
PRODUCT_ENTRIES = (("left", "right"), ("index",), (2, 0, 1))  # c[k][i][j]
COPRODUCT_ENTRIES = (("input",), ("left", "right"), (0, 1, 2))  # θ[i][j][k]
TENSOR_ENTRIES = (("left", "right"), None, (0, 1))  # r[i][j]


def _read_entries(entries: list, where: str, layout: tuple, dim: int) -> IntTable:
    """The `IntTable` of the entry list ``entries`` of a table laid out by
    ``layout``, each index below ``dim``; ``where`` names the list in an
    error.  An index given twice has the sum of its coefficients."""
    outer, inner, axes = layout
    own = (*outer, "coeff" if inner is None else "result")
    sums = {}
    for pos, entry in enumerate(entries):
        ewhere = f"{where}[{pos}]"
        _require_keys(entry, set(own), set(own), ewhere)
        head = tuple(_index(entry[k], dim, f"{ewhere}.{k}") for k in outer)
        if inner is None:
            terms = [(entry, ewhere)]
        elif not isinstance(entry["result"], list):
            raise FileFormatError(f"{ewhere}.result: expected a list")
        else:
            terms = [(term, f"{ewhere}.result[{rpos}]")
                     for rpos, term in enumerate(entry["result"])]
        for term, twhere in terms:
            if inner is not None:
                _require_keys(term, {*inner, "coeff"}, {*inner, "coeff"}, twhere)
            at = head + tuple(_index(term[k], dim, f"{twhere}.{k}") for k in inner or ())
            idx = tuple(at[p] for p in axes)
            sums[idx] = sums.get(idx, ZERO) + parse_coeff(term["coeff"], f"{twhere}.coeff")
    scale, found = int_entries(sorted(item for item in sums.items() if item[1]))
    return IntTable(scale=scale, entries=found, size=dim ** len(axes))


def _read_section(data, section: str, names: tuple, layout: tuple, dim: int) -> dict:
    """The `IntTable` of each of ``names`` in the ``products`` or
    ``coproducts`` object ``data``, empty for a name it leaves out."""
    _require_keys(data, set(names), set(), section)
    tables = {}
    for nm, entries in data.items():
        if not isinstance(entries, list):
            raise FileFormatError(f"{section}.{nm}: expected a list of entries")
        tables[nm] = _read_entries(entries, f"{section}.{nm}", layout, dim)
    return {nm: tables[nm] if nm in tables else _read_entries([], nm, layout, dim)
            for nm in names}


def _write_entries(table: IntTable, layout: tuple) -> list:
    """The entry list of ``table`` laid out by ``layout``, as `_read_entries`
    reads it: sorted by index, with no zero coefficient."""
    outer, inner, axes = layout
    cells = sorted((tuple(idx[axes.index(p)] for p in range(len(axes))), v)
                   for idx, v in table.entries)
    out = []
    for head, group in groupby(cells, lambda cell: cell[0][:len(outer)]):
        keys = dict(zip(outer, head))
        terms = [{**dict(zip(inner or (), at[len(outer):])),
                  "coeff": format_coeff(Fraction(v, table.scale))} for at, v in group]
        if inner is None:
            out += [{**keys, **term} for term in terms]
        else:
            out.append({**keys, "result": terms})
    return out


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
        table = _read_entries(raw["entries"], "entries", TENSOR_ENTRIES, dim)
        tensor = _unchecked(Tensor2, coeffs=nested(table, table.scale, (dim, dim)), table=table)
        return ParsedFile(kind="tensor", basis=tuple(basis), tensor=tensor)

    if not isinstance(kind, str) or kind not in KIND_OPS:
        raise FileFormatError(f"{path}: unknown kind {kind!r}")
    if "entries" in raw:
        raise FileFormatError(f"{path}: 'entries' only belongs to tensor files")
    shape = (dim, dim, dim)
    algebra = _fill(object.__new__(FinAlgebra), kind, dim, _read_section(
        raw.get("products", {}), "products", KIND_OPS[kind], PRODUCT_ENTRIES, dim), shape)
    coalgebra = None
    if "coproducts" in raw:
        coalgebra = _fill(object.__new__(CoalgStruct), kind, dim, _read_section(
            raw["coproducts"], "coproducts", KIND_COOPS[kind], COPRODUCT_ENTRIES, dim), shape)
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
        out["entries"] = _write_entries(pf.tensor.table, TENSOR_ENTRIES)
        return out
    alg = pf.algebra
    out["products"] = {nm: _write_entries(alg.tables[nm], PRODUCT_ENTRIES)
                       for nm in KIND_OPS[alg.kind]}
    if pf.coalgebra is not None:
        out["coproducts"] = {nm: _write_entries(pf.coalgebra.tables[nm], COPRODUCT_ENTRIES)
                             for nm in KIND_COOPS[alg.kind]}
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
