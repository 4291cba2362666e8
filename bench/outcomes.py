"""Expected-outcome checking: reduce each operation's result to a small record
and compare it with the record kept for that input.

A finite check reduces to its verdict, its first witness (law, indices,
exact value) and the number of nonzero residual coefficients.  A windowed
check reduces to its verdict, comparison count, failure count and a digest
of the full failure list.  A CLI command reduces to its exit code and the
SHA-256 of its output after machine-specific paths are replaced by fixed
placeholders.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def nonzero_count(x) -> int:
    """Nonzero scalars in nested tuples, lists and dicts of Fractions."""
    if isinstance(x, Fraction):
        return 1 if x != 0 else 0
    if isinstance(x, dict):
        return sum(nonzero_count(v) for v in x.values())
    return sum(nonzero_count(v) for v in x)


def first_nonzero(x, path=()):
    """Depth-first first nonzero scalar, dict keys in sorted order."""
    if isinstance(x, Fraction):
        return (path, x) if x != 0 else None
    items = ((k, x[k]) for k in sorted(x)) if isinstance(x, dict) else enumerate(x)
    for k, v in items:
        hit = first_nonzero(v, path + (k,))
        if hit is not None:
            return hit
    return None


def report_outcome(rep) -> dict:
    """Record of a dendrikit.algebras.CheckReport."""
    witness = None
    if rep.first_violation is not None:
        law, path, value = rep.first_violation
        witness = [law, [_plain(p) for p in path], str(value)]
    return {"ok": bool(rep.ok), "witness": witness,
            "nonzero": nonzero_count(rep.residuals)}


def tensor_outcome(law: str, coeffs) -> dict:
    """Record of a residual tensor returned without a report (ybe_residual)."""
    hit = first_nonzero(coeffs)
    witness = None if hit is None else [law, list(hit[0]), str(hit[1])]
    return {"ok": hit is None, "witness": witness, "nonzero": nonzero_count(coeffs)}


def combine(records: list) -> dict:
    """One record for an operation made of several checks, in call order."""
    witness = next((r["witness"] for r in records if not r["ok"]), None)
    return {"ok": all(r["ok"] for r in records), "witness": witness,
            "nonzero": sum(r["nonzero"] for r in records)}


def affine_outcome(rep) -> dict:
    """Record of a dendrikit.affinization.AffineReport."""
    text = repr(rep.failures)
    return {
        "ok": bool(rep.ok),
        "checked": rep.checked,
        "failures": len(rep.failures),
        "first": repr(rep.failures[0]) if rep.failures else None,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def normalize_output(text: str, replacements: dict) -> str:
    """Replace machine-specific paths by placeholders, longest first."""
    for old in sorted(replacements, key=len, reverse=True):
        text = text.replace(old, replacements[old])
    return text


def cli_outcome(exit_code: int, stdout: str, stderr: str, replacements: dict) -> dict:
    """Exit code plus digests of the normalised standard output and error."""
    out = normalize_output(stdout, replacements)
    err = normalize_output(stderr, replacements)
    return {
        "exit": exit_code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.encode()).hexdigest(),
    }


def mismatch(expected: dict, got: dict):
    """First differing field as (field, expected, got), or None when they agree.

    Only the fields the expected record names are compared, so an expected
    record of ``{"ok": True}`` accepts any passing result.
    """
    for key in expected:
        if got.get(key) != expected[key]:
            return key, expected[key], got.get(key)
    return None


def _plain(p):
    return p if isinstance(p, (int, str)) else str(p)
