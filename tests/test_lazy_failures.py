"""A windowed report's failures are built on first read, never earlier.

`affinization.Failures` holds a function that lists a check's failures in
batches.  ``bool`` and an index i ≥ 0 read the first i + 1 from a fresh
listing; every other read builds the tuple once and keeps it.  Read in any
way, unread, after ``bool`` and ``[0]``, or after a full read, it must be the
tuple that the checks built eagerly.  The CLI reads only ``bool`` and ``[0]``, so its
windowed commands and worked examples must give the same exit code and bytes
when building the whole tuple raises, even at the largest window.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrikit import affinization, examples
from dendrikit.affinization import (
    MAX_WINDOW,
    AffineReport,
    Failures,
    Window,
    check_affine_associativity,
    check_completed_asi,
    check_completed_coassociativity,
    check_completed_perm_coalgebra,
    check_graded_form,
    check_laurent_perm_axioms,
    check_nu_pairing,
)
from dendrikit.cli import main

from conftest import perturb_coproduct, perturb_product
from test_affine_stability import _digest
from test_affinization import FAULTS, NU_FAULTS

CORPUS = Path(__file__).resolve().parent.parent / "src" / "dendrikit" / "corpus"

WINDOW_ONLY = {
    "lpa": (check_laurent_perm_axioms, FAULTS),
    "gf": (check_graded_form, FAULTS),
    "nu": (check_nu_pairing, NU_FAULTS),
    "cpc": (check_completed_perm_coalgebra, NU_FAULTS),
}
ON_D = {
    "aa": lambda D, theta, w: check_affine_associativity(D, w),
    "asi": check_completed_asi,
    "coassoc": check_completed_coassociativity,
}

DELTAS = [Fraction(1, 3), Fraction(-2, 5), Fraction(1), Fraction(-1, 2)]
indices = st.tuples(*[st.integers(0, 1)] * 3)
# one structure constant of D or one coproduct coefficient of θ shifted, or none
perturbations = st.one_of(
    st.none(),
    st.tuples(st.just("product"), st.sampled_from(["lt", "gt"]), indices,
              st.sampled_from(DELTAS)),
    st.tuples(st.just("coproduct"), st.sampled_from(["co_lt", "co_gt"]), indices,
              st.sampled_from(DELTAS)),
)


def _on_pair(check, N, perturbation):
    D, theta = examples.dendriform_pair(), examples.dendriform_pair_coalgebra()
    if perturbation is not None:
        target, name, (i, j, k), delta = perturbation
        if target == "product":
            D = perturb_product(D, name, i, j, k, delta)
        else:
            theta = perturb_coproduct(theta, name, i, j, k, delta)
    return lambda: check(D, theta, Window(N))


# Each read of a failure sequence, compared with the same read of the eager
# tuple by == and by type.  An index past the end reads as None.
READS = {
    "==": lambda f, want: f == want,
    "== reflected": lambda f, want: want == f,
    "!=": lambda f, want: f != want,
    "!= reflected": lambda f, want: want != f,
    "repr": lambda f, want: repr(f),
    "str": lambda f, want: str(f),
    "len": lambda f, want: len(f),
    "iteration": lambda f, want: list(f),
    "[:1]": lambda f, want: f[:1],
    "[0]": lambda f, want: f[0] if f else None,
    "[1]": lambda f, want: f[1] if len(want) > 1 else None,
    "[-1]": lambda f, want: f[-1] if f else None,
    "bool": lambda f, want: bool(f),
    "hash": lambda f, want: hash(f),
}
# At N = 3 one perturbed check lists about 300 000 failures, so there only a
# fresh report is read, and only by these.
N3_READS = ("==", "bool", "[0]", "[1]", "len")


def _states(run):
    """A fresh report, one read by ``bool`` and ``[0]``, and one read in full."""
    half = run()
    if half.failures:
        half.failures[0]
    built = run()
    tuple(built.failures)
    return run(), half, built


def _reads_as_eager(run, order, N):
    """The reads, in ``order``, on each of `_states`, against the tuple of a
    separate call.  A read that builds the tuple leaves the reads after it a
    built view, so the order decides which read meets an unread one.  At
    N = 3 only a fresh report is read, by `N3_READS`."""
    want = tuple(iter(run().failures))
    if N > 2:
        order = [name for name in order if name in N3_READS]
    expected = {name: READS[name](want, want) for name in order}
    for rep in _states(run) if N == 2 else [run()]:
        assert type(rep.failures) is Failures and rep.ok == (not want)
        for name in order:
            got = READS[name](rep.failures, want)
            assert got == expected[name] and type(got) is type(expected[name]), name
    if N > 2:
        return
    for rep in _states(run):
        eager = AffineReport(rep.subject, rep.window, rep.safe_region, rep.checked, want)
        assert rep == eager and eager == rep and not rep != eager and not eager != rep
        assert hash(rep) == hash(eager) and repr(rep) == repr(eager)
    # iteration runs over the kept tuple: the same objects every time
    rep = run()
    first, second = list(rep.failures), list(rep.failures)
    assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
    rep = run()
    assert _digest(rep) == (rep.checked, hashlib.sha256(repr(want).encode()).hexdigest())


orders = st.permutations(sorted(READS))


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("check", sorted(WINDOW_ONLY))
@settings(max_examples=4, deadline=None)
@given(data=st.data(), order=orders)
def test_window_only_failures_read_as_the_eager_tuple(check, N, data, order):
    fn, faults = WINDOW_ONLY[check]
    fault = data.draw(st.sampled_from(sorted(faults)), label="fault")
    with pytest.MonkeyPatch.context() as patch:
        for name, value in faults[fault].items():
            patch.setattr(affinization, name, value)
        _reads_as_eager(lambda: fn(Window(N)), order, N)


@pytest.mark.parametrize("N", (2, 3))
@pytest.mark.parametrize("check", sorted(ON_D))
@settings(max_examples=4, deadline=None)
@given(perturbation=perturbations, order=orders)
def test_failures_on_d_read_as_the_eager_tuple(check, N, perturbation, order):
    _reads_as_eager(_on_pair(ON_D[check], N, perturbation), order, N)


def test_index_reads_stop_after_the_failures_they_return():
    """``bool`` reads one failure and ``[i]`` reads i + 1, each from a fresh
    listing, and a read past the end raises as a tuple's does."""
    pulled = []

    def listing():
        for x in range(5):
            pulled.append(x)
            yield ("law", (x,), Fraction(x))

    f = Failures(lambda: [listing()])
    assert f and pulled == [0]
    assert f[2] == ("law", (2,), Fraction(2)) and pulled == [0, 0, 1, 2]
    with pytest.raises(IndexError, match="tuple index out of range"):
        f[5]
    pulled.clear()
    assert len(f) == 5 and pulled == [0, 1, 2, 3, 4]
    assert f[-1] == f[4] and f[1:3] == tuple(f)[1:3] and pulled == [0, 1, 2, 3, 4]
    empty = Failures(tuple)
    assert not empty and empty == () and repr(empty) == "()" and len(empty) == 0
    with pytest.raises(IndexError, match="tuple index out of range"):
        empty[0]


# --- the CLI never builds the failure tuple ------------------------------------


def _never_build(self):
    raise AssertionError("the failure tuple was built")


def _as_a_tuple(patch):
    """Make ``bool`` and ``[i]`` read the built tuple too, as the reports'
    failure tuples did before they were built on first read."""
    patch.setattr(Failures, "__bool__", lambda self: bool(self._tuple()))
    patch.setattr(Failures, "__getitem__", lambda self, i: self._tuple()[i])


def _perturbed_pair(tmp_path: Path) -> str:
    """The corpus D-bialgebra with the coproduct coefficient of e2⊗e2 in
    Δ_≺(e1) set to 1/3 and the constant of e2 in e2≻e1 set to −2/5."""
    obj = json.loads((CORPUS / "ex-dendind-bialgebra.json").read_text())
    obj["coproducts"]["co_lt"].append(
        {"input": 0, "result": [{"left": 1, "right": 1, "coeff": "1/3"}]})
    obj["products"]["gt"].append(
        {"left": 1, "right": 0, "result": [{"index": 1, "coeff": "-2/5"}]})
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("N", (2, 4, MAX_WINDOW))
@pytest.mark.parametrize("which", ("assoc", "asi", "coalg"))
def test_affine_reads_only_the_verdict_and_first_failure(tmp_path, monkeypatch, which, N, fmt):
    """At N = 5 a built tuple would hold millions of failures, so the output
    is compared with the one from built tuples at N = 2 only."""
    args = ["affine", "--dendriform", _perturbed_pair(tmp_path), "--window", str(N),
            "--check", which, "--format", fmt]
    with monkeypatch.context() as patch:
        patch.setattr(Failures, "_tuple", _never_build)
        got = CliRunner().invoke(main, args)
    assert got.exit_code == 1 and got.stderr_bytes == b"", got.output
    assert "first failure" in got.stdout
    if N == 2:
        _as_a_tuple(monkeypatch)
        want = CliRunner().invoke(main, args)
        assert (got.exit_code, got.stdout_bytes, got.stderr_bytes) == (
            want.exit_code, want.stdout_bytes, want.stderr_bytes)


@pytest.mark.parametrize("example", ("ex-4.2", "ex-4.5", "ex-4.9"))
def test_windowed_examples_read_only_the_verdict_and_first_failure(monkeypatch, example):
    with monkeypatch.context() as patch:
        patch.setattr(Failures, "_tuple", _never_build)
        got = CliRunner().invoke(main, ["reproduce", example])
    _as_a_tuple(monkeypatch)
    want = CliRunner().invoke(main, ["reproduce", example])
    assert want.exit_code == 0, want.output
    assert (got.exit_code, got.stdout_bytes, got.stderr_bytes) == (
        want.exit_code, want.stdout_bytes, want.stderr_bytes)


def test_the_patches_stop_or_force_a_full_read(monkeypatch):
    D = perturb_product(examples.dendriform_pair(), "lt", 0, 0, 1, Fraction(1, 3))
    rep = check_affine_associativity(D, Window(2))
    with monkeypatch.context() as patch:
        patch.setattr(Failures, "_tuple", _never_build)
        assert rep.failures and rep.failures[0] and not rep.ok
        for read in (len, list, repr, hash, lambda f: f == (), lambda f: f[-1],
                     lambda f: f[:1]):
            with pytest.raises(AssertionError, match="was built"):
                read(rep.failures)
    _as_a_tuple(monkeypatch)
    monkeypatch.setattr(Failures, "_tuple", _never_build)
    for read in (bool, lambda f: f[0]):
        with pytest.raises(AssertionError, match="was built"):
            read(rep.failures)
