"""The benchmark's tracer still finds every name it wraps.

``bench/spans.py`` replaces dendrikit functions and methods by timing
wrappers at run time, looking each one up by name.  Renaming or deleting one
of them would break the traced benchmark runs (``bench/run.py --trace 1``),
so here the tracer is installed on the package, one call of each finite
operation family and of each windowed affine check runs under it, and it is
uninstalled again.  On failing inputs, its count of nonzero residual
coefficients must match the residuals the calls return.
"""

import sys
from pathlib import Path

import pytest

from dendrikit import affinization, algebras, bialgebras, examples, exact, functors, ybe

from conftest import perturb_product

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    yield spans
    for name in ("spans", "outcomes"):
        sys.modules.pop(name, None)


def _families():
    """One call per finite family of the benchmark, on valid inputs."""
    dend, perm = examples.dendriform_pair(), examples.perm_pair()
    trunc = examples.truncated_polynomials()
    r = examples.r_corner()
    yield "axioms", lambda: algebras.check_axioms(trunc)
    yield "bimodule", lambda: algebras.check_bimodule(algebras.regular_bimodule(dend))
    yield "ybe", lambda: ybe.ybe_residual(dend, r)
    yield "bialgebra", lambda: bialgebras.check_bialgebra(
        dend, ybe.coboundary_coproduct(dend, r))
    yield "ooperator", lambda: ybe.check_ooperator(
        ybe.coregular_bimodule(dend), exact.sharp(r))
    yield "square", lambda: functors.check_square(dend, perm)


def test_tracer_installs_runs_and_uninstalls(spans):
    originals = (algebras.check_axioms, bialgebras.check_bialgebra, ybe.check_ooperator,
                 functors.check_square, functors.tensor_lie, exact.mat_mul,
                 exact.Vec.__init__, algebras.FinAlgebra.multiply,
                 algebras.CheckReport.from_residuals)
    tracer = spans.Tracer()
    results = {}
    try:
        spans.install(tracer)
        for name, call in _families():
            with tracer.root(name):
                results[name] = call()
    finally:
        tracer.uninstall()
    assert all(rep.ok for name, rep in results.items() if name != "ybe")
    assert results["ybe"].is_zero()
    names = {s.name for s in tracer.spans}
    assert {"algebras.check_axioms", "algebras.check_bimodule", "ybe.ybe_residual",
            "ybe.coboundary_coproduct", "bialgebras.check_bialgebra",
            "ybe.check_ooperator", "functors.check_square",
            "functors.constructions"} <= names
    # the truncated polynomials' 3³ triples, and those of the square's algebras
    assert tracer.count["algebras.check_axioms.tuples"] > 3 ** 3
    assert tracer.count["algebras.residual_nonzero"] == 0
    assert originals == (algebras.check_axioms, bialgebras.check_bialgebra,
                         ybe.check_ooperator, functors.check_square, functors.tensor_lie,
                         exact.mat_mul, exact.Vec.__init__, algebras.FinAlgebra.multiply,
                         algebras.CheckReport.from_residuals)


def _failing_families():
    """One call per finite family of the benchmark on an input that fails,
    with the residuals whose nonzero coefficients ``residual_nonzero`` must
    count: each report's own, and for the square also those of the three
    axiom checks it runs and reports again."""
    dend, perm = examples.dendriform_pair(), examples.perm_pair()
    bad = perturb_product(dend, "lt", 0, 1, 0, 1)
    trunc = perturb_product(examples.truncated_polynomials(), "mul", 1, 2, 0, 3)
    r = examples.r_nonsolution()
    yield "axioms", lambda: algebras.check_axioms(trunc), lambda rep: [rep.residuals]
    yield ("bimodule", lambda: algebras.check_bimodule(algebras.regular_bimodule(bad)),
           lambda rep: [rep.residuals])
    yield "ybe", lambda: ybe.ybe_residual(dend, r), lambda res: [res.coeffs]
    yield ("bialgebra", lambda: bialgebras.check_bialgebra(
        dend, ybe.coboundary_coproduct(bad, examples.r_corner())),
        lambda rep: [rep.residuals])
    yield ("ooperator", lambda: ybe.check_ooperator(
        ybe.coregular_bimodule(dend), exact.sharp(r)), lambda rep: [rep.residuals])
    yield ("square", lambda: functors.check_square(bad, perm), lambda rep: [
        rep.residuals,
        *(rep.residuals[k] for k in ("prelie_axioms", "assoc_axioms", "tensor_lie_jacobi"))])


def test_tracer_counts_the_nonzero_residuals_of_failing_inputs(spans):
    """On a failing input of each family, ``algebras.residual_nonzero`` grows
    by the nonzero coefficients of the residuals the call returned: a report
    built without passing through ``CheckReport.from_residuals`` would leave
    it short."""
    from outcomes import nonzero_count

    tracer = spans.Tracer()
    counted, expected = {}, {}
    try:
        spans.install(tracer)
        for name, call, residuals in _failing_families():
            before = tracer.count["algebras.residual_nonzero"]
            with tracer.root(name):
                result = call()
            counted[name] = tracer.count["algebras.residual_nonzero"] - before
            expected[name] = sum(nonzero_count(res) for res in residuals(result))
    finally:
        tracer.uninstall()
    assert counted == expected
    assert all(counted.values()), counted


def test_tracer_wraps_every_affine_check(spans):
    """Each of the seven affine checks the benchmark traces runs at N = 2 under
    the tracer, and ``Window.contains`` and ``iter_box`` are put back after."""
    D, theta = examples.dendriform_pair(), examples.dendriform_pair_coalgebra()
    w = affinization.Window(2)
    args = {
        "check_laurent_perm_axioms": (w,),
        "check_graded_form": (w,),
        "check_nu_pairing": (w,),
        "check_completed_perm_coalgebra": (w,),
        "check_affine_associativity": (D, w),
        "check_completed_asi": (D, theta, w),
        "check_completed_coassociativity": (D, theta, w),
    }
    assert set(args) == set(spans.AFFINE_CHECKS)
    contains = affinization.Window.__dict__["contains"]
    iter_box = affinization.iter_box
    tracer = spans.Tracer()
    reports = {}
    try:
        spans.install(tracer)
        for name, call_args in args.items():
            with tracer.root(name):
                reports[name] = getattr(affinization, name)(*call_args)
    finally:
        tracer.uninstall()
    assert all(rep.ok for rep in reports.values())
    names = {s.name for s in tracer.spans}
    for name, rep in reports.items():
        assert f"affinization.{name}" in names
        assert tracer.count[f"affinization.{name}.checked"] == rep.checked > 0
        assert tracer.count[f"affinization.{name}.failures"] == 0
    assert affinization.Window.__dict__["contains"] is contains
    assert affinization.iter_box is iter_box
