"""The benchmark's tracer still finds every name it wraps.

``bench/spans.py`` replaces dendrikit functions and methods by timing
wrappers at run time, looking each one up by name.  Renaming or deleting one
of them would break the traced benchmark runs (``bench/run.py --trace 1``),
so here the tracer is installed on the package, one call of each finite
operation family runs under it, and it is uninstalled again.
"""

import sys
from pathlib import Path

import pytest

from dendrikit import algebras, bialgebras, examples, exact, functors, ybe

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
