"""Per-layer metrics from traced passes: self times, counts, ratios and the
fitted scaling exponents."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import AFFINE_CHECKS, self_times

# name -> (unit, better), in the order they are printed.  Layers are the
# dendrikit modules; "trace" is the benchmark's own tracing overhead.
PER_LAYER = {
    "exact.Vec.new.calls": ("count", "lower"),
    "exact.mat_mul.calls": ("count", "lower"),
    "exact.mat_mul.self_s": ("s", "lower"),
    "exact.tensor_arith.self_s": ("s", "lower"),
    "algebras.check_axioms.self_s": ("s", "lower"),
    "algebras.check_axioms.tuples": ("count", "lower"),
    "algebras.check_axioms.exp_n": ("1", "lower"),
    "algebras.check_bimodule.self_s": ("s", "lower"),
    "algebras.FinAlgebra.multiply.calls": ("count", "lower"),
    "algebras.FinAlgebra.multiply.total_s": ("s", "lower"),
    "algebras.FinAlgebra.multiply.zero_share": ("ratio", "lower"),
    "algebras.residual_nonzero": ("count", "lower"),
    "functors.check_square.self_s": ("s", "lower"),
    "functors.constructions.self_s": ("s", "lower"),
    "bialgebras.check_coalgebra.self_s": ("s", "lower"),
    "bialgebras.check_bialgebra.self_s": ("s", "lower"),
    "bialgebras.check_bialgebra.exp_n": ("1", "lower"),
    "bialgebras.check_quadratic_perm_identities.self_s": ("s", "lower"),
    "bialgebras.induce.self_s": ("s", "lower"),
    "ybe.ybe_residual.self_s": ("s", "lower"),
    "ybe.ybe_residual.r_pairs": ("count", "lower"),
    "ybe.ybe_residual.exp_n": ("1", "lower"),
    "ybe.coboundary_coproduct.self_s": ("s", "lower"),
    "ybe.check_ooperator.self_s": ("s", "lower"),
    "ybe.transfer.self_s": ("s", "lower"),
    **{
        f"affinization.{c}.{stat}": unit
        for c in AFFINE_CHECKS
        for stat, unit in (("self_s", ("s", "lower")), ("checked", ("count", "higher")),
                           ("failures", ("count", "lower")))
    },
    **{
        f"affinization.{c}.exp_N": ("1", "lower")
        for c in ("check_laurent_perm_axioms", "check_graded_form")
    },
    "affinization.Window.contains.calls": ("count", "lower"),
    "affinization.Window.contains.hit_share": ("ratio", "higher"),
    "affinization.iter_box.yielded": ("count", "lower"),
    "io.parse_algebra.calls": ("count", "lower"),
    "io.parse_algebra.self_s": ("s", "lower"),
    "io.parse_algebra.bytes": ("B", "lower"),
    "io.rejected": ("count", "lower"),
    "io.Report.serialize.self_s": ("s", "lower"),
    "io.Report.bytes": ("B", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.spawn_s": ("s", "lower"),
    "cli.command.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# check span -> per-layer exponent metric, fitted against the span attribute
FITS = {
    "algebras.check_axioms": ("algebras.check_axioms.exp_n", "n"),
    "ybe.ybe_residual": ("ybe.ybe_residual.exp_n", "n"),
    "bialgebras.check_bialgebra": ("bialgebras.check_bialgebra.exp_n", "n"),
    **{f"affinization.{c}": (f"affinization.{c}.exp_N", "N")
       for c in ("check_laurent_perm_axioms", "check_graded_form")},
}


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def fitted_exponents(spans) -> dict:
    """Exponent and fitted points per check, from clean top-level check spans.

    Only spans called directly by an operation on a valid input count, so a
    check nested in another (check_axioms inside check_square) does not mix
    in.  Finite checks are grouped by algebra kind and the kind with the most
    distinct sizes is fitted.
    """
    groups = defaultdict(lambda: defaultdict(list))
    for s in spans:
        if s.name not in FITS or s.parent is None or spans[s.parent].name != "op":
            continue
        if not (s.op or "").endswith("#clean"):
            continue
        _metric, attr = FITS[s.name]
        size = s.attrs.get(attr)
        if size:
            groups[(s.name, s.attrs.get("kind"))][size].append(s.end - s.start)
    best = {}
    for (name, kind), by_size in groups.items():
        if len(by_size) < 2:
            continue
        if name not in best or len(by_size) > len(best[name][1]):
            best[name] = (kind, by_size)
    out = {}
    for name, (kind, by_size) in best.items():
        points = sorted((size, statistics.median(ts)) for size, ts in by_size.items())
        out[FITS[name][0]] = {"kind": kind, "points": points,
                              "exponent": loglog_slope(points)}
    return out


def layer_metrics(spans, count: dict, total: dict, fits: dict, extra: dict) -> dict:
    """Every per-layer metric; a layer the workload never reaches reads 0.

    ``spans`` cover one pass; ``count`` and ``total`` are the hot-method
    counters of one pass.
    """
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for s, st in zip(spans, selfs):
        self_s[s.name] += st
        calls[s.name] += 1
    values = {}
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = self_s.get(head, 0.0)
        elif name in count:
            values[name] = count[name]
        else:
            values[name] = 0 if PER_LAYER[name][0] in ("count", "B") else 0.0
    values["exact.mat_mul.calls"] = calls.get("exact.mat_mul", 0)
    mult_calls = count.get("algebras.FinAlgebra.multiply.calls", 0)
    values["algebras.FinAlgebra.multiply.total_s"] = total.get("algebras.FinAlgebra.multiply", 0.0)
    values["algebras.FinAlgebra.multiply.zero_share"] = (
        count.get("algebras.FinAlgebra.multiply.zero", 0) / mult_calls if mult_calls else 0.0)
    contains = count.get("affinization.Window.contains.calls", 0)
    values["affinization.Window.contains.hit_share"] = (
        count.get("affinization.Window.contains.hits", 0) / contains if contains else 0.0)
    for metric, fit in fits.items():
        values[metric] = fit["exponent"]
    values.update(extra)
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
