"""Self-tests for the benchmark's own code.

    python3 -m pytest -q bench/tests
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs as gen  # noqa: E402
import outcomes  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, fastest_spans, self_times  # noqa: E402


# --- span self-time arithmetic ------------------------------------------------------


def test_self_time_subtracts_merged_children():
    spans = [
        Span("op", 0.0, 10.0, None, "a"),
        Span("check", 1.0, 4.0, 0, "a"),
        Span("check", 3.0, 6.0, 0, "a"),  # overlaps its sibling by 1
        Span("inner", 2.0, 3.0, 1, "a"),
        Span("op", 10.0, 12.0, None, "b"),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 2.0]


def test_self_time_ignores_child_time_outside_the_parent():
    spans = [Span("op", 0.0, 2.0, None, "a"), Span("late", 1.5, 3.0, 0, "a")]
    assert self_times(spans) == [1.5, 1.5]


def test_tracer_nests_spans_and_restores_originals():
    import types

    mod = types.ModuleType("dendrikit._bench_probe")
    mod.f = lambda x: x + 1
    mod.g = lambda x: mod.f(x) * 2
    sys.modules[mod.__name__] = mod
    try:
        original = mod.f
        t = Tracer()
        t.patch_function(mod, "f", lambda fn: t.span("probe.f", fn))
        t.patch_function(mod, "g", lambda fn: t.span("probe.g", fn))
        with t.root("op1"):
            assert mod.g(1) == 4
        t.uninstall()
        assert mod.f is original
        names = [(s.name, s.parent, s.op) for s in t.spans]
        assert names == [("op", None, "op1"), ("probe.g", 0, "op1"), ("probe.f", 1, "op1")]
    finally:
        del sys.modules[mod.__name__]


def test_fastest_spans_merges_one_block_per_operation():
    slow, fast = Tracer(), Tracer()
    slow.spans = [Span("op", 0.0, 4.0, None, "a"), Span("f", 1.0, 3.0, 0, "a"),
                  Span("op", 4.0, 5.0, None, "b")]
    fast.spans = [Span("op", 0.0, 2.0, None, "a"), Span("f", 0.5, 1.5, 0, "a"),
                  Span("op", 2.0, 3.5, None, "b"), Span("g", 2.5, 3.0, 2, "b")]
    chosen = fastest_spans([slow, fast], ["a", "b"], [1, 0])
    assert [(s.name, s.parent, s.op, s.end - s.start) for s in chosen] == [
        ("op", None, "a", 2.0), ("f", 0, "a", 1.0), ("op", None, "b", 1.0)]
    assert fast.spans[3].parent == 2  # the tracers' own spans are untouched


# --- best latencies -----------------------------------------------------------------


def test_best_latency_pools_child_start_up_across_commands():
    passes = [[0.30, 0.50], [0.40, 0.45]]
    startups = [[0.20, 0.25], [0.10, 0.30]]
    # best start-up 0.10, plus each command's best remaining time (0.10, 0.15)
    assert run.best_latencies(passes, startups) == pytest.approx([0.20, 0.25])
    assert run.best_latencies(passes, [[None, None], [None, None]]) == [0.30, 0.45]


def test_child_reports_its_start_up():
    res = run.subprocess_runner(["--help"])
    assert res.exit == 0 and "Usage" in res.stdout
    assert 0.0 < res.startup_s < 60.0


# --- the outcome checker ------------------------------------------------------------


def test_checker_flags_a_wrong_verdict():
    expected = {"ok": False, "witness": ["associativity", [0, 1, 1, 2], "1/2"], "nonzero": 3}
    assert outcomes.mismatch(expected, dict(expected)) is None
    assert outcomes.mismatch(expected, {**expected, "ok": True})[0] == "ok"
    assert outcomes.mismatch(expected, {**expected, "witness": ["associativity",
                                                               [0, 1, 1, 2], "1"]})[0] == "witness"


def test_checker_flags_a_changed_report_digest():
    repl = {"/abs/checkout/src": "<src>"}
    good = outcomes.cli_outcome(0, '{"provenance": {"/abs/checkout/src/x.json": "ab"}}', "", repl)
    moved = outcomes.cli_outcome(0, '{"provenance": {"/elsewhere/src/x.json": "ab"}}', "",
                                 {"/elsewhere/src": "<src>"})
    assert outcomes.mismatch(good, moved) is None  # only the checkout path differs
    changed = outcomes.cli_outcome(0, '{"provenance": {"/abs/checkout/src/x.json": "cd"}}',
                                   "", repl)
    assert outcomes.mismatch(good, changed)[0] == "stdout_sha256"


def test_corrupted_expected_outcome_counts_as_a_failed_operation():
    ops = wl.build_affine(7, wl.load_goldens("affine-window"))
    op = next(o for o in ops if o.slot == "aa/N2/product")
    assert run.run_op(op)[1] is None
    op.expected = {**op.expected, "failures": op.expected["failures"] + 1}
    assert "failures" in run.run_op(op)[1]


def test_clean_finite_input_passes_and_perturbed_one_matches_its_record():
    pool = wl.load_goldens("finite-dense")["ybe/trunc/n3"]["variants"]
    for variant in ("clean", next(iter(pool))):
        op = wl.finite_op("finite-dense", 3, "ybe", "trunc", 3, variant)
        expected = wl.CLEAN if variant == "clean" else pool[variant]
        assert outcomes.mismatch(expected, op.outcome(op.call())) is None


# --- determinism of the generated inputs ----------------------------------------------


def _text(x) -> str:
    """Deterministic text form of nested scalars."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_text(x[k])}" for k in sorted(x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_text(y) for y in x) + "]"
    return repr(x)


def _canon(x):
    for attr in ("products", "coeffs", "actions", "matrix"):
        if hasattr(x, attr):
            return _text(getattr(x, attr))
    return _text(x)


def _finite_inputs(workload, seed):
    goldens = wl.load_goldens(workload)
    out = []
    for op, family, n_sparse, n_dense, perturbed in wl.FINITE_SLOTS:
        n = n_dense if workload == "finite-dense" else n_sparse
        slot = wl.finite_slot_id(op, family, n)
        if perturbed:
            v = wl.pick_variant(seed, slot, goldens[slot]["variants"])
            basis = gen.rng_for("variant", f"{slot}/{v}/basis")
            perturb = gen.rng_for("variant", f"{slot}/{v}")
        else:
            basis, perturb = gen.rng_for(seed, f"{slot}/basis"), None
        args, _ = wl.finite_inputs(op, family, n, workload == "finite-dense", basis, perturb)
        out.append("|".join(_canon(a) for a in args))
    return "\n".join(out).encode()


def test_same_seed_gives_byte_identical_finite_inputs():
    a = _finite_inputs("finite-dense", 11)
    assert a == _finite_inputs("finite-dense", 11)
    assert a != _finite_inputs("finite-dense", 12)


def test_same_seed_gives_byte_identical_cli_files():
    goldens = wl.load_goldens("cli-corpus")
    a = wl.cli_files(5, goldens)
    assert a == wl.cli_files(5, goldens)
    assert a != wl.cli_files(6, goldens)


def test_change_of_basis_round_trips():
    s, s_inv = gen.random_basis(4, gen.rng_for(1, "t"))
    ident = gen.mat_mul(s, s_inv)
    assert all(ident[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4))
    spec = gen.rota_baxter_split(4)
    there = gen.change_basis(spec, s, s_inv)
    back = gen.change_basis(there, s_inv, s)
    assert back["products"] == spec["products"]
    assert any(x.denominator > 1 for x in gen.iter_scalars(there["products"]))
    assert isinstance(next(gen.iter_scalars(back["products"])), Fraction)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    import json

    from layers import PER_LAYER

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, u, b) for k, (u, b) in PER_LAYER.items()]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
