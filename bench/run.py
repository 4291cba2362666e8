"""dendrikit benchmark: one command for every workload and metric.

    python3 bench/run.py --workload finite-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload's operation list is repeated, untraced, for
``--seconds`` seconds and the end-to-end metrics are reported.  With
``--trace 1`` each operation runs untraced and traced, back to back, pass
after pass for ``--seconds`` seconds (at least three passes), and the
per-layer metrics are reported.  Every result is checked against its
expected outcome.  One client runs the operations one after another in this
process (closed loop, no threads); on ``cli-corpus`` each operation is one
child process, never more than one at a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name and unit.  A full record (machine, provenance,
input properties, per-pass times, fitted points and, when traced, all spans)
is written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 10  # evenly spaced points of a run at which set-up is repeated
SETUP_BATCH_S = 0.05
MIN_TRACE_ROUNDS = 3
CHILD_PASSES = 2  # child-process passes of a traced cli-corpus run
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def median(xs):
    return statistics.median(xs)


# --- running operations -----------------------------------------------------------


class CliResult(NamedTuple):
    exit: int
    stdout: str
    stderr: str
    startup_s: Optional[float]  # spawn to dispatch: interpreter start and import


def subprocess_runner(argv) -> CliResult:
    """One child process.  The bootstrap reports through a pipe when it is
    ready to dispatch, which splits the latency into start-up and work."""
    ready_r, ready_w = os.pipe()
    try:
        env = {**os.environ, "DENDRIKIT_BENCH_READY_FD": str(ready_w)}
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "bootstrap.py"), *argv],
            cwd=ROOT, capture_output=True, text=True, encoding="utf-8",
            timeout=CHILD_TIMEOUT_S, pass_fds=(ready_w,), env=env,
        )
        os.close(ready_w)
        ready_w = None
        ready = os.read(ready_r, 64)
    finally:
        os.close(ready_r)
        if ready_w is not None:
            os.close(ready_w)
    startup = float(ready) - t0 if ready else None
    return CliResult(proc.returncode, proc.stdout, proc.stderr, startup)


def inprocess_runner(argv) -> CliResult:
    from click.testing import CliRunner
    from dendrikit.cli import main

    res = CliRunner().invoke(main, argv, prog_name="dendrikit")
    return CliResult(res.exit_code, res.stdout, res.stderr, None)


def build(workload: str, seed, runner=subprocess_runner):
    import workloads as wl

    goldens = wl.load_goldens(workload)
    if workload == "cli-corpus":
        return wl.build_cli(seed, goldens, runner)
    if workload == "affine-window":
        return wl.build_affine(seed, goldens)
    return wl.build_finite(workload, seed, goldens)


def run_op(op, tracer=None):
    """Time one operation, then check its result.

    Returns (seconds, failure, start-up seconds); the start-up is that of a
    child process, and None for an operation that runs in this process.
    """
    from outcomes import mismatch

    t0 = perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.root(op.op_id):
                result = op.call()
    except Exception as exc:  # a raise is a failed operation, not a crash
        return perf_counter() - t0, f"{op.op_id}: raised {exc!r}", None
    dt = perf_counter() - t0
    startup = result.startup_s if isinstance(result, CliResult) else None
    diff = mismatch(op.expected, op.outcome(result))
    if diff is None:
        return dt, None, startup
    return dt, f"{op.op_id}: {diff[0]} expected {diff[1]!r} got {diff[2]!r}", startup


def run_pass(ops, tracer=None):
    """Returns the latencies, the failures and the child start-ups."""
    gc.collect()
    lat, failures, startups = [], [], []
    for op in ops:
        dt, failure, startup = run_op(op, tracer)
        lat.append(dt)
        startups.append(startup)
        if failure:
            failures.append(failure)
    return lat, failures, startups


def setup(workload: str, seed):
    """Input generation, file writing, golden loading and warm-up, once.

    Returns the operations and the time taken.  The in-process workloads
    warm up on their first operation; each CLI child starts cold, so
    ``cli-corpus`` has no warm-up.
    """
    t0 = perf_counter()
    ops = build(workload, seed)
    if workload != "cli-corpus":
        run_op(ops[0])
    return ops, perf_counter() - t0


def setup_batch(workload: str, seed) -> list:
    """Set-up times of repeats run back to back for at least SETUP_BATCH_S,
    so that a set-up of a few milliseconds is sampled as often as the
    machine's bursts need; the repeats' outputs are discarded."""
    times = []
    t0 = perf_counter()
    while not times or perf_counter() - t0 < SETUP_BATCH_S:
        times.append(setup(workload, seed)[1])
    return times


# --- input properties and provenance ------------------------------------------------


def input_properties(workload: str, ops) -> dict:
    perturbed = sum(op.perturbed for op in ops)
    props = {"perturbed_share": perturbed / len(ops)}
    if workload == "cli-corpus":
        props.update(cli_file_properties(ops))
    else:
        nonzero = sum(op.props.get("nonzero", 0) for op in ops)
        constants = sum(op.props.get("constants", 0) for op in ops)
        props["structure_density"] = nonzero / constants
        props["max_denominator_bits"] = max(op.props.get("bits", 0) for op in ops)
    return props


def cli_file_properties(ops) -> dict:
    """Density and denominators of the product tables in every input file."""
    from fractions import Fraction

    nonzero = constants = bits = 0
    for op in ops:
        for arg in op.props["argv"]:
            if not arg.endswith(".json"):
                continue
            obj = json.loads((ROOT / arg).read_text())
            if "products" not in obj or not isinstance(obj.get("dim"), int):
                continue
            constants += obj["dim"] ** 3 * len(obj["products"])
            for entries in obj["products"].values():
                for entry in entries:
                    for term in entry.get("result", []):
                        try:
                            x = Fraction(term["coeff"])
                        except (ValueError, KeyError, TypeError, ZeroDivisionError):
                            continue  # a deliberately broken copy
                        if x:
                            nonzero += 1
                            bits = max(bits, x.denominator.bit_length())
    return {"structure_density": nonzero / constants if constants else 0.0,
            "max_denominator_bits": bits}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dendrikit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed, ops) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "operations_per_pass": len(ops),
        "load": "closed loop, one client, operations run one after another",
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-corpus" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- the two kinds of run -------------------------------------------------------------


def timed_run(workload: str, seed, seconds: float) -> dict:
    ops, first_setup = setup(workload, seed)
    setup_times, setup_points = [first_setup], 1
    passes, startups, failures = [], [], []
    start = perf_counter()
    while True:
        lat, fails, ups = run_pass(ops)
        passes.append(lat)
        startups.append(ups)
        failures += fails
        elapsed = perf_counter() - start
        # Set-up is repeated at evenly spaced times across the run, at most
        # once after each pass.
        if (setup_points < SETUP_REPEATS
                and elapsed >= setup_points * seconds / SETUP_REPEATS):
            setup_times += setup_batch(workload, seed)
            setup_points += 1
            elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    # Other tenants of the machine slow it down in bursts, so each
    # operation's latency, and set-up, is its best over the repeats, which
    # are spread across the run.
    best = best_latencies(passes, startups)
    samples = [x for p in passes for x in p]
    attempted = len(samples)
    metrics = {
        "wall_s": sum(best),
        "op_p50_ms": median(best) * 1000.0,
        "setup_s": min(setup_times),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    extra = {"failed_op_share": (len(failures) / attempted, "share")}
    if attempted >= 100:
        extra["op_p90_ms"] = (statistics.quantiles(samples, n=10)[8] * 1000.0, "ms")
    return {
        "ops": ops, "metrics": metrics, "extra": extra, "attempted": attempted,
        "failures": failures,
        "record": {"setup_times_s": setup_times, "pass_wall_s": [sum(p) for p in passes],
                   "op_ids": [op.op_id for op in ops], "best_latencies_s": best,
                   "pass_latencies_s": passes, "pass_startups_s": startups},
    }


def best_latencies(passes, startups) -> list:
    """Each operation's best latency over the passes.

    A child process first starts the interpreter and imports
    ``dendrikit.cli``, the same work for every command, and then runs its
    command.  So a command's best latency is the best start-up over every
    child of the run plus the best of its own remaining time over the passes.
    With one sample per command and pass, a per-command best alone would
    rest on a handful of samples.
    """
    ups = [u for p in startups for u in p if u is not None]
    if not ups:
        return [min(lat) for lat in zip(*passes)]
    floor = min(ups)
    return [floor + min(lat - (up or 0.0) for lat, up in zip(lats, op_ups))
            for lats, op_ups in zip(zip(*passes), zip(*startups))]


def import_probe() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import dendrikit.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip())


def per_op_min(passes) -> list:
    return [min(lat) for lat in zip(*passes)]


def paired_pass(ops, tracer, traced_first: bool):
    """Each operation untraced and traced, back to back, so that both
    latencies of an operation see the same state of the machine.  Which mode
    goes first alternates between passes, so an order effect cancels."""
    import spans

    def traced_op(op):
        spans.install(tracer)
        try:
            return run_op(op, tracer)[:2]
        finally:
            tracer.uninstall()

    gc.collect()
    untraced, traced, failures = [], [], []
    for op in ops:
        if traced_first:
            (dt_traced, f_traced), (dt, f) = traced_op(op), run_op(op)[:2]
        else:
            (dt, f), (dt_traced, f_traced) = run_op(op)[:2], traced_op(op)
        untraced.append(dt)
        traced.append(dt_traced)
        failures += [x for x in (f, f_traced) if x]
    return untraced, traced, failures


def traced_run(workload: str, seed, seconds: float) -> dict:
    """Paired passes for ``seconds``, compared op by op.

    Each operation's latency in each mode is its best over the rounds, and
    its spans come from the round in which its traced call ran fastest, the
    same best-of rule the timed run uses.  An untraced warm-up pass comes
    first, so first-call costs land in no compared pass.
    """
    import layers
    import spans

    ops = build(workload, seed)
    extra = {}
    children = []
    if workload == "cli-corpus":
        # Every child process starts cold.  The compared passes run the same
        # commands in this process; their untraced latency is what
        # cli.spawn_s subtracts from the child-process latency.  A child pass
        # takes several in-process rounds' time, so only the first rounds
        # make one.
        child_ops = ops
        extra["cli.import_s"] = median(import_probe() for _ in range(IMPORT_PROBES))
        ops = build(workload, seed, inprocess_runner)
    _, failures, _ = run_pass(ops)
    untraced, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        if workload == "cli-corpus" and len(children) < CHILD_PASSES:
            lat, fails, _ = run_pass(child_ops)
            children.append(lat)
            failures += fails
        tracer = spans.Tracer()
        lat, lat_traced, fails = paired_pass(ops, tracer, len(traced) % 2 == 1)
        untraced.append(lat)
        traced.append(lat_traced)
        tracers.append(tracer)
        failures += fails
        elapsed = perf_counter() - start
        rounds = len(traced)
        if rounds >= MIN_TRACE_ROUNDS and elapsed + elapsed / rounds > seconds:
            break
    attempted = len(ops) * (1 + 2 * rounds) + sum(map(len, children))
    best_untraced = per_op_min(untraced)
    fastest = [min(range(rounds), key=lambda r, i=i: traced[r][i]) for i in range(len(ops))]
    best_traced = [traced[r][i] for i, r in enumerate(fastest)]
    extra["trace.overhead_s"] = sum(best_traced) - sum(best_untraced)
    if children:
        extra["cli.spawn_s"] = median(
            a - b for a, b in zip(per_op_min(children), best_untraced))
    chosen = spans.fastest_spans(tracers, [op.op_id for op in ops], fastest)
    # Counts are the same in every traced pass; totals take the best pass.
    total = {name: min(t.total[name] for t in tracers) for name in tracers[0].total}
    fits = layers.fitted_exponents(chosen)
    metrics = layers.layer_metrics(chosen, tracers[0].count, total, fits, extra)
    return {
        "ops": ops, "metrics": metrics, "attempted": attempted, "failures": failures,
        "record": {
            "untraced_pass_wall_s": [sum(p) for p in untraced],
            "traced_pass_wall_s": [sum(p) for p in traced],
            "best_untraced_wall_s": sum(best_untraced),
            "best_traced_wall_s": sum(best_traced),
            "child_pass_wall_s": [sum(p) for p in children],
            "fits": fits,
            "spans": [[s.name, s.start, s.end, s.parent, s.op, s.attrs] for s in chosen],
        },
    }


# --- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    if not (SRC / "dendrikit" / "__init__.py").is_file():
        return fail(f"no dendrikit sources under {SRC}; run from the root of a checkout")
    if not (wl.GOLDENS / f"{args.workload}.json").is_file():
        return fail(f"no expected outcomes for {args.workload} under {wl.GOLDENS}")
    sys.path.insert(0, str(SRC))

    started = time.time()
    if args.trace:
        res = traced_run(args.workload, args.seed, args.seconds)
        metrics = res["metrics"]
    else:
        res = timed_run(args.workload, args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in res["metrics"].items()}
    ops = res["ops"]
    props = input_properties(args.workload, ops)
    attempted, failed = res["attempted"], len(res["failures"])

    record = {
        "provenance": {**provenance(args.workload, args.seed, ops),
                       "started_unix": started, "trace": args.trace,
                       "seconds": args.seconds},
        "input_properties": props,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": res["failures"][:50],
        **res["record"],
    }
    out_dir = wl.WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str))

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per pass, "
          f"{attempted} attempted, {failed} failed; record in {out_path.relative_to(ROOT)}")
    for failure in res["failures"][:5]:
        print(f"  failed: {failure}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in res["extra"].items():
            print(f"  {name} = {value!r} {unit}"
                  + (f" ({attempted} samples)" if name == "op_p90_ms" else ""))
        if "op_p90_ms" not in res["extra"]:
            print(f"  op_p90_ms not reported: {attempted} samples, fewer than 100")
    for name, value in props.items():
        print(f"  {name} = {value!r}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
