"""Record the expected outcomes the benchmark checks results against.

    python3 bench/record_goldens.py [workload ...]

For every slot that runs on a perturbed input, candidate variants 0, 1, ...
are generated and run until ``POOL`` of them fail as a perturbed input must
(a nonzero residual, or exit code 1; exit code 2 for a broken file).  Their
verdicts, witnesses, residual counts and report digests are written to
``bench/goldens/<workload>.json``.  Clean inputs of the finite workloads
need no record: they must pass.  Re-recording is only right when a change
is meant to alter results; a change that claims the same results must pass
against the existing files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from run import source_digest, subprocess_runner  # noqa: E402

CANDIDATES = 24
POOL = 8


def record_pool(slot: str, make_op, accept, same=None) -> dict:
    """Up to POOL accepted variants.  With ``same``, only the largest group of
    variants on which ``same(op, record)`` agrees is kept, so that the seed
    moves the perturbed site without changing the amount of work."""
    accepted, keys = {}, {}
    for v in range(CANDIDATES):
        op = make_op(v)
        rec = op.outcome(op.call())
        if accept(rec):
            accepted[str(v)] = rec
            keys[str(v)] = same(op, rec) if same else None
        if same is None and len(accepted) == POOL:
            break
    if not accepted:
        raise SystemExit(f"{slot}: no candidate variant gives the required outcome")
    if same is not None:
        groups = {}
        for v in accepted:
            groups.setdefault(keys[v], []).append(v)
        _, keep = max(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))
        accepted = {v: accepted[v] for v in keep}
    return {"variants": dict(list(accepted.items())[:POOL])}


def failing(rec) -> bool:
    return not rec["ok"]


def record_finite(workload: str) -> dict:
    dense = workload == "finite-dense"
    slots = {}
    for op, family, n_sparse, n_dense, perturbed in wl.FINITE_SLOTS:
        n = n_dense if dense else n_sparse
        slot = wl.finite_slot_id(op, family, n)
        if not perturbed:
            clean = wl.finite_op(workload, 0, op, family, n, "clean")
            got = clean.outcome(clean.call())
            if got != wl.CLEAN:
                raise SystemExit(f"{slot}: the input valid by construction fails: {got}")
            continue
        slots[slot] = record_pool(
            slot, lambda v: wl.finite_op(workload, None, op, family, n, v), failing,
            same=lambda op, rec: (op.props["nonzero"], op.props["r_nonzero"]))
        print(f"{workload} {slot}: {len(slots[slot]['variants'])} variants", flush=True)
    return slots


def record_affine() -> dict:
    slots = {}
    for slot, check, N, target in wl.AFFINE_SLOTS:
        if target is None:
            op = wl.affine_op(slot, check, N, None, "clean")
            slots[slot] = {"clean": op.outcome(op.call())}
        else:
            slots[slot] = record_pool(
                slot, lambda v: wl.affine_op(slot, check, N, target, v), failing,
                same=lambda op, rec: (rec["failures"], op.props["nonzero"]))
        print(f"affine-window {slot}: recorded", flush=True)
    return slots


def record_cli() -> dict:
    slots = {}
    work = wl.cli_work_dir()
    work.mkdir(parents=True, exist_ok=True)
    repl = wl.cli_replacements()
    for slot, args, group in wl.CLI_SLOTS:
        argv = wl.resolve_args(args)

        def make_op(v, slot=slot, group=group, argv=argv):
            if v != "clean":
                make = wl.perturbed_file if group == "perturbed" else wl.broken_file
                (work / wl.work_name(slot)).write_text(make(slot, v))
            return wl.Op(slot, str(v), lambda: subprocess_runner(argv),
                         lambda res: wl.outcomes.cli_outcome(*res[:3], repl), {}, v != "clean")

        if group == "shipped":
            op = make_op("clean")
            slots[slot] = {"clean": op.outcome(op.call())}
        else:
            code = 1 if group == "perturbed" else 2
            slots[slot] = record_pool(slot, make_op, lambda rec, code=code: rec["exit"] == code)
        print(f"cli-corpus {slot}: recorded", flush=True)
    return slots


def main(names) -> int:
    for workload in names or wl.WORKLOADS:
        if workload == "cli-corpus":
            slots = record_cli()
        elif workload == "affine-window":
            slots = record_affine()
        else:
            slots = record_finite(workload)
        wl.GOLDENS.mkdir(exist_ok=True)
        out = {"workload": workload, "source_sha256": source_digest(), "slots": slots}
        (wl.GOLDENS / f"{workload}.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
