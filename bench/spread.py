"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload affine-window --seeds 1-10 --seconds 30

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values = {}
    for seed in seed_range(args.seeds):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        print(f"{args.workload} {name}: median {med:.5g}, spread {spread:.4f}"
              f" (bound {bound}, a third {bound / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
