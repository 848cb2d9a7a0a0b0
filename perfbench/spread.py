"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload packet_verify --seeds 1 2 3 4 5 \
        --seconds 40

Runs `run.py` once per seed, serially, and prints for each metric the
median of the per-run values and the distance between their first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of that
median.  A bound in BENCHMARK.json is sound when this share stays well
inside it.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = ", ".join(f"{k} {m['value']:.6g}"
                         for k, m in result["metrics"].items())
        print(f"seed {seed}: correct {result['correct']}, failed "
              f"{result['failed']}/{result['attempted']}: {line}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} median {med:.6g}  iqr/median {share:.4f}  "
              f"(n={len(vals)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
