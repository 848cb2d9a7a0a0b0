"""spindrift benchmark: one workload, closed loop, one fresh process per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload simulate_dense --seed 1 \
        --seconds 40 --trace 0

Each iteration starts a fresh interpreter (`worker.py`) that sets up, then
runs the workload's CLI invocations serially; the next iteration starts
only after the previous one ended.  Iterations repeat while the next one
is expected to end within `--seconds` (at least three untraced ones; with
`--trace 1`, untraced and traced iterations alternate, at least two of
each).  Untraced runs also start set-up-only workers between iterations,
so that set-up is measured at least once every SETUP_EVERY_S seconds.

The last line of stdout is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics.  See perfbench/README.md
for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = pathlib.Path(__file__).resolve().parent
# Layers with at least this share of the traced wall, in two traced
# iterations, must rank the same in both.
ORDER_MIN_SHARE = 0.05
WORKER_TIMEOUT_S = 120
SETUP_EVERY_S = 2.0
# Shape of each workload's time, as the traced run must reproduce it.
SHAPES = {
    "simulate_dense": ("writers > integrate",
                       lambda m, wall: m["runners.csv_s"] + m["runners.plot_s"]
                       > m["dynamics.integrate_s"]),
    "orbit_sparse": ("integrate >= 90% of wall",
                     lambda m, wall: m["dynamics.integrate_s"] >= 0.9 * wall),
    "packet_verify": ("kernel builds > contraction",
                      lambda m, wall: m["algebra.o_operator_s"]
                      + m["algebra.pryce_kernel_s"] + m["algebra.little_group_s"]
                      + m["algebra.fw_transform_s"] > m["packets.contract_s"]),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env(root: pathlib.Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(root: pathlib.Path, scratch: pathlib.Path, args, traced: bool,
               index: int, setup_only: bool = False) -> dict:
    """One iteration in a fresh process, in its own temporary directory."""
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="iter-", dir=scratch))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--dir", str(tmp),
           "--trace", str(int(traced)), "--run-id", str(index)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=root, env=_env(root),
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: "
                             f"{' '.join(cmd)}")
        result = json.loads((tmp / "result.json").read_text("utf-8"))
        result["setup_s"] = result.pop("ready") - spawned
        if setup_only:
            return result
        result["traced"] = traced
        if traced:
            result["spans"] = json.loads((tmp / "spans.json").read_text("utf-8"))
        return result
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran over {WORKER_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def iterate(root: pathlib.Path, scratch: pathlib.Path,
            args) -> tuple[list[dict], list[float]]:
    """Closed loop: iterations back to back until --seconds is spent.

    Returns the iterations' results and every set-up time measured.
    """
    start = time.monotonic()
    results, durations, setups = [], [], []
    minimum = 4 if args.trace else 3
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        t0 = time.monotonic()
        results.append(run_worker(root, scratch, args, traced, len(results)))
        durations.append(time.monotonic() - t0)
        setups.append(results[-1]["setup_s"])
        # the next iteration starts only if it should end by the deadline
        if (len(results) >= minimum and time.monotonic() - start
                + statistics.median(durations) > args.seconds):
            return results, setups
        while not args.trace and (len(setups) * SETUP_EVERY_S
                                  < time.monotonic() - start):
            setups.append(run_worker(root, scratch, args, False, -1,
                                     setup_only=True)["setup_s"])


def check_outputs(results: list[dict]) -> tuple[int, int, int, int, list]:
    """(invocations, failed invocations, rows passed, rows graded, problems).

    A failed invocation is one with a failing row that is not a known
    defect, an exit code other than its report implies, a missing artifact,
    or a simulate CSV whose bytes differ from the same command's CSV in
    another iteration of this run.  Known-defect rows count as not passed.
    """
    first_sha, problems, known = {}, [], {}
    attempted = failed = passed = graded = 0
    for it, res in enumerate(results):
        for inv in res["invocations"]:
            attempted += 1
            graded += inv["rows"]
            passed += inv["rows"] - len(inv["failed_rows"])
            for row, residual in inv["known_rows"]:
                known.setdefault(f"{inv['command']}: {row}",
                                 []).append(residual)
            bad = [] if inv["ok"] else [
                f"exit {inv['exit']}, failed rows {inv['failed_rows']}, "
                f"missing {inv['missing']}"]
            if inv["csv"]:
                sha = first_sha.setdefault(inv["command"], inv["sha256"])
                if inv["sha256"] != sha:
                    bad.append(f"{inv['csv']} bytes differ between reruns")
            if bad:
                failed += 1
                graded += 1  # the failure itself counts against the ratio
                problems += [f"iteration {it}: {inv['command']}: {b}"
                             for b in bad]
    for row, residuals in known.items():
        print(f"known defect: {row} failed in {len(residuals)} of "
              f"{len(results)} iterations, residual {residuals[0]:.3g}")
    return attempted, failed, passed, graded, problems


def _describe(name: str, values: list[float], unit: str) -> str:
    q = statistics.quantiles(values, n=4)
    return (f"{name:<28} {statistics.median(values):>12.6g} {unit:<6} "
            f"median of {len(values)}; q1 {q[0]:.6g}, q3 {q[2]:.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g}")


def end_to_end(results: list[dict], setups: list[float],
               pass_ratio: float) -> dict:
    walls = [r["wall_s"] for r in results]
    cpus = [r["cpu_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    print(_describe("wall_s", walls, "s"))
    print(_describe("setup_s", setups, "s"))
    print(_describe("peak_rss_mb", rss, "MiB"))
    print(_describe("cpu_s (info)", cpus, "s"))
    print(f"{'pass_ratio':<28} {pass_ratio:>12.6g} ratio")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        "pass_ratio": {"value": pass_ratio, "unit": "ratio"},
    }


def _order(trace: dict, layers: list[str]) -> list[str]:
    """The given layers, by decreasing self time in one traced iteration."""
    return sorted(layers, key=lambda layer: -trace["shares"][layer])


def _counts(trace: dict) -> dict:
    """The exact counts of one traced iteration, with every call count."""
    counts = {k: v for k, v in trace["metrics"].items()
              if tracing.unit(k) not in ("s", "us")}
    return {**counts, "calls": trace["calls"]}


def per_layer(results: list[dict], workload: str,
              out: pathlib.Path) -> tuple[dict, list]:
    """Medians of the traced iterations, plus the count/ordering self-check."""
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    first = traced[0]["trace"]
    metrics = {}
    for name, value in first["metrics"].items():
        unit = tracing.unit(name)
        if unit in ("s", "us"):  # counts are checked equal below
            value = statistics.median(r["trace"]["metrics"][name]
                                      for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    problems = []
    for r in traced[1:]:
        t = r["trace"]
        if _counts(t) != _counts(first):
            problems.append("counts differ between traced iterations")
        both = [layer for layer, share in first["shares"].items()
                if share >= ORDER_MIN_SHARE
                and t["shares"][layer] >= ORDER_MIN_SHARE]
        if _order(first, both) != _order(t, both):
            problems.append(f"layer ordering differs: {_order(first, both)} "
                            f"vs {_order(t, both)}")
    for name, m in metrics.items():
        fmt = ">14d" if isinstance(m["value"], int) else ">14.6g"
        print(f"{name:<28} {m['value']:{fmt}} {m['unit']}")
    wall = statistics.median(r["wall_s"] for r in traced)
    shares = ", ".join(f"{k} {v:.1%}" for k, v in first["shares"].items())
    print(f"layer self-time shares: {shares}")
    ranked = _order(first, [layer for layer, share in first["shares"].items()
                            if share >= ORDER_MIN_SHARE])
    print(f"layer ordering (share >= {ORDER_MIN_SHARE:.0%}): "
          f"{' > '.join(ranked)}")
    label, shape = SHAPES[workload]
    holds = shape({k: v["value"] for k, v in metrics.items()}, wall)
    print(f"shape '{label}': {'holds' if holds else 'DOES NOT HOLD'}")
    spans = [s for r in traced for s in r["spans"]]
    path = out / f"spans-{workload}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")
    print(f"spans: {len(spans)} written to {path}")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "spindrift" / "__init__.py").is_file():
        print("error: run from the repository root; src/spindrift is "
              "missing", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=out))
    try:
        results, setups = iterate(root, scratch, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, passed, graded, problems = check_outputs(results)
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} "
          f"iterations, {attempted} invocations, {failed} failed")
    if args.trace:
        metrics, trace_problems = per_layer(results, args.workload, out)
        problems += trace_problems
    else:
        metrics = end_to_end(results, setups, passed / graded)
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
