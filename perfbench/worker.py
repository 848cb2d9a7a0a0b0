"""One benchmark iteration in a fresh interpreter.

Set-up is everything before the timed region: interpreter start, importing
spindrift, writing the seeded configs and one tiny warm-up invocation.  The
timed region calls the CLI entry point (`spindrift.cli.main`) once per
command line of the workload, serially, exactly as the `spindrift` script
would.  Grading the outputs happens after the timed region.

Writes ``result.json`` (and, when traced, ``spans.json``) into ``--dir``.
Run by ``run.py``; not meant to be started by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import pathlib
import resource
import sys
import time
import traceback

from spindrift import cli

import tracing
import workloads

CRASH = -1


def _call(inv: workloads.Invocation) -> tuple[int, str]:
    """Run one command line in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(inv.argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed invocation, not a dead run
        traceback.print_exc()
        code = CRASH
    return code, buf.getvalue()


def _rows(stdout: str) -> list[tuple[str, str, float]]:
    """(check, status, residual) of the report table the CLI printed."""
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[1] in ("pass", "warn", "fail"):
            rows.append((parts[0], parts[1], float(parts[2])))
    return rows


def grade(inv: workloads.Invocation, code: int, stdout: str,
          out: pathlib.Path) -> dict:
    """What one invocation produced, checked against what it must produce.

    A failing row listed in the invocation's known defects, with a residual
    at roundoff level, is reported in ``known_rows`` and does not make the
    invocation fail; every other failing row does.
    """
    rows = _rows(stdout)
    failed_rows = [name for name, status, _ in rows if status == "fail"]
    known_rows = [(name, residual) for name, status, residual in rows
                  if status == "fail" and name in inv.known_defects
                  and residual <= workloads.KNOWN_DEFECT_MAX_RESIDUAL]
    missing = [a for a in inv.artifacts
               if not (out / a).is_file() or (out / a).stat().st_size == 0]
    expected = 1 if failed_rows else 0
    sha = None
    if inv.csv and not missing:
        sha = hashlib.sha256((out / inv.csv).read_bytes()).hexdigest()
    return {"command": " ".join([inv.argv[0], pathlib.Path(inv.argv[2]).name]),
            "exit": code, "rows": len(rows), "failed_rows": failed_rows,
            "known_rows": known_rows, "missing": missing, "csv": inv.csv,
            "sha256": sha,
            "ok": (code == expected and rows != [] and not missing
                   and len(known_rows) == len(failed_rows))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=pathlib.Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit as soon as set-up is done")
    args = ap.parse_args(argv)

    out = args.dir / "out"
    invocations = workloads.write_inputs(args.workload, args.seed,
                                         args.dir / "cfg", out)
    warm = workloads.warmup(args.dir / "cfg", args.dir / "warmup")
    code, _ = _call(warm)
    if code != 0:
        print(f"warm-up invocation exited {code}", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        (args.dir / "result.json").write_text(json.dumps({"ready": ready}),
                                              encoding="utf-8")
        return 0

    outputs = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, inv in enumerate(invocations):
        if tracer:
            tracer.run = f"{args.run_id}.{i}"
        outputs.append(_call(inv))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    result = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "invocations": [grade(inv, code, text, out)
                        for inv, (code, text) in zip(invocations, outputs)],
    }
    if tracer:
        result["trace"] = tracing.summarize(tracer.spans, wall)
        (args.dir / "spans.json").write_text(json.dumps(tracer.spans),
                                             encoding="utf-8")
    (args.dir / "result.json").write_text(json.dumps(result),
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
