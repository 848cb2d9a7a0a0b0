"""Outside-in tracing of the spindrift layers.

`install` wraps every public function of the package modules and rebinds
the wrapper wherever a module looks the function up by name (``cli`` binds
``load_config`` at import, ``dynamics`` binds ``pryce_factors``, and so
on).  Nothing inside ``src/`` changes.  Each call becomes one span: name,
start, end, parent span, run id, and the exact counts that the call's
arguments and result carry.  Spans stay in memory until the process ends.

`summarize` turns the spans of one workload into the per-layer metrics.
A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = ("cli", "config", "dynamics", "runners", "packets", "algebra",
           "convergence", "report", "gallery")
# Layers whose share of the traced wall is reported.
LAYERS = MODULES[:7]

# Dense (..., 4, 4) operator kernels built on the packet grid.
KERNELS = ("algebra.little_group_generators", "algebra.fw_transform",
           "algebra.o_operator", "algebra.pryce_kernel")
ORACLE = "algebra.identity_report"


def _nbytes(result) -> int:
    if isinstance(result, tuple):
        return sum(a.nbytes for a in result)
    return result.nbytes


def _sizes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# function -> counts taken from its bound arguments and its result
COUNTERS = {
    "dynamics.integrate": lambda a, r: {"steps": a["steps"],
                                        "samples": len(r.t)},
    "runners.write_trajectory_csv": lambda a, r: {
        "bytes": os.path.getsize(a["path"])},
    "runners.write_plot_files": lambda a, r: {"files": len(r),
                                              "bytes": _sizes(r)},
    "packets.make_gaussian_packet": lambda a, r: {
        "grid_points": r.momenta[..., 0].size},
    "convergence.run_ladder": lambda a, r: {"rungs": len(r.errors)},
    **{name: (lambda a, r: {"bytes": _nbytes(r)}) for name in KERNELS},
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "run": self.run}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions where callers look them up."""
    modules = [importlib.import_module(f"spindrift.{name}")
               for name in MODULES]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for mod in [importlib.import_module("spindrift"), *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_step"):
        return "us"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def _self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def _under_oracle(spans: list[dict]) -> list[bool]:
    flags = []
    for s in spans:  # parents precede their children
        p = s["parent"]
        flags.append(s["name"] == ORACLE or (p is not None and flags[p]))
    return flags


def summarize(spans: list[dict], wall: float) -> dict:
    """Per-layer metrics of one traced workload run.

    Times are seconds; `self` excludes child spans, `incl` does not.  The
    kernel metrics count the packet path only: spans below the identity
    suite (the dense-kernel oracle) go to ``algebra.identity_s``.
    """
    self_t, incl, calls, counts = {}, {}, {}, {}
    kernel_self, kernel_calls, kernel_bytes, kernel_max = {}, 0, 0, 0
    module_self = dict.fromkeys(LAYERS, 0.0)
    for s, st, oracle in zip(spans, _self_times(spans), _under_oracle(spans)):
        name = s["name"]
        self_t[name] = self_t.get(name, 0.0) + st
        incl[name] = incl.get(name, 0.0) + s["end"] - s["start"]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        if layer in module_self:
            module_self[layer] += st
        for key, val in s.get("counts", {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + val
        if name in KERNELS and not oracle:
            nbytes = s.get("counts", {}).get("bytes", 0)  # 0 if it raised
            kernel_self[name] = kernel_self.get(name, 0.0) + st
            kernel_calls += 1
            kernel_bytes += nbytes
            kernel_max = max(kernel_max, nbytes)

    steps = counts.get("dynamics.integrate.steps", 0)
    integrate_s = self_t.get("dynamics.integrate", 0.0)
    metrics = {
        "dynamics.integrate_s": integrate_s,
        "dynamics.steps": steps,
        "dynamics.samples": counts.get("dynamics.integrate.samples", 0),
        "dynamics.us_per_step": 1e6 * integrate_s / steps if steps else 0.0,
        "runners.csv_s": incl.get("runners.write_trajectory_csv", 0.0),
        "runners.csv_bytes": counts.get(
            "runners.write_trajectory_csv.bytes", 0),
        "runners.plot_s": incl.get("runners.write_plot_files", 0.0),
        "runners.plot_files": counts.get("runners.write_plot_files.files", 0),
        "runners.plot_bytes": counts.get("runners.write_plot_files.bytes", 0),
        "runners.grade_s": sum(self_t.get(f"runners.{f}", 0.0) for f in
                               ("run_simulate", "run_verify", "run_converge")),
        "algebra.o_operator_s": kernel_self.get("algebra.o_operator", 0.0),
        "algebra.pryce_kernel_s": kernel_self.get("algebra.pryce_kernel", 0.0),
        "algebra.little_group_s": kernel_self.get(
            "algebra.little_group_generators", 0.0),
        "algebra.fw_transform_s": kernel_self.get("algebra.fw_transform", 0.0),
        "algebra.kernel_calls": kernel_calls,
        "algebra.kernel_bytes": kernel_bytes,
        "algebra.kernel_max_bytes": kernel_max,
        "algebra.identity_s": incl.get(ORACLE, 0.0),
        "packets.build_s": incl.get("packets.make_gaussian_packet", 0.0),
        "packets.grid_points": counts.get(
            "packets.make_gaussian_packet.grid_points", 0),
        "packets.contract_s": self_t.get("packets.expectation", 0.0),
        "packets.expectation_calls": calls.get("packets.expectation", 0),
        "convergence.ladder_s": incl.get("convergence.run_ladder", 0.0),
        "convergence.rungs": counts.get("convergence.run_ladder.rungs", 0),
        "config.load_s": incl.get("config.load_config", 0.0),
        "cli.main_s": self_t.get("cli.main", 0.0),
    }
    shares = {layer: t / wall for layer, t in module_self.items()}
    return {"metrics": metrics, "shares": shares, "calls": calls}
