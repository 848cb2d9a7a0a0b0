"""Seeded inputs for the three benchmark workloads.

Each workload is a list of `spindrift` command lines over config files that
this module generates from the seed.  spindrift itself sees only those
files: the seed never reaches it as a flag.

* ``simulate_dense`` -- ``simulate --plot`` on the four gallery scenarios,
  each under one seeded rigid rotation of E, B, x, v and s.  A rotation
  keeps every regime intact; it changes only roundoff.  Artifact writing
  dominates.
* ``orbit_sparse`` -- two long rotated orbits (pure B, and crossed E x B
  at the exact drift velocity), sampled about 50 times per gyration
  period, plus the rotated integrator and anomalous-fd ladders.  The RK4
  step loop dominates.
* ``packet_verify`` -- ``verify-fg`` on a seeded sharp packet at 48^3,
  the rotated fg ladder and the identity suite with the seed in its
  config.  Dense kernel building dominates time and memory.
"""
from __future__ import annotations

import dataclasses
import math
import pathlib

import numpy as np

from spindrift import gallery
from spindrift.config import PacketSpec, ScenarioConfig, serialize_config

WORKLOADS = ("simulate_dense", "orbit_sparse", "packet_verify")

ORBIT_STEPS = 100_000
STEPS_PER_PERIOD = 1000
SAMPLES_PER_PERIOD = 50
PACKET_GRID_POINTS = 48
PACKET_MAX_P0 = 3.0          # |p0| <= 3 m
PACKET_WIDTHS = (0.01, 0.03)  # per-axis amplitude width, in units of m


# (config, report row) pairs that spindrift is known to fail: defect 2 of
# perfbench/README.md, the absolute 1e-12 floor of runners._fd_tolerance
# lying below the roundoff of a long drift.  Such a row lowers pass_ratio
# but fails no invocation while its residual stays at roundoff level.
KNOWN_DEFECTS = {("orbit_crossed", "fd_mass_center_c")}
KNOWN_DEFECT_MAX_RESIDUAL = 1e-10


@dataclasses.dataclass
class Invocation:
    """One CLI call and the artifacts it must leave in its output dir."""

    argv: list
    artifacts: list
    csv: str | None = None    # simulate CSV whose bytes must repeat
    known_defects: tuple = ()  # report rows listed in KNOWN_DEFECTS


def rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random proper rotation from a normalized quaternion."""
    w, x, y, z = rng.normal(size=4)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _rot(r: np.ndarray, v) -> tuple:
    return tuple(float(c) for c in r @ np.asarray(v, dtype=float))


def rotated(cfg: ScenarioConfig, r: np.ndarray) -> ScenarioConfig:
    """The same scenario seen from a rotated frame."""
    packet = dataclasses.replace(cfg.packet, p0=_rot(r, cfg.packet.p0),
                                 spin=_rot(r, cfg.packet.spin))
    return dataclasses.replace(cfg, E=_rot(r, cfg.E), B=_rot(r, cfg.B),
                               x0=_rot(r, cfg.x0), v0=_rot(r, cfg.v0),
                               s0=_rot(r, cfg.s0), packet=packet)


def _gyration_period(cfg: ScenarioConfig) -> float:
    """Lab-frame gyration period for v0 along the E x B drift, E perp B.

    In the frame drifting with u = |E|/|B| the electric field vanishes and
    the magnetic field is |B|/gamma_u; the orbit there is a circle at speed
    v' = (v - u)/(1 - u v).  The guiding center is at rest in that frame,
    so the lab period is gamma_u times the drift-frame period.  At exact
    drift (v = u, v' = 0) this is the period of any small gyration.
    """
    b = float(np.linalg.norm(cfg.B))
    u = float(np.linalg.norm(cfg.E)) / b
    v = float(np.linalg.norm(cfg.v0))
    vp = (v - u) / (1.0 - u * v)
    gamma_u2 = 1.0 / (1.0 - u * u)
    gamma_p = 1.0 / math.sqrt(1.0 - vp * vp)
    return 2.0 * math.pi * gamma_u2 * gamma_p * cfg.mass / (abs(cfg.charge) * b)


def _orbits() -> list[ScenarioConfig]:
    base = gallery.gallery_configs()
    orbits = []
    for name, cfg in (("orbit_pure_b", base["cyclotron"]),
                      ("orbit_crossed", base["crossed_drift"])):
        period = _gyration_period(cfg)
        orbits.append(dataclasses.replace(
            cfg, name=name, dt=period / STEPS_PER_PERIOD, steps=ORBIT_STEPS,
            sample_every=STEPS_PER_PERIOD // SAMPLES_PER_PERIOD))
    return orbits


def seeded_packet(rng: np.random.Generator) -> PacketSpec:
    """Sharp packet with random p0 direction, |p0| <= 3m, random spin."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    p0 = direction * rng.uniform(0.0, PACKET_MAX_P0)
    spin = rng.normal(size=3)
    spin /= np.linalg.norm(spin)
    widths = rng.uniform(*PACKET_WIDTHS, size=3)
    return PacketSpec(p0=tuple(float(c) for c in p0),
                      widths=tuple(float(c) for c in widths),
                      spin=tuple(float(c) for c in spin),
                      grid_points=PACKET_GRID_POINTS)


def scenario_configs(workload: str, seed: int) -> list[ScenarioConfig]:
    """The seeded configs of one workload, in invocation order."""
    rng = np.random.default_rng(seed)
    r = rotation(rng)
    ladders = gallery.converge_configs()
    if workload == "simulate_dense":
        return [rotated(cfg, r) for cfg in gallery.gallery_configs().values()]
    if workload == "orbit_sparse":
        return [rotated(cfg, r) for cfg in
                (*_orbits(), ladders["converge_integrator"],
                 ladders["converge_anomalous_fd"])]
    if workload == "packet_verify":
        packet = ScenarioConfig(name="packet_fg", mode="verify-fg",
                                packet=seeded_packet(rng))
        algebra = ScenarioConfig(name="packet_algebra", mode="verify-algebra",
                                 seed=seed)
        return [packet, rotated(ladders["converge_fg"], r), algebra]
    raise ValueError(f"unknown workload {workload!r}")


def _invocation(cfg: ScenarioConfig, path: pathlib.Path, out: pathlib.Path,
                plot: bool) -> Invocation:
    if cfg.mode == "simulate":
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        if plot:
            argv.append("--plot")
        csv = f"{cfg.name}_trajectory.csv"
        artifacts = [csv, f"{cfg.name}_report.txt"]
        if plot:
            artifacts.append(f"{cfg.name}_plot_energy.dat")
        return Invocation(argv, artifacts, csv)
    if cfg.mode == "converge":
        return Invocation(["converge", "--config", str(path), "--out", str(out)],
                          [f"{cfg.name}_convergence.csv",
                           f"{cfg.name}_convergence.txt"])
    return Invocation([cfg.mode, "--config", str(path), "--out", str(out)],
                      [f"{cfg.name}_report.txt", f"{cfg.name}_report.kv"])


def write_inputs(workload: str, seed: int, cfg_dir: pathlib.Path,
                 out: pathlib.Path) -> list[Invocation]:
    """Write the workload's config files; return its command lines."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    plot = workload == "simulate_dense"
    invocations = []
    for cfg in scenario_configs(workload, seed):
        path = cfg_dir / f"{cfg.name}.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        inv = _invocation(cfg, path, out, plot)
        inv.known_defects = tuple(row for name, row in KNOWN_DEFECTS
                                  if name == cfg.name)
        invocations.append(inv)
    return invocations


def warmup(cfg_dir: pathlib.Path, out: pathlib.Path) -> Invocation:
    """A tiny simulate --plot that loads every code path's imports."""
    cfg = dataclasses.replace(gallery.gallery_configs()["e_only_low_velocity"],
                              name="warmup", steps=8)
    path = cfg_dir / "warmup.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return _invocation(cfg, path, out, plot=True)
