"""Scenario execution: simulation, verification and convergence runs.

Each runner consumes a validated ScenarioConfig and produces a RunReport
plus flat-file artifacts (CSV trajectories, plain-text reports, key-value
dumps).  CSV numbers carry 17 significant digits so a rerun is
byte-identical; human-readable reports use 6.
"""
from __future__ import annotations

import contextlib
import pathlib

import numpy as np

from . import algebra, convergence, dynamics, packets
from .config import ConfigError, ScenarioConfig
from .report import RunReport, relation_kv_lines

CSV_FMT = "%.17g"
LOW_VELOCITY_GAMMA_LIMIT = 1e-4
# Widest sample spacing, as h * max_rotation_rate in radians, at which the
# central differences of the centers are graded.  Measured: the worst
# residual/tolerance ratio over pure-B, crossed and rotated orbits is 0.79
# at 2.0 and first exceeds 1 near 2.9 (pure B at gamma ~ 1, where the rate
# is the gyration frequency); aliased samples see no curvature at all.
FD_MAX_SAMPLE_ANGLE = 2.0
# Trajectory rows formatted per write.  Holding more rows' text at once
# gains no time and costs memory: 1 024-row blocks raised simulate_dense's
# peak RSS by ~2 MiB, the whole trajectory at once by ~42 MiB.
_ROW_BLOCK = 128


def trajectory_columns(traj: dynamics.Trajectory, kinds) -> list[tuple]:
    """(header, values) pairs in the canonical column order."""
    cols = [("t", traj.t)]
    for label, arr in (("", traj.x), ("v", traj.v), ("s", traj.s)):
        for i, ax in enumerate("xyz"):
            cols.append((f"{label}{ax}", arr[:, i]))
    cols.append(("S0", traj.S0))
    for i, ax in enumerate("xyz"):
        cols.append((f"S{ax}", traj.S[:, i]))
    for i, ax in enumerate("xyz"):
        cols.append((f"dX{ax}", traj.delta_x[:, i]))
    for kind in kinds:
        for i, ax in enumerate("xyz"):
            cols.append((f"X{kind}_{ax}", traj.centers[kind][:, i]))
    for i, ax in enumerate("xyz"):
        cols.append((f"Vp_{ax}", traj.v_anomalous[:, i]))
    cols.append(("energy", traj.energy))
    return cols


def write_trajectory_csv(path, traj: dynamics.Trajectory, kinds):
    """One CSV row per sample, every value as CSV_FMT, \\r\\n-terminated."""
    cols = trajectory_columns(traj, kinds)
    row = ",".join([CSV_FMT] * len(cols)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([name for name, _ in cols]) + "\r\n")
        for a in range(0, len(traj.t), _ROW_BLOCK):
            rows = zip(*[vals[a:a + _ROW_BLOCK].tolist() for _, vals in cols])
            fh.write("".join([row % values for values in rows]))


def write_plot_files(outdir, name, traj: dynamics.Trajectory, kinds):
    """Two-column gnuplot-style (t, value) files, one per observable."""
    outdir = pathlib.Path(outdir)
    cols = trajectory_columns(traj, kinds)[1:]
    paths = [outdir / f"{name}_plot_{col}.dat" for col, _ in cols]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8"))
                 for path in paths]
        for fh, (col, _) in zip(files, cols):
            fh.write(f"# t  {col}\n")
        row = "%s " + CSV_FMT + "\n"
        for a in range(0, len(traj.t), _ROW_BLOCK):
            t = [CSV_FMT % x for x in traj.t[a:a + _ROW_BLOCK].tolist()]
            for fh, (_, vals) in zip(files, cols):
                rows = zip(t, vals[a:a + _ROW_BLOCK].tolist())
                fh.write("".join([row % tv for tv in rows]))
    return paths


def _fd_tolerance(series: np.ndarray, h: float, extra: float = 0.0,
                  substeps: int = 1) -> float:
    """Self-calibrated bound on the central-difference error.

    The leading truncation error is h^2/6 f'''; the third derivative is
    estimated from third differences of the series itself, with a factor-2
    margin.  Roundoff of `substeps` integrator steps per sample spacing h
    is bounded by sqrt(3) (substeps + 1) ulp(max|X|) / (2h).
    """
    ulp = np.spacing(np.max(np.abs(series)))
    roundoff = float(np.sqrt(3.0) * (substeps + 1) * ulp / (2.0 * h))
    if len(series) < 4:
        return max(extra, 1e-12, roundoff)
    d3 = np.diff(series, n=3, axis=0)
    est = float(np.max(np.abs(d3))) / (3.0 * h)
    return max(est + extra, 1e-12, roundoff)


def run_simulate(cfg: ScenarioConfig, outdir, plot: bool = False):
    """Integrate a scenario, write its CSV trajectory, grade the run.

    Report rows: the frozen-energy monitor (warn-graded), finite-difference
    mass-center velocities against v + fP * V (self-calibrated tolerance),
    energy conservation for pure-B scenarios, and -- for low-velocity
    electric-only scenarios -- the d/e/c anomalous-velocity table.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fields = cfg.field_config()
    state0 = cfg.initial_state()
    graded = cfg.steps // cfg.sample_every >= 3  # four samples or more
    angle = cfg.dt * cfg.sample_every * dynamics.max_rotation_rate(fields)
    if graded and angle > FD_MAX_SAMPLE_ANGLE:
        raise ConfigError(
            f"integration.sample_every: samples are {angle:.3g} rad apart at "
            f"the fastest rotation rate, above {FD_MAX_SAMPLE_ANGLE}; their "
            f"finite differences would alias")

    report = RunReport()
    traj = dynamics.integrate(state0, fields, cfg.dt, cfg.steps,
                              sample_every=cfg.sample_every,
                              kinds=cfg.pryce_kinds)
    report.add("constant_gamma_max_ev", traj.max_ev,
               dynamics.CONSTANT_GAMMA_WARN * cfg.mass**2, warn_only=True)

    if not any(cfg.E) and any(cfg.B):
        drift = float((traj.energy.max() - traj.energy.min())
                      / traj.energy[0])
        report.add("energy_drift_relative", drift, 1e-10)

    if graded:
        h = traj.dt
        interior = traj.interior_slice()
        smax = float(np.max(np.linalg.norm(traj.s, axis=1)))
        vmax = float(np.max(np.linalg.norm(traj.v, axis=1)))
        # compact form uses the frozen-energy Lorentz force; the worst-case
        # slack |s x (v.E) v| e / (2 m^2) is attained for s perpendicular
        # to v, and the drifting fP(gamma) contributes at the same scale
        shortcut = 2.0 * traj.max_ev * smax * vmax / (2.0 * cfg.mass**2)
        for kind in cfg.pryce_kinds:
            fd = traj.finite_difference(traj.centers[kind])
            fp = traj.pryce_fp(kind)[interior]
            predicted = (traj.v[interior]
                         + fp[:, None] * traj.v_anomalous[interior])
            residual = float(np.max(np.linalg.norm(fd - predicted, axis=1)))
            tol = _fd_tolerance(traj.centers[kind], h, extra=shortcut,
                                substeps=cfg.sample_every)
            report.add(f"fd_mass_center_{kind}", residual, tol)

        gamma_excursion = float(np.max(traj.gamma) - 1.0)
        if (not any(cfg.B) and any(cfg.E)
                and gamma_excursion < LOW_VELOCITY_GAMMA_LIMIT
                and np.any(traj.s[0])):
            _low_velocity_rows(report, traj, fields, cfg)

    # written after the last row, so no row's time includes the writers
    csv_path = outdir / f"{cfg.name}_trajectory.csv"
    write_trajectory_csv(csv_path, traj, cfg.pryce_kinds)
    artifacts = [csv_path]
    if plot:
        artifacts += write_plot_files(outdir, cfg.name, traj, cfg.pryce_kinds)
    text_path = outdir / f"{cfg.name}_report.txt"
    text_path.write_text(report.format_table(f"simulate: {cfg.name}") + "\n",
                         encoding="utf-8")
    artifacts.append(text_path)
    return report, artifacts


def _low_velocity_rows(report, traj, fields, cfg):
    """The electric-only low-velocity mass-center velocity table.

    d-type: fd(X_d - x) matches e/(2m^2) s x E; e-type: half the d-type
    offset velocity; c-type: exactly zero.
    """
    interior = traj.interior_slice()
    coeff = fields.charge / (2.0 * cfg.mass**2)
    reference = coeff * np.cross(traj.s[interior],
                                 np.broadcast_to(fields.E, (3,)))
    ref_norm = np.linalg.norm(reference, axis=1)
    if not np.all(ref_norm > 0):
        return
    fd = {k: traj.finite_difference(traj.center_offset(k))
          for k in cfg.pryce_kinds}
    if "d" in fd:
        rel = np.linalg.norm(fd["d"] - reference, axis=1) / ref_norm
        report.add("low_velocity_table_d", float(np.max(rel)), 1e-6)
    if "d" in fd and "e" in fd:
        rel = (np.linalg.norm(fd["e"] - 0.5 * fd["d"], axis=1)
               / (0.5 * np.linalg.norm(fd["d"], axis=1)))
        report.add("low_velocity_table_e", float(np.max(rel)), 1e-3)
    if "c" in fd:
        report.add("low_velocity_table_c", float(np.max(np.abs(fd["c"]))),
                   1e-15)


def run_verify(cfg: ScenarioConfig, outdir):
    """Expectation-relation or matrix-identity verification.

    verify-fg builds the configured packet, grades every relation residual
    against its calibrated quadratic tolerance, and appends the mass-center
    checks for the requested types; rows for packets outside the sharp
    regime are downgraded to warn.  verify-algebra runs the identity suite.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if cfg.mode == "verify-algebra":
        report = algebra.identity_report(
            n_momenta=cfg.algebra_momenta, pmax_over_m=cfg.algebra_pmax,
            m=cfg.mass, seed=cfg.seed)
        kv_lines = report.to_kv_lines(prefix="algebra.")
        title = f"verify-algebra: {cfg.name}"
    elif cfg.mode == "verify-fg":
        pkt = cfg.wave_packet()
        report = RunReport()

        def grade(name, residual, seconds=None):
            report.add(name, residual, packets.fg_tolerance(name, pkt),
                       wall_time=seconds, warn=not pkt.is_sharp)

        # FG rows share the relations phase; later rows time their own work
        fg = packets.verify_fg_relations(pkt)
        phase = report.lap()
        for rel in fg.values():
            grade(rel.name, rel.residual, phase)
        tbar = fg["T_from_O"].lhs  # <T>
        offsets = {}
        for kind in cfg.pryce_kinds:
            rel = packets.verify_main_result(pkt, kind, tbar=tbar)
            offsets[kind] = rel.lhs
            grade(rel.name, rel.residual)
        if "d" in offsets and "e" in offsets:
            g = pkt.gamma_bar
            ratio = np.linalg.norm(offsets["d"]) / np.linalg.norm(offsets["e"])
            grade("offset_ratio_d_e", abs(ratio - (1.0 + g)) / (1.0 + g))
        kv_lines = [f"packet.gamma_bar = {pkt.gamma_bar:.17g}",
                    f"packet.sharp = {pkt.is_sharp}"]
        kv_lines += relation_kv_lines(fg.values(), prefix="fg.")
        kv_lines += report.to_kv_lines(prefix="check.")
        title = f"verify-fg: {cfg.name}"
    else:
        raise ValueError(f"run_verify cannot handle mode {cfg.mode!r}")

    text_path = outdir / f"{cfg.name}_report.txt"
    text_path.write_text(report.format_table(title) + "\n", encoding="utf-8")
    kv_path = outdir / f"{cfg.name}_report.kv"
    kv_path.write_text("\n".join(kv_lines) + "\n", encoding="utf-8")
    return report, [text_path, kv_path]


def run_converge(cfg: ScenarioConfig, outdir):
    """Refinement ladder for the configured target; grades the fitted order."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    report = RunReport()
    ladder = convergence.run_ladder(cfg)
    center, halfwidth = convergence.TARGETS[ladder.target].window
    report.add(f"{ladder.target}_order",
               abs(ladder.fitted_order - center), halfwidth)

    csv_path = outdir / f"{cfg.name}_convergence.csv"
    orders = [""] + [CSV_FMT % o for o in ladder.pairwise_orders]
    row = f"{CSV_FMT},{CSV_FMT},%s\r\n"
    csv_path.write_text(
        "resolution,error,observed_order\r\n"
        + "".join([row % r for r in zip(ladder.resolutions, ladder.errors,
                                         orders)]),
        encoding="utf-8", newline="")

    lines = [f"converge: {cfg.name} (target {ladder.target})",
             f"{'resolution':>14}  {'error':>13}  {'order':>8}"]
    orders = [float("nan")] + list(ladder.pairwise_orders)
    for h, e, o in zip(ladder.resolutions, ladder.errors, orders):
        lines.append(f"{h:>14.6g}  {e:>13.6g}  {o:>8.3f}")
    lines.append(f"fitted order: {ladder.fitted_order:.3f} "
                 f"(window {center} +- {halfwidth})")
    lines.append("")
    lines.append(report.format_table())
    text_path = outdir / f"{cfg.name}_convergence.txt"
    text_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report, [csv_path, text_path]
