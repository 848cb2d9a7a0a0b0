"""Scenario execution: simulation, verification and convergence runs.

Each runner consumes a validated ScenarioConfig and produces a RunReport
plus flat-file artifacts (CSV trajectories, plain-text reports, key-value
dumps).  CSV numbers carry 17 significant digits so a rerun is
byte-identical; human-readable reports use 6.  Plot files are cut from
the trajectory CSV's strings, so each value is formatted once.
"""
from __future__ import annotations

import contextlib
import itertools
import pathlib

import numpy as np

from . import algebra, convergence, dynamics, exact, packets
from .config import ConfigError, ScenarioConfig
from .report import RunReport, relation_kv_lines

CSV_FMT = "%.17g"
# The low-velocity table's d row compares d(X_d - x)/dt with its limit
# e s x E / 2m^2.  From rest in E alone, v stays along E, so omega = 0,
# S x v = s x v and dv/dt = e E / (m gbar^3): the row reads 1 - gbar^-3,
# at most 3 (gbar - 1).  The table is graded where that is at most a
# quarter of the row's tolerance.
LOW_VELOCITY_TABLE_TOL = 1e-6
LOW_VELOCITY_GAMMA_LIMIT = LOW_VELOCITY_TABLE_TOL / (4.0 * 3.0)
# Widest sample spacing, as h * max_rotation_rate in radians, at which the
# central differences of the centers are graded.  Measured: the worst
# residual/tolerance ratio over pure-B, crossed and rotated orbits is 0.79
# at 2.0 and first exceeds 1 near 2.9 (pure B at gamma ~ 1, where the rate
# is the gyration frequency); aliased samples see no curvature at all.
FD_MAX_SAMPLE_ANGLE = 2.0
# Trajectory rows per write.  More rows gain no time and cost memory: the
# plot writer's traced peak on the 10 001-row cyclotron is 0.75 MB at 64
# rows and 1.02 MB at 128; the whole trajectory at once raised
# simulate_dense's peak RSS by ~42 MiB.
_ROW_BLOCK = 64


def trajectory_columns(traj: dynamics.Trajectory) -> list[tuple]:
    """(header, values) pairs in the canonical column order; a 3-vector
    series `label` gives the columns labelx, labely and labelz."""
    series = [("t", traj.t), ("", traj.x), ("v", traj.v), ("s", traj.s),
              ("S0", traj.S0), ("S", traj.S), ("dX", traj.delta_x)]
    series += [(f"X{kind}_", traj.centers[kind])
               for kind in algebra.PRYCE_KINDS]
    series += [("Vp_", traj.v_anomalous), ("energy", traj.energy)]
    cols = []
    for label, vals in series:
        if vals.ndim == 1:
            cols.append((label, vals))
        else:
            cols += [(label + ax, vals[:, i]) for i, ax in enumerate("xyz")]
    return cols


def write_trajectory_csv(path, traj: dynamics.Trajectory):
    """One CSV row per sample, every value as CSV_FMT, \\r\\n-terminated."""
    cols = trajectory_columns(traj)
    row = ",".join([CSV_FMT] * len(cols)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([name for name, _ in cols]) + "\r\n")
        for a in range(0, len(traj.t), _ROW_BLOCK):
            rows = zip(*[vals[a:a + _ROW_BLOCK].tolist() for _, vals in cols])
            fh.write("".join([row % values for values in rows]))


def write_plot_files(outdir, name, csv_path):
    """Two-column gnuplot-style (t, value) files, one per column after t,
    cut from the strings of the trajectory CSV at `csv_path`."""
    outdir = pathlib.Path(outdir)
    with contextlib.ExitStack() as stack:
        table = stack.enter_context(
            open(csv_path, newline="", encoding="utf-8"))
        cols = table.readline().rstrip("\r\n").split(",")
        ncol = len(cols)
        paths = [outdir / f"{name}_plot_{col}.dat" for col in cols[1:]]
        files = [stack.enter_context(open(path, "w", encoding="utf-8"))
                 for path in paths]
        for fh, col in zip(files, cols[1:]):
            fh.write(f"# t  {col}\n")
        while lines := list(itertools.islice(table, _ROW_BLOCK)):
            cells = "".join(lines).replace("\r\n", ",").split(",")
            t = cells[:-1:ncol]
            for j, fh in enumerate(files, start=1):
                fh.write("\n".join(map(" ".join, zip(t, cells[j::ncol])))
                         + "\n")
    return paths


def _fd_tolerance(series: np.ndarray, h: float, extra: float,
                  substeps: int) -> float:
    """Self-calibrated bound on the central-difference error.

    The leading truncation error is h^2/6 f'''; the third derivative is
    estimated from third differences of the series itself, with a factor-2
    margin.  Roundoff of `substeps` integrator steps per sample spacing h
    is bounded by sqrt(3) (substeps + 1) ulp(max|X|) / (2h).
    """
    ulp = np.spacing(np.max(np.abs(series)))
    roundoff = float(np.sqrt(3.0) * (substeps + 1) * ulp / (2.0 * h))
    d3 = np.diff(series, n=3, axis=0)
    est = float(np.max(np.abs(d3))) / (3.0 * h)
    return max(est + extra, 1e-12, roundoff)


def run_simulate(cfg: ScenarioConfig, outdir, plot: bool = False):
    """Sample a scenario's exact motion, write its CSV trajectory, grade it.

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
    try:
        traj = exact.propagate(state0, fields, cfg.dt, cfg.steps,
                               sample_every=cfg.sample_every)
    except dynamics.IntegrationError as exc:
        raise ConfigError(f"integration.steps: {exc}") from None
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
        for kind in algebra.PRYCE_KINDS:
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
            _low_velocity_rows(report, traj, fields)

    # written after the last row, so no row's time includes the writers
    csv_path = outdir / f"{cfg.name}_trajectory.csv"
    write_trajectory_csv(csv_path, traj)
    artifacts = [csv_path]
    if plot:
        artifacts += write_plot_files(outdir, cfg.name, csv_path)
    text_path = outdir / f"{cfg.name}_report.txt"
    text_path.write_text(report.format_table(f"simulate: {cfg.name}") + "\n",
                         encoding="utf-8")
    artifacts.append(text_path)
    return report, artifacts


def _low_velocity_rows(report, traj, fields):
    """The electric-only low-velocity mass-center velocity table.

    d-type: fd(X_d - x) matches e/(2m^2) s x E; e-type: half the d-type
    offset velocity; c-type: exactly zero.
    """
    interior = traj.interior_slice()
    coeff = fields.charge / (2.0 * fields.mass**2)
    reference = coeff * np.cross(traj.s[interior],
                                 np.broadcast_to(fields.E, (3,)))
    ref_norm = np.linalg.norm(reference, axis=1)
    if not np.all(ref_norm > 0):
        return
    fd = {k: traj.finite_difference(traj.centers[k] - traj.x)
          for k in algebra.PRYCE_KINDS}
    rel = np.linalg.norm(fd["d"] - reference, axis=1) / ref_norm
    report.add("low_velocity_table_d", float(np.max(rel)),
               LOW_VELOCITY_TABLE_TOL)
    rel = (np.linalg.norm(fd["e"] - 0.5 * fd["d"], axis=1)
           / (0.5 * np.linalg.norm(fd["d"], axis=1)))
    report.add("low_velocity_table_e", float(np.max(rel)), 1e-3)
    report.add("low_velocity_table_c", float(np.max(np.abs(fd["c"]))), 1e-15)


def run_verify(cfg: ScenarioConfig, outdir):
    """Expectation-relation or matrix-identity verification.

    verify-fg builds the configured packet, grades every relation residual
    against its calibrated quadratic tolerance, and appends the mass-center
    checks for every Pryce kind; rows for packets outside the sharp
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

        # the packet's one pass serves the FG and the mass-center rows, so
        # they share its phase; the ratio row times its own work
        fg = packets.verify_fg_relations(pkt)
        centers = {kind: packets.verify_main_result(pkt, kind)
                   for kind in algebra.PRYCE_KINDS}
        phase = report.lap()
        for rel in [*fg.values(), *centers.values()]:
            grade(rel.name, rel.residual, phase)
        # with <T> x <p> = 0 both offsets are roundoff and so is their ratio
        if np.linalg.norm(centers["e"].lhs) > packets.RESIDUAL_FLOOR:
            g = pkt.gamma_bar
            ratio = (np.linalg.norm(centers["d"].lhs)
                     / np.linalg.norm(centers["e"].lhs))
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
    lines += [f"fitted order: {ladder.fitted_order:.3f} "
              f"(window {center} +- {halfwidth})", "", report.format_table()]
    text_path = outdir / f"{cfg.name}_convergence.txt"
    text_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report, [csv_path, text_path]
