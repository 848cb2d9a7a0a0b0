"""Scenario execution: simulation, verification and convergence runs.

Each runner consumes a validated ScenarioConfig and produces a RunReport
plus flat-file artifacts (CSV trajectories, plain-text reports, key-value
dumps).  CSV numbers carry 17 significant digits so a rerun is
byte-identical; human-readable reports use 6.  Plot files are cut from
the same formatted rows as the trajectory CSV, so each value is formatted
once, and a long trajectory's second half is formatted in a forked child.
"""
from __future__ import annotations

import contextlib
import os
import pathlib
import shutil
import signal
import tempfile

import numpy as np

from . import algebra, convergence, dynamics, exact, packets
from .config import ConfigError, ScenarioConfig
from .report import RunReport, relation_kv_lines

CSV_FMT = "%.17g"
# The low-velocity table's d row compares fP_d d(deltaX)/dt, fP_d = 1, with
# e s x E / 2m^2.  In E alone d(deltaX)/dt = V + g = (e/2m^2) [s x E / gbar
# - (s.v) v x E / (1 + gbar) - (E.v) s x v / gbar], and v^2 <= 2 (gbar - 1):
# the row reads at most (gbar - 1) (1 + 3 |s| |E| / |s x E|).  The two gates
# hold that to half the row's tolerance, (1 + 3 / 0.6) / 12 = 1/2.  From rest
# v stays along E and the row reads 1 - gbar^-3 <= 3 (gbar - 1).
LOW_VELOCITY_TABLE_TOL = 1e-6
LOW_VELOCITY_GAMMA_LIMIT = LOW_VELOCITY_TABLE_TOL / (4.0 * 3.0)
LOW_VELOCITY_MIN_SINE = 0.6
# anomalous_velocity_eom's tolerance in eps R max|s| / 2m, R the
# max_rotation_rate, from the operation count in _anomalous_velocity_rows
EOM_ROUNDOFF = 0.5 * 25 * 14
# Trajectory rows per write.  Larger blocks gain no time and cost memory:
# the whole trajectory at once raised simulate_dense's peak RSS by ~42 MiB.
_ROW_BLOCK = 64
# Rows from which the writer forks a child to format the second half.  The
# split costs a fork and a temp file per artifact.  Medians of 31
# alternating fresh-process runs on a 2-core sandbox, one process -> split:
# the CSV alone 11.5 -> 12.6 ms at 400 rows, 13.8 -> 13.8 at 500, 15.8 ->
# 14.7 at 600; with the 29 plot files 50.5 -> 58.0 ms at 800 rows, even
# from 1 000 to 2 000, 100.6 -> 88.3 at 2 400.  One threshold, at the CSV's
# break-even: every run writes the CSV, and --plot is optional.
_SPLIT_MIN_ROWS = 512


def trajectory_columns(traj: dynamics.Trajectory) -> list[tuple]:
    """(header, values) pairs in the canonical column order; a 3-vector
    series `label` gives the columns labelx, labely and labelz."""
    series = [("t", traj.t), ("", traj.x), ("v", traj.v), ("s", traj.s),
              ("S0", traj.S0), ("S", traj.S), ("dX", traj.delta_x)]
    series += [(f"X{kind}_", center) for kind, center in traj.centers.items()]
    series += [("Vp_", traj.v_anomalous), ("energy", traj.energy)]
    cols = []
    for label, vals in series:
        if vals.ndim == 1:
            cols.append((label, vals))
        else:
            cols += [(label + ax, vals[:, i]) for i, ax in enumerate("xyz")]
    return cols


def write_trajectory_csv(path, traj: dynamics.Trajectory, plot_name=None):
    """One CSV row per sample, every value as CSV_FMT, \\r\\n-terminated.

    With a `plot_name`, also one two-column gnuplot-style (t, value) file
    per column after t, `<plot_name>_plot_<col>.dat` beside the CSV, cut
    from the same formatted rows.  Returns every path written, the CSV
    first.
    """
    cols = trajectory_columns(traj)
    names, ncol = [name for name, _ in cols], len(cols)
    row = ",".join([CSV_FMT] * ncol) + "\r\n"
    paths = [pathlib.Path(path)]
    heads = [(",".join(names) + "\r\n").encode()]
    if plot_name is not None:
        paths += [paths[0].parent / f"{plot_name}_plot_{col}.dat"
                  for col in names[1:]]
        heads += [f"# t  {col}\n".encode() for col in names[1:]]

    def write(files, start, stop):
        csv, dats = files[0], files[1:]
        for a in range(start, stop, _ROW_BLOCK):
            b = min(a + _ROW_BLOCK, stop)
            rows = zip(*[vals[a:b].tolist() for _, vals in cols])
            block = "".join([row % values for values in rows]).encode()
            csv.write(block)
            if dats:
                cells = block.replace(b"\r\n", b",").split(b",")
                t = cells[:-1:ncol]
                for j, fh in enumerate(dats, start=1):
                    fh.write(b"\n".join(map(b" ".join, zip(t, cells[j::ncol])))
                             + b"\n")

    _write_split(paths, heads, write, len(traj.t))
    return paths


def _write_split(paths, heads, write, n):
    """Write each file of `paths` as its head, then rows 0 to n:
    `write(files, a, b)` formats rows a to b into `files`, one binary file
    per path.

    From _SPLIT_MIN_ROWS rows on two CPUs, a forked child formats the rows
    from n // 2 on into anonymous temp files beside the artifacts while
    this process formats those before it; each temp file is then appended
    to its artifact, so the bytes are the one-process ones.  A child that
    fails raises OSError naming the first path.
    """
    middle = n // 2 if n >= _SPLIT_MIN_ROWS and _cpus() >= 2 else n
    pid = 0
    with contextlib.ExitStack() as stack:
        temps = [stack.enter_context(tempfile.TemporaryFile(
            dir=paths[0].parent)) for _ in paths] if middle < n else []
        # forked before any artifact is open, so the child inherits no
        # buffered artifact bytes
        if temps:
            try:
                pid = os.fork()
            except OSError:  # no process to be had: format every row here
                middle = n
            else:
                if pid == 0:
                    _child(write, temps, middle, n)
        try:
            files = [stack.enter_context(open(path, "wb")) for path in paths]
            for fh, head in zip(files, heads):
                fh.write(head)
            write(files, 0, middle)
            if pid:
                status = os.waitpid(pid, 0)[1]
                pid = 0
                if status:
                    raise OSError(f"{paths[0]}: the process writing its "
                                  f"second half exited "
                                  f"{os.waitstatus_to_exitcode(status)}")
                for fh, temp in zip(files, temps):
                    temp.seek(0)
                    shutil.copyfileobj(temp, fh)
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _child(write, temps, start, stop):
    """A forked writer's whole life: rows [start, stop) into `temps`, then
    os._exit, which flushes no buffer inherited from the parent."""
    code = 1
    try:
        write(temps, start, stop)
        for temp in temps:
            temp.flush()
        code = 0
    except Exception as exc:
        os.write(2, f"{type(exc).__name__}: {exc}\n".encode())
    finally:
        os._exit(code)


def run_simulate(cfg: ScenarioConfig, outdir, plot: bool = False):
    """Sample a scenario's exact motion, write its CSV trajectory, grade it.

    Report rows: the frozen-energy monitor (warn-graded), the anomalous
    velocity against d(deltaX)/dt from the equations of motion at every
    sample, energy conservation for pure-B scenarios, and -- for
    low-velocity electric-only scenarios -- the d/e/c anomalous-velocity
    table.
    """
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fields = cfg.field_config()

    report = RunReport()
    try:
        traj = exact.propagate(cfg.initial_state(), fields, cfg.dt,
                               cfg.steps, sample_every=cfg.sample_every)
    except dynamics.IntegrationError as exc:
        raise ConfigError(f"integration.steps: {exc}") from None
    report.add("constant_gamma_max_ev", traj.max_ev,
               dynamics.CONSTANT_GAMMA_WARN * cfg.mass**2, warn_only=True)

    if not any(cfg.E) and any(cfg.B):
        drift = float((traj.energy.max() - traj.energy.min())
                      / traj.energy[0])
        report.add("energy_drift_relative", drift, 1e-10)

    _anomalous_velocity_rows(report, traj, fields)

    # written after the last row, so no row's time includes the writers
    artifacts = write_trajectory_csv(outdir / f"{cfg.name}_trajectory.csv",
                                     traj, cfg.name if plot else None)
    text_path = outdir / f"{cfg.name}_report.txt"
    text_path.write_text(report.format_table(f"simulate: {cfg.name}") + "\n",
                         encoding="utf-8")
    artifacts.append(text_path)
    return report, artifacts


def _anomalous_velocity_rows(report, traj, fields):
    """anomalous_velocity_eom at every sample, then the low-velocity table.

    V = d(deltaX)/dt at frozen energy.  The true dv/dt is F/m - e (E.v) v /
    (m gbar), and every other d gbar/dt term of d(S x v/2m)/dt meets v x v:
    dS/dt's along v, and S's along v against dv/dt's along v.  So
    d(deltaX)/dt = V + g, g = s x (-e (E.v) v / (m gbar)) / 2m.

    Tolerance: the identity holds at any state, on shell or not, so only its
    evaluation rounds.  Each term is a monomial in the state, the fields, e
    and m that passes at most 25 roundings of eps/2: boost_spin 9, gbar v 1,
    A 2 and its 4-term rows 4, dv/dt's difference and gbar^2 4, a cross
    product 2, the 1/2m 1 and two sums 2.  A row of A u sums terms of at
    most R max(|u_0|, |u|), and u, a = (S0, S) are at most gbar, gbar |s|:
    the terms of dS/dt x v and S x dv/dt sum to at most 2 rho and 4 rho,
    rho = R |s| / 2m, those of V and g to 6 rho / gbar and 2 rho / gbar,
    14 rho in all.
    """
    m = fields.mass
    # d ln(gbar)/dt = e (E.v) / (m gbar)
    log_gamma_rate = fields.charge / m * (traj.v @ fields.E) / traj.gamma
    g = -log_gamma_rate[:, None] * dynamics.position_shift(traj.s, traj.v, m)
    shift = exact.shift_velocity(traj)
    residual = dynamics.norm(shift - (traj.v_anomalous + g))
    rho = (dynamics.max_rotation_rate(fields)
           * np.max(dynamics.norm(traj.s)) / (2.0 * m))
    report.add("anomalous_velocity_eom", float(np.max(residual)),
               EOM_ROUNDOFF * exact.EPS * rho)

    if (not np.any(fields.B) and np.any(fields.E)
            and float(np.max(traj.gamma)) - 1.0 < LOW_VELOCITY_GAMMA_LIMIT):
        _low_velocity_rows(report, traj, fields, shift)


def _low_velocity_rows(report, traj, fields, shift):
    """The electric-only low-velocity mass-center velocity table from
    `shift` = d(deltaX)/dt, graded where |s x E| stays above
    LOW_VELOCITY_MIN_SINE |s| |E|.

    dx[k] = fP_k d(deltaX)/dt = d(X_k - x)/dt at frozen energy, from
    `dynamics.mass_centers` at x = 0.  d-type: matches e/(2m^2) s x E;
    e-type: half the d-type; c-type: exactly zero.
    """
    coeff = fields.charge / (2.0 * fields.mass**2)
    reference = coeff * np.cross(traj.s, fields.E)
    ref_norm = dynamics.norm(reference)
    floor = (LOW_VELOCITY_MIN_SINE * abs(coeff) * dynamics.norm(fields.E)
             * dynamics.norm(traj.s))
    if not np.all(ref_norm > floor):
        return
    dx = dynamics.mass_centers(0.0, shift, traj.gamma)
    rel = dynamics.norm(dx["d"] - reference) / ref_norm
    report.add("low_velocity_table_d", float(np.max(rel)),
               LOW_VELOCITY_TABLE_TOL)
    rel = (dynamics.norm(dx["e"] - 0.5 * dx["d"])
           / (0.5 * dynamics.norm(dx["d"])))
    report.add("low_velocity_table_e", float(np.max(rel)), 1e-3)
    report.add("low_velocity_table_c", float(np.max(np.abs(dx["c"]))), 1e-15)


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
        # building the packet is its one pass, which serves the FG and the
        # mass-center rows, so they share its phase
        report = RunReport()
        pkt = cfg.wave_packet()
        fg = packets.verify_fg_relations(pkt)
        centers = packets.verify_main_results(pkt)
        phase = report.lap()
        for rel in [*fg.values(), *centers.values()]:
            report.add(rel.name, rel.residual,
                       packets.fg_tolerance(rel.name, pkt), wall_time=phase,
                       warn=not pkt.is_sharp)
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
