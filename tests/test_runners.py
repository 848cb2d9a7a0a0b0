import csv
import dataclasses
import hashlib
import os
import pathlib
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from spindrift import cli, config, dynamics, exact, gallery, packets, runners
from spindrift.config import ScenarioConfig, load_config

DATA = pathlib.Path(__file__).parent / "data"

# anomalous_velocity_eom's tolerance on the gallery scenarios,
# EOM_ROUNDOFF eps R max|s| / 2m
GALLERY_EOM_TOLERANCES = {
    "e_only_low_velocity": 9.71445146547012e-19,
    "cyclotron": 2.5921389603912423e-16,
    "crossed_drift": 2.720323951928227e-16,
    "fprime_zero": 2.331468351712829e-16,
}

# sha256 of the heavy_crossed CSV, recorded with Python 3.11.7 and
# numpy 2.4.6
HEAVY_CROSSED_CSV_SHA256 = (
    "cedfa1d905b22160148c9b649026430a517fb72fc04faa17e7cb3a2a6666af13")
# sha256 of two verify-fg .kv files, recorded with Python 3.11.7 and numpy
# 2.4.6: the default packet at 48^3, and golden_verify_fg.cfg (m = 1.3;
# rows for all three Pryce kinds; a grid of packets.GRID_RADIUS widths)
VERIFY_FG_KV_SHA256 = {
    "default_48": (
        "85005d1b11f22fca2d8dc7accc495df1b03663ce74fdf56f8299cb67db5c673a"),
    "golden": (
        "e2b2334a42c18132849cf9fdc8dc26db45f05937f9e6b8007fa1ee68a8b45b80"),
}


@pytest.fixture(scope="module")
def gallery_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("gallery")
    return {name: runners.run_simulate(cfg, out)[0]
            for name, cfg in gallery.gallery_configs().items()}


@pytest.mark.parametrize("name", sorted(GALLERY_EOM_TOLERANCES))
def test_gallery_fd_tolerances_unchanged(name, gallery_reports):
    row = gallery_reports[name]["anomalous_velocity_eom"]
    assert row.tolerance == pytest.approx(GALLERY_EOM_TOLERANCES[name],
                                          rel=1e-9)
    assert row.status == "pass"


@pytest.mark.parametrize("name", sorted(GALLERY_EOM_TOLERANCES))
def test_simulate_row_times(name, gallery_reports):
    for row in gallery_reports[name]:
        assert row.wall_time > 0.0, row.name
    # header and rule, then one line per row ending in its printed time
    for line in gallery_reports[name].format_table().splitlines()[2:]:
        assert float(line.split()[-1]) != 0.0, line


def _assert_rows_timed(report):
    for row in report:
        assert row.wall_time > 0.0, row.name
    # header and rule, then one line per row ending in its printed time
    for line in report.format_table().splitlines()[2:]:
        assert float(line.split()[-1]) != 0.0, line


def test_verify_algebra_row_times(tmp_path):
    cfg = ScenarioConfig(name="t", mode="verify-algebra", algebra_momenta=20)
    report, _ = runners.run_verify(cfg, tmp_path)
    assert len(report) == 17
    _assert_rows_timed(report)


@pytest.mark.parametrize("name", sorted(gallery.converge_configs()))
def test_converge_row_times(name, tmp_path):
    report, _ = runners.run_converge(gallery.converge_configs()[name],
                                     tmp_path)
    _assert_rows_timed(report)


def test_simulate_rows_exclude_writers(tmp_path, monkeypatch):
    def slow(write):
        def wrapped(*args):
            time.sleep(0.2)
            return write(*args)
        return wrapped

    for name in ("write_trajectory_csv", "write_plot_files"):
        monkeypatch.setattr(runners, name, slow(getattr(runners, name)))
    cfg = gallery.gallery_configs()["e_only_low_velocity"]
    report, _ = runners.run_simulate(cfg, tmp_path, plot=True)
    assert len(report) == 5
    for row in report:
        assert row.wall_time < 0.2, row.name


@pytest.mark.parametrize("dt_factor, sample_every", [(1.0, 1000), (20.0, 1)],
                         ids=["sample_every_1000", "dt_x20"])
def test_coarse_sampling_grades_pass(dt_factor, sample_every, tmp_path):
    # one sample per gyration, or 0.157 rad per step: the row reads the
    # equations of motion at each sample, not the samples' spacing
    cfg = gallery.gallery_configs()["cyclotron"]
    cfg = dataclasses.replace(cfg, dt=cfg.dt * dt_factor,
                              sample_every=sample_every)
    report, _ = runners.run_simulate(config.override(cfg, {}), tmp_path)
    assert report["anomalous_velocity_eom"].status == "pass"
    assert report.all_pass(), report.format_table()


def test_long_drift_passes_at_roundoff(tmp_path):
    # positions grow to ~9e3 over 100 000 steps; the row grades each sample
    # on its own, so its residual stays at the rounding of one evaluation
    report, _ = runners.run_simulate(
        load_config(DATA / "orbit_crossed_seed0.cfg"), tmp_path)
    row = report["anomalous_velocity_eom"]
    assert 0.0 < row.residual <= row.tolerance < 1e-15
    assert report.all_pass(), report.format_table()


def test_long_drift_still_sees_anomalous_velocity(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "anomalous_velocity",
                        lambda state, fields: np.zeros_like(state.v))
    report, _ = runners.run_simulate(
        load_config(DATA / "orbit_crossed_seed0.cfg"), tmp_path)
    assert report["anomalous_velocity_eom"].status == "fail"


def _omega_without_gamma_factor(state, fields):
    """omega with gbar/(1 + gbar) set to 1."""
    return (fields.charge / fields.mass) / state.gamma[..., None] * (
        fields.B + np.cross(fields.E, state.v))


def _omega_flipped_e_term(state, fields):
    """omega with the sign of its E x v term flipped."""
    g = state.gamma[..., None]
    return (fields.charge / fields.mass) / g * (
        fields.B - g / (1.0 + g) * np.cross(fields.E, state.v))


def _scaled_anomalous_velocity(factor):
    bare = dynamics.anomalous_velocity
    return lambda state, fields: factor * bare(state, fields)


def _negated_generator(fields, generator=exact._generator):
    """exact._generator with the sign of A flipped."""
    return -generator(fields)


# (patched module, its function, the mutant, the gallery scenarios whose
# anomalous_velocity_eom row must fail); the others carry no E x v term.
# A negated A moves the orbit, spin and shift_velocity together, while V
# still reads dynamics.omega and the Lorentz force with the true charge
MUTATIONS = {
    "V_1e-4": (dynamics, "anomalous_velocity",
               _scaled_anomalous_velocity(1.0 + 1e-4),
               set(gallery.gallery_configs())),
    "V_1e-6": (dynamics, "anomalous_velocity",
               _scaled_anomalous_velocity(1.0 + 1e-6),
               set(gallery.gallery_configs())),
    "omega_gamma_factor": (dynamics, "omega", _omega_without_gamma_factor,
                           {"crossed_drift"}),
    "omega_e_sign": (dynamics, "omega", _omega_flipped_e_term,
                     {"crossed_drift"}),
    "generator_sign": (exact, "_generator", _negated_generator,
                       set(gallery.gallery_configs())),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutations_fail_the_eom_row(mutation, tmp_path, monkeypatch):
    module, name, mutant, failing = MUTATIONS[mutation]
    monkeypatch.setattr(module, name, mutant)
    for scenario, cfg in gallery.gallery_configs().items():
        report, _ = runners.run_simulate(cfg, tmp_path)
        status = report["anomalous_velocity_eom"].status
        assert status == ("fail" if scenario in failing else "pass"), (
            scenario, report.format_table())


def test_weak_fields_grade_the_eom_row(tmp_path, monkeypatch):
    # at |B| = 1e-200, V ~ 1e-204: its squared components underflow, so
    # the residual and the rotation rate must be norms that square nothing
    cfg = dataclasses.replace(
        gallery.gallery_configs()["crossed_drift"], E=(0.0, 3e-201, 0.0),
        B=(0.0, 0.0, 1e-200), v0=(0.3, 0.1, 0.2), dt=1e197, steps=10)
    row = runners.run_simulate(cfg, tmp_path)[0]["anomalous_velocity_eom"]
    assert row.status == "pass" and row.tolerance > 0.0
    monkeypatch.setattr(dynamics, "anomalous_velocity",
                        _scaled_anomalous_velocity(1.01))
    row = runners.run_simulate(cfg, tmp_path)[0]["anomalous_velocity_eom"]
    assert row.status == "fail"


def _draw(rng, kind):
    """A short simulate config of one field kind, with random mass, charge,
    velocity (up to gbar ~ 7e3) and spin."""
    b, e = (rng.normal(size=3) * rng.uniform(0.005, 0.05) for _ in range(2))
    if kind == "pure_b":
        e = 0.0 * e
    elif kind == "pure_e":
        b = 0.0 * b
    elif kind in ("crossed_slow", "crossed_fast"):
        e = np.cross(b, rng.normal(size=3))
        e *= ((0.5 if kind == "crossed_slow" else 2.0)
              * np.linalg.norm(b) / np.linalg.norm(e))
    elif kind == "zero_fields":
        e, b = 0.0 * e, 0.0 * b
    speed = (rng.uniform(0.0, 0.9),
             1.0 - 10.0 ** rng.uniform(-8.0, -1.0))[rng.integers(2)]
    v = rng.normal(size=3)
    s = rng.normal(size=3) * rng.uniform(0.1, 2.0) / np.sqrt(3.0)
    cfg = ScenarioConfig(
        name="draw", mass=rng.uniform(0.3, 3.0),
        charge=rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0),
        E=tuple(e), B=tuple(b), v0=tuple(speed * v / np.linalg.norm(v)),
        s0=tuple(0.0 * s if kind == "zero_spin" else s), steps=8)
    rate = dynamics.max_rotation_rate(cfg.field_config()) or 1.0
    return dataclasses.replace(cfg, dt=rng.uniform(0.01, 5.0) / rate)


# pure_e, e_dot_b and the crossed kinds have E.v != 0; e_dot_b is generic
@pytest.mark.parametrize("seed, kind", enumerate([
    "pure_b", "pure_e", "crossed_slow", "crossed_fast", "e_dot_b",
    "zero_spin", "zero_fields"]))
def test_eom_row_passes_on_random_states(seed, kind, tmp_path):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        cfg = config.override(_draw(rng, kind), {})
        report, _ = runners.run_simulate(cfg, tmp_path)
        row = report["anomalous_velocity_eom"]
        assert row.status == "pass", (cfg, row)


def test_verify_fg_row_times(tmp_path):
    cfg = ScenarioConfig(name="t", mode="verify-fg")
    cfg.packet.grid_points = 16
    cfg.packet.widths = (0.02, 0.02, 0.02)
    report, _ = runners.run_verify(cfg, tmp_path)
    fg = [r for r in report if not r.name.startswith(("mass_center",
                                                      "offset_ratio"))]
    centers = [r for r in report if r.name.startswith("mass_center")]
    assert len(fg) == 7 and len(centers) == 3
    # the packet's one pass serves the FG and the mass-center rows: they
    # share its phase; the ratio row reports its own work
    assert len({r.wall_time for r in fg + centers}) == 1
    assert fg[0].wall_time > 0.0
    ratio = report["offset_ratio_d_e"].wall_time
    assert 0.0 < ratio < fg[0].wall_time


FG_RELATIONS = ("T_from_O", "T4_from_O", "O_from_T", "sigma_from_T",
                "ibeta_alpha_from_T", "momentum_cross_sigma", "odd_term_null")


def _small_verify_fg():
    cfg = ScenarioConfig(name="t", mode="verify-fg")
    cfg.packet.grid_points = 16
    return cfg


def test_fg_tolerance_has_every_verify_fg_row(tmp_path):
    cfg = _small_verify_fg()
    report, _ = runners.run_verify(cfg, tmp_path)
    pkt = cfg.wave_packet()
    assert len(report) == 11
    for row in report:
        assert row.name in packets.FG_RESIDUAL_COEFF, row.name
        assert row.tolerance == packets.fg_tolerance(row.name, pkt)
    # a misnamed row is an error, not a silent loosest coefficient
    with pytest.raises(KeyError):
        packets.fg_tolerance("no_such_relation", pkt)


def test_verify_fg_kv_layout(tmp_path):
    cfg = _small_verify_fg()
    report, (_, kv_path) = runners.run_verify(cfg, tmp_path)
    pairs = [line.split(" = ", 1) for line in
             kv_path.read_text(encoding="utf-8").splitlines()]
    keys = [key for key, _ in pairs]
    values = dict(pairs)
    assert list(packets.verify_fg_relations(cfg.wave_packet())) == list(
        FG_RELATIONS)
    fg_keys = [f"fg.{name}.{part}" for name in FG_RELATIONS
               for part in ("residual", "lhs", "rhs")]
    check_keys = [f"check.{row.name}.{part}" for row in report
                  for part in ("status", "residual", "tolerance")]
    assert keys == ["packet.gamma_bar", "packet.sharp"] + fg_keys + check_keys
    assert [row.name for row in report][:7] == list(FG_RELATIONS)
    for name in FG_RELATIONS:
        assert (values[f"check.{name}.residual"]
                == values[f"fg.{name}.residual"]), name


def test_heavy_crossed_simulate(tmp_path):
    # m = 1.7, e = -1.3: the one simulate input whose bytes see how charge,
    # mass and gamma are combined (with m = 1, |e| = 1 they round alike)
    report, artifacts = runners.run_simulate(
        load_config(DATA / "heavy_crossed.cfg"), tmp_path)
    assert report["anomalous_velocity_eom"].status == "pass"
    csv_bytes = (tmp_path / "heavy_crossed_trajectory.csv").read_bytes()
    assert (hashlib.sha256(csv_bytes).hexdigest()
            == HEAVY_CROSSED_CSV_SHA256)


@pytest.mark.parametrize("which", sorted(VERIFY_FG_KV_SHA256))
def test_verify_fg_kv_pinned(which, tmp_path):
    # the packet path's bytes, not only their repeatability across reruns
    if which == "golden":
        cfg = load_config(DATA / "golden_verify_fg.cfg")
    else:
        cfg = config.override(ScenarioConfig(name="verify_fg",
                                             mode="verify-fg"),
                              {"packet.grid_points": "48"})
    report, (_, kv_path) = runners.run_verify(cfg, tmp_path)
    assert report.all_pass()
    assert (hashlib.sha256(kv_path.read_bytes()).hexdigest()
            == VERIFY_FG_KV_SHA256[which])


# The trajectory writers before they formatted rows in blocks, verbatim
# (csv.writer and one formatted line per sample), as the byte oracle.
def _fmt(x: float) -> str:
    return runners.CSV_FMT % x


def _oracle_trajectory_csv(path, traj):
    cols = runners.trajectory_columns(traj)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in cols])
        data = np.column_stack([vals for _, vals in cols])
        for row in data:
            writer.writerow([_fmt(v) for v in row])


def _oracle_plot_files(outdir, name, traj):
    outdir = pathlib.Path(outdir)
    paths = []
    for col, vals in runners.trajectory_columns(traj)[1:]:
        path = outdir / f"{name}_plot_{col}.dat"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# t  {col}\n")
            for t, v in zip(traj.t, vals):
                fh.write(f"{_fmt(t)} {_fmt(v)}\n")
        paths.append(path)
    return paths


def _trajectory(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dynamics.ConstantGammaWarning)
        return exact.propagate(cfg.initial_state(), cfg.field_config(),
                               cfg.dt, cfg.steps,
                               sample_every=cfg.sample_every)


def _samples(n):
    """A cyclotron trajectory of exactly n samples."""
    cfg = dataclasses.replace(gallery.gallery_configs()["cyclotron"],
                              steps=2 * n - 1, sample_every=2)
    traj = _trajectory(cfg)
    assert len(traj.t) == n
    return cfg, traj


def _extremes():
    """Three samples holding -0.0, the smallest subnormal and +-1e300."""
    cfg, traj = _samples(3)
    traj.t[:] = (-0.0, 5e-324, 1e300)
    traj.x[0] = (-0.0, 5e-324, -1e300)
    traj.S0[1] = -5e-324
    traj.gamma[2] = 1e300
    traj.centers["e"][1] = (1e300, -1e300, -0.0)
    traj.v_anomalous[2] = (-0.0, 0.0, -5e-324)
    return cfg, traj


def _configured(cfg):
    return cfg, _trajectory(cfg)


def _one_cpu(monkeypatch):
    """The 10 001-row cyclotron on one CPU: both writers stay serial."""
    monkeypatch.setattr(runners, "_cpus", lambda: 1)
    return _configured(gallery.gallery_configs()["cyclotron"])


# row counts on both sides of each writer's split threshold, and an odd
# count whose CSV halves differ by one row
SPLIT_ROWS = (runners._SPLIT_MIN_ROWS, runners._PLOT_SPLIT_MIN_ROWS)
SAMPLE_COUNTS = (1, 63, 64, 65, 127, 128, 129, 257,
                 *[n + k for n in SPLIT_ROWS for k in (-1, 0, 1)],
                 2 * runners._PLOT_SPLIT_MIN_ROWS + 1)

WRITER_CASES = {
    **{name: lambda mp, cfg=cfg: _configured(cfg)
       for name, cfg in gallery.gallery_configs().items()},
    "heavy_crossed": lambda mp: _configured(
        load_config(DATA / "heavy_crossed.cfg")),
    **{f"samples_{n}": lambda mp, n=n: _samples(n) for n in SAMPLE_COUNTS},
    "extremes": lambda mp: _extremes(),
    "one_cpu": _one_cpu,
}


def _count_forks(monkeypatch):
    """The list that every os.fork call appends to from now on."""
    forks, fork = [], os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writers_match_oracle_bytes(case, tmp_path, monkeypatch):
    # two CPUs unless the case sets one, so that each writer splits at
    # its threshold on any machine
    monkeypatch.setattr(runners, "_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    cfg, traj = WRITER_CASES[case](monkeypatch)
    n, two = len(traj.t), runners._cpus() == 2
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    runners.write_trajectory_csv(new / "t.csv", traj)
    assert len(forks) == (two and n >= runners._SPLIT_MIN_ROWS)
    _oracle_trajectory_csv(old / "t.csv", traj)
    assert (new / "t.csv").read_bytes() == (old / "t.csv").read_bytes()
    forks.clear()
    paths = runners.write_plot_files(new, cfg.name, new / "t.csv")
    assert len(forks) == (two and n >= runners._PLOT_SPLIT_MIN_ROWS)
    expected = _oracle_plot_files(old, cfg.name, traj)
    assert [p.name for p in paths] == [p.name for p in expected]
    assert all(p.parent == new for p in paths)
    for path, oracle in zip(paths, expected):
        assert path.read_bytes() == oracle.read_bytes(), path.name
    # the children's temp files leave no name behind
    assert sorted(new.iterdir()) == sorted([new / "t.csv", *paths])


def test_writers_run_serially_when_fork_fails(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(runners, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg, traj = _samples(runners._PLOT_SPLIT_MIN_ROWS)
    runners.write_trajectory_csv(tmp_path / "t.csv", traj)
    paths = runners.write_plot_files(tmp_path, cfg.name, tmp_path / "t.csv")
    old = tmp_path / "old"
    old.mkdir()
    _oracle_trajectory_csv(old / "t.csv", traj)
    assert (tmp_path / "t.csv").read_bytes() == (old / "t.csv").read_bytes()
    for path, oracle in zip(paths, _oracle_plot_files(old, cfg.name, traj)):
        assert path.read_bytes() == oracle.read_bytes(), path.name


class _Unformattable:
    """A sample that CSV_FMT cannot format."""

    def __float__(self):
        raise ValueError("unformattable sample")


def _unformattable_row(row):
    """Samples at the CSV split threshold, one of which cannot be
    formatted: the child's if `row` is in the second half."""
    _, traj = _samples(runners._SPLIT_MIN_ROWS)
    traj.t = traj.t.astype(object)
    traj.t[row] = _Unformattable()
    return traj


def _refusing_temp_files(monkeypatch):
    # temp files open for reading only: every write to them fails, as on
    # a full disk
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda **kwargs: open(os.devnull, "rb"))


def _csv_child_fails(out, monkeypatch):
    runners.write_trajectory_csv(out / "t.csv", _unformattable_row(-1))


def _csv_parent_fails(out, monkeypatch):
    runners.write_trajectory_csv(out / "t.csv", _unformattable_row(0))


def _long_csv(out):
    _, traj = _samples(runners._PLOT_SPLIT_MIN_ROWS)
    _oracle_trajectory_csv(out / "t.csv", traj)
    return out / "t.csv"


def _plot_child_fails(out, monkeypatch):
    csv_path = _long_csv(out)
    _refusing_temp_files(monkeypatch)
    runners.write_plot_files(out, "p", csv_path)


def _plot_parent_fails(out, monkeypatch):
    csv_path = _long_csv(out)
    (out / "p_plot_energy.dat").mkdir()
    runners.write_plot_files(out, "p", csv_path)


# how a split writer fails, and the error it must raise
WRITER_FAILURES = {
    "csv_child": (_csv_child_fails, OSError, "t.csv: .* exited 1"),
    "csv_parent": (_csv_parent_fails, ValueError, "unformattable"),
    "plot_child": (_plot_child_fails, OSError, "p_plot_x.dat: .* exited 1"),
    "plot_parent": (_plot_parent_fails, IsADirectoryError, "p_plot_energy"),
}


def _assert_no_child():
    # no child process is left, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure", sorted(WRITER_FAILURES))
def test_split_writer_failures(failure, tmp_path, monkeypatch):
    fail, error, message = WRITER_FAILURES[failure]
    serial, split = tmp_path / "serial", tmp_path / "split"
    serial.mkdir()
    split.mkdir()
    monkeypatch.setattr(runners, "_cpus", lambda: 1)
    try:
        fail(serial, monkeypatch)
    except Exception:  # the serial path may fail too; its names count
        pass
    monkeypatch.setattr(runners, "_cpus", lambda: 2)
    forks = _count_forks(monkeypatch)
    with pytest.raises(error, match=message):
        fail(split, monkeypatch)
    assert forks
    _assert_no_child()
    assert ({p.name for p in split.iterdir()}
            <= {p.name for p in serial.iterdir()})


def test_simulate_exits_2_when_a_child_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runners, "_cpus", lambda: 2)
    cfg_path = tmp_path / "cyclotron.cfg"
    cfg_path.write_text(config.serialize_config(
        gallery.gallery_configs()["cyclotron"]), encoding="utf-8")
    _refusing_temp_files(monkeypatch)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--plot"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {out / 'cyclotron_trajectory.csv'}: " in err
    _assert_no_child()
    assert [p.name for p in out.iterdir()] == ["cyclotron_trajectory.csv"]


def test_split_simulate_writes_the_serial_artifacts(tmp_path, monkeypatch):
    cfg = gallery.gallery_configs()["cyclotron"]
    names = {}
    for cpus in (1, 2):
        monkeypatch.setattr(runners, "_cpus", lambda cpus=cpus: cpus)
        forks = _count_forks(monkeypatch)
        out = tmp_path / str(cpus)
        _, artifacts = runners.run_simulate(cfg, out, plot=True)
        assert len(forks) == 2 * (cpus - 1)
        _assert_no_child()
        names[cpus] = sorted(p.name for p in out.iterdir())
        assert names[cpus] == sorted(p.name for p in artifacts)
    assert names[1] == names[2]
    # the report's rows carry their wall times
    for name in [n for n in names[1] if not n.endswith("_report.txt")]:
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes()), name


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_plot_files_read_back_to_trajectory_bits(tmp_path):
    # an independent route from the CSV: every .dat value parses back with
    # float() to the sampled Trajectory's own column, bit for bit
    cfg = load_config(DATA / "heavy_crossed.cfg")
    _, artifacts = runners.run_simulate(cfg, tmp_path, plot=True)
    traj = _trajectory(cfg)
    expected = {"S0": traj.S0, "energy": traj.energy}
    series = [("", traj.x), ("v", traj.v), ("s", traj.s), ("S", traj.S),
              ("dX", traj.delta_x), ("Vp_", traj.v_anomalous)]
    series += [(f"X{k}_", traj.centers[k]) for k in "cde"]
    for label, arr in series:
        expected.update({f"{label}{ax}": arr[:, i]
                         for i, ax in enumerate("xyz")})
    dats = {p.name: p for p in artifacts if p.suffix == ".dat"}
    assert set(dats) == {f"{cfg.name}_plot_{col}.dat" for col in expected}
    for col, vals in expected.items():
        lines = dats[f"{cfg.name}_plot_{col}.dat"].read_text().splitlines()
        assert lines[0] == f"# t  {col}"
        t, v = zip(*[map(float, line.split(" ")) for line in lines[1:]])
        np.testing.assert_array_equal(_bits(t), _bits(traj.t))
        np.testing.assert_array_equal(_bits(v), _bits(vals), err_msg=col)


def test_plot_files_named_from_csv_header(tmp_path):
    cfg, traj = _samples(65)
    runners.write_trajectory_csv(tmp_path / "t.csv", traj)
    header = (tmp_path / "t.csv").read_text().splitlines()[0].split(",")
    paths = runners.write_plot_files(tmp_path, cfg.name, tmp_path / "t.csv")
    assert [p.name for p in paths] == [f"{cfg.name}_plot_{col}.dat"
                                       for col in header[1:]]
    centers = [p.name for p in paths if "_plot_X" in p.name]
    assert centers == [f"{cfg.name}_plot_X{k}_{ax}.dat"
                       for k in "cde" for ax in "xyz"]
    assert sorted(tmp_path.glob("*.dat")) == sorted(paths)


# Traced peak of each writer on the 10 001-row cyclotron, measured with
# Python 3.11, one process -> split: 0.23 -> 0.23 MB for the CSV (row
# blocks of 64) and 0.42 -> 0.55 MB for the plot files (32 KiB blocks of
# the CSV, whose split cells are most of it; split, the 29 temp files'
# read buffers and the copy buffer add the rest).  tracemalloc sees this
# process only: the forked child formats the second half in a peak of its
# own, 0.23 MB for the CSV and 0.42 MB for the plot files.  Formatting the
# whole trajectory at once peaks above 20 MB.
WRITER_PEAK_BYTES = 900_000


def test_writers_peak_memory_is_bounded(tmp_path, monkeypatch):
    cfg = gallery.gallery_configs()["cyclotron"]
    traj = _trajectory(cfg)
    assert len(traj.t) == 10_001
    for cpus in (1, 2):  # one process, then split
        monkeypatch.setattr(runners, "_cpus", lambda cpus=cpus: cpus)
        tracemalloc.start()
        try:
            runners.write_trajectory_csv(tmp_path / "c.csv", traj)
            csv_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            runners.write_plot_files(tmp_path, cfg.name, tmp_path / "c.csv")
            plot_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert csv_peak < WRITER_PEAK_BYTES, cpus
        assert plot_peak < WRITER_PEAK_BYTES, cpus
