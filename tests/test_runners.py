import csv
import dataclasses
import hashlib
import pathlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from spindrift import dynamics, gallery, packets, runners
from spindrift.config import ConfigError, ScenarioConfig, load_config

DATA = pathlib.Path(__file__).parent / "data"

# fd_mass_center_* tolerances of the gallery scenarios before the roundoff
# term joined _fd_tolerance; that term must not bind on any of them
GALLERY_FD_TOLERANCES = {
    "e_only_low_velocity": (4.507311815852019e-12, 4.507311815852019e-12,
                            4.507311815852019e-12),
    "cyclotron": (7.895605603018395e-06, 7.936662765384293e-06,
                  7.913853228726147e-06),
    "crossed_drift": (1e-12, 1.0867702930599198e-07,
                      5.3057576445296604e-08),
    "fprime_zero": (1.0124922769494805e-05, 1.0177533408961136e-05,
                    1.0149339449530661e-05),
}

# sha256 of the heavy_crossed CSV, recorded with Python 3.11.7 and
# numpy 2.4.6
HEAVY_CROSSED_CSV_SHA256 = (
    "8f94bf0ca13f8af9a2c19c54cb080e02887eb32cc6efe3753757fc859275ece6")


@pytest.fixture(scope="module")
def gallery_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("gallery")
    return {name: runners.run_simulate(cfg, out)[0]
            for name, cfg in gallery.gallery_configs().items()}


@pytest.mark.parametrize("name", sorted(GALLERY_FD_TOLERANCES))
def test_gallery_fd_tolerances_unchanged(name, gallery_reports):
    report = gallery_reports[name]
    got = tuple(report[f"fd_mass_center_{k}"].tolerance for k in "cde")
    assert got == pytest.approx(GALLERY_FD_TOLERANCES[name], rel=1e-9)


@pytest.mark.parametrize("name", sorted(GALLERY_FD_TOLERANCES))
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
    assert len(report) == 7
    for row in report:
        assert row.wall_time < 0.2, row.name


def _slow_cyclotron(angle):
    """Pure B at gamma ~ 1, where max_rotation_rate is the gyration
    frequency, sampled `angle` radians apart over 40 samples."""
    cfg = dataclasses.replace(gallery.gallery_configs()["cyclotron"],
                              v0=(0.05, 0.0, 0.0), steps=4000,
                              sample_every=100)
    rate = dynamics.max_rotation_rate(cfg.field_config())
    return dataclasses.replace(cfg, dt=angle / (cfg.sample_every * rate))


def test_aliased_sampling_refused(tmp_path):
    # one sample per gyration: the third differences see no curvature
    cfg = dataclasses.replace(gallery.gallery_configs()["cyclotron"],
                              sample_every=1000)
    with pytest.raises(ConfigError, match="integration.sample_every"):
        runners.run_simulate(cfg, tmp_path)


def test_sampling_at_threshold_grades_pass(tmp_path):
    cfg = _slow_cyclotron(runners.FD_MAX_SAMPLE_ANGLE)
    rate = dynamics.max_rotation_rate(cfg.field_config())
    assert cfg.dt * cfg.sample_every * rate == runners.FD_MAX_SAMPLE_ANGLE
    report, _ = runners.run_simulate(cfg, tmp_path)
    assert [r.name for r in report if r.name.startswith("fd_")]
    assert report.all_pass(), report.format_table()


def test_wider_sampling_would_fail_grading(tmp_path, monkeypatch):
    # past the threshold the fd rows fail for want of resolution alone
    monkeypatch.setattr(runners, "FD_MAX_SAMPLE_ANGLE", np.inf)
    report, _ = runners.run_simulate(_slow_cyclotron(3.0), tmp_path)
    assert report["fd_mass_center_c"].status == "fail"


@pytest.fixture(scope="module")
def long_drift():
    """The 100 000-step crossed drift orbit and its trajectory."""
    cfg = load_config(DATA / "orbit_crossed_seed0.cfg")
    traj = dynamics.integrate(cfg.initial_state(),
                              cfg.field_config(), cfg.dt, cfg.steps,
                              sample_every=cfg.sample_every,
                              kinds=cfg.pryce_kinds)
    return cfg, traj


def _simulate(cfg, traj, outdir, monkeypatch):
    monkeypatch.setattr(dynamics, "integrate", lambda *a, **k: traj)
    report, _ = runners.run_simulate(cfg, outdir)
    return {r.name: r for r in report if r.name.startswith("fd_")}


def test_long_drift_passes_at_roundoff(long_drift, tmp_path, monkeypatch):
    cfg, traj = long_drift
    assert np.max(np.abs(traj.x)) > 8192.0  # ulp(X) is 1.8e-12
    rows = _simulate(cfg, traj, tmp_path, monkeypatch)
    assert rows["fd_mass_center_c"].residual > 1e-12
    for row in rows.values():
        assert row.status == "pass", (row.name, row.residual, row.tolerance)


def test_long_drift_still_sees_anomalous_velocity(long_drift, tmp_path,
                                                  monkeypatch):
    # predicting the center velocities by v alone must fail wherever fP != 0
    cfg, traj = long_drift
    monkeypatch.setattr(dynamics.Trajectory, "pryce_fp",
                        lambda self, kind: np.zeros_like(self.gamma))
    rows = _simulate(cfg, traj, tmp_path, monkeypatch)
    assert rows["fd_mass_center_c"].status == "pass"  # fP = 0 for type c
    for kind in "de":
        assert rows[f"fd_mass_center_{kind}"].status == "fail", kind


def test_fd_roundoff_term():
    h, substeps = 0.5, 9
    series = np.outer(np.linspace(0.0, 1e4, 50), [1.0, -1.0, 0.5])
    expected = np.sqrt(3.0) * 10 * np.spacing(1e4) / (2.0 * h)
    assert runners._fd_tolerance(series, h, substeps=substeps) == \
        pytest.approx(expected, rel=1e-12)
    # short series and small positions keep the absolute floor
    assert runners._fd_tolerance(series[:3] * 1e-6, h) == 1e-12


def test_verify_fg_row_times(tmp_path):
    cfg = ScenarioConfig(name="t", mode="verify-fg")
    cfg.packet.grid_points = 16
    cfg.packet.widths = (0.02, 0.02, 0.02)
    report, _ = runners.run_verify(cfg, tmp_path)
    fg = [r for r in report if not r.name.startswith(("mass_center",
                                                      "offset_ratio"))]
    centers = [r for r in report if r.name.startswith("mass_center")]
    assert len(fg) == 7 and len(centers) == 3
    # the FG rows share one phase; each mass-center row reports its own
    assert len({r.wall_time for r in fg}) == 1 and fg[0].wall_time > 0.0
    for row in centers:
        assert row.wall_time > 0.0, row.name
    assert report["offset_ratio_d_e"].wall_time > 0.0


FG_RELATIONS = ("T_from_O", "T4_from_O", "O_from_T", "sigma_from_T",
                "ibeta_alpha_from_T", "momentum_cross_sigma", "odd_term_null")


def _small_verify_fg():
    cfg = ScenarioConfig(name="t", mode="verify-fg")
    cfg.packet.grid_points = 16
    assert cfg.pryce_kinds == ("c", "d", "e")
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
    fd = {row.name: row.status for row in report
          if row.name.startswith("fd_mass_center_")}
    assert fd == {f"fd_mass_center_{k}": "pass" for k in "cde"}
    csv_bytes = (tmp_path / "heavy_crossed_trajectory.csv").read_bytes()
    assert (hashlib.sha256(csv_bytes).hexdigest()
            == HEAVY_CROSSED_CSV_SHA256)


# The trajectory writers before they formatted rows in blocks, verbatim
# (csv.writer and one formatted line per sample), as the byte oracle.
def _fmt(x: float) -> str:
    return runners.CSV_FMT % x


def _oracle_trajectory_csv(path, traj, kinds):
    cols = runners.trajectory_columns(traj, kinds)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in cols])
        data = np.column_stack([vals for _, vals in cols])
        for row in data:
            writer.writerow([_fmt(v) for v in row])


def _oracle_plot_files(outdir, name, traj, kinds):
    outdir = pathlib.Path(outdir)
    paths = []
    for col, vals in runners.trajectory_columns(traj, kinds)[1:]:
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
        return dynamics.integrate(cfg.initial_state(), cfg.field_config(),
                                  cfg.dt, cfg.steps,
                                  sample_every=cfg.sample_every,
                                  kinds=cfg.pryce_kinds)


def _samples(n, kinds=("c", "d", "e")):
    """A cyclotron trajectory of exactly n samples."""
    cfg = dataclasses.replace(gallery.gallery_configs()["cyclotron"],
                              steps=2 * n - 1, sample_every=2,
                              pryce_kinds=kinds)
    traj = _trajectory(cfg)
    assert len(traj.t) == n
    return cfg, traj


def _extremes():
    """Three samples holding -0.0, the smallest subnormal and +-1e300."""
    cfg, traj = _samples(3, kinds=("e", "c"))
    traj.t[:] = (-0.0, 5e-324, 1e300)
    traj.x[0] = (-0.0, 5e-324, -1e300)
    traj.S0[1] = -5e-324
    traj.gamma[2] = 1e300
    traj.centers["e"][1] = (1e300, -1e300, -0.0)
    traj.v_anomalous[2] = (-0.0, 0.0, -5e-324)
    return cfg, traj


def _configured(cfg):
    return cfg, _trajectory(cfg)


WRITER_CASES = {
    **{name: lambda cfg=cfg: _configured(cfg)
       for name, cfg in gallery.gallery_configs().items()},
    "heavy_crossed": lambda: _configured(
        load_config(DATA / "heavy_crossed.cfg")),
    **{f"samples_{n}": lambda n=n: _samples(n)
       for n in (1, 127, 128, 129, 257)},
    "samples_129_kind_d": lambda: _samples(129, kinds=("d",)),
    "extremes": _extremes,
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_writers_match_oracle_bytes(case, tmp_path):
    cfg, traj = WRITER_CASES[case]()
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    runners.write_trajectory_csv(new / "t.csv", traj, cfg.pryce_kinds)
    _oracle_trajectory_csv(old / "t.csv", traj, cfg.pryce_kinds)
    assert (new / "t.csv").read_bytes() == (old / "t.csv").read_bytes()
    paths = runners.write_plot_files(new, cfg.name, traj, cfg.pryce_kinds)
    expected = _oracle_plot_files(old, cfg.name, traj, cfg.pryce_kinds)
    assert [p.name for p in paths] == [p.name for p in expected]
    assert all(p.parent == new for p in paths)
    for path, oracle in zip(paths, expected):
        assert path.read_bytes() == oracle.read_bytes(), path.name


# Traced peak of each writer on the 10 001-row cyclotron, row blocks of
# 128, measured with Python 3.11: 0.37 MB for the CSV and 0.44 MB for the
# plot files, whose 29 open 8 KiB file buffers count too.  Formatting the
# whole trajectory at once peaks above 20 MB.
WRITER_PEAK_BYTES = 900_000


def test_writers_peak_memory_is_bounded(tmp_path):
    cfg = gallery.gallery_configs()["cyclotron"]
    traj = _trajectory(cfg)
    assert len(traj.t) == 10_001
    tracemalloc.start()
    try:
        runners.write_trajectory_csv(tmp_path / "c.csv", traj,
                                     cfg.pryce_kinds)
        csv_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        runners.write_plot_files(tmp_path, cfg.name, traj, cfg.pryce_kinds)
        plot_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert csv_peak < WRITER_PEAK_BYTES
    assert plot_peak < WRITER_PEAK_BYTES
