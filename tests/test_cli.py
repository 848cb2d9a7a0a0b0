import csv
import dataclasses

import pytest

from spindrift import cli, gallery, runners
from spindrift.config import ScenarioConfig, parse_config, serialize_config

TINY_SIMULATE = """
[scenario]
name = tiny
mode = simulate

[constants]
charge = 1.0

[fields]
B = 0 0 0.02

[initial]
v = 0.3 0 0
s = 0.1 0 0.4

[integration]
dt = 1.0
steps = 40
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SIMULATE, encoding="utf-8")
    return path


def test_gallery_command(tmp_path, capsys):
    rc = cli.main(["gallery", "--out", str(tmp_path / "g")])
    assert rc == 0
    written = sorted(p.name for p in (tmp_path / "g").glob("*.cfg"))
    assert written == ["converge_anomalous_fd.cfg", "converge_fg.cfg",
                       "converge_integrator.cfg", "crossed_drift.cfg",
                       "cyclotron.cfg", "e_only_low_velocity.cfg",
                       "fprime_zero.cfg"]
    for p in (tmp_path / "g").glob("*.cfg"):
        parse_config(p.read_text(encoding="utf-8"))  # all parse cleanly


def test_simulate_csv_columns_and_determinism(tiny_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(tiny_config),
                     "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(tiny_config),
                     "--out", str(out2)]) == 0
    csv1 = out1 / "tiny_trajectory.csv"
    csv2 = out2 / "tiny_trajectory.csv"
    assert csv1.read_bytes() == csv2.read_bytes()

    with open(csv1, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header == (
        ["t", "x", "y", "z", "vx", "vy", "vz", "sx", "sy", "sz", "S0",
         "Sx", "Sy", "Sz", "dXx", "dXy", "dXz",
         "Xc_x", "Xc_y", "Xc_z", "Xd_x", "Xd_y", "Xd_z",
         "Xe_x", "Xe_y", "Xe_z", "Vp_x", "Vp_y", "Vp_z", "energy"])
    assert len(rows) == 42  # header + initial sample + 40 steps

    # c-type center column is the position column, byte for byte
    ix, ic = header.index("x"), header.index("Xc_x")
    for row in rows[1:]:
        assert row[ix:ix + 3] == row[ic:ic + 3]


def test_simulate_plot_files(tiny_config, tmp_path):
    out = tmp_path / "plots"
    assert cli.main(["simulate", "--config", str(tiny_config),
                     "--out", str(out), "--plot"]) == 0
    dats = sorted(out.glob("tiny_plot_*.dat"))
    assert len(dats) == 29  # every column except t
    sample = (out / "tiny_plot_energy.dat").read_text().splitlines()
    assert sample[0].startswith("#")
    assert len(sample[1].split()) == 2


def test_report_numbers_carry_tolerance(tiny_config, tmp_path):
    out = tmp_path / "rep"
    cli.main(["simulate", "--config", str(tiny_config), "--out", str(out)])
    text = (out / "tiny_report.txt").read_text()
    assert "tolerance" in text.splitlines()[1]
    for line in text.splitlines()[3:]:
        if line.strip():
            assert len(line.split()) >= 5  # name status residual tol time


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = x\nmode = simulate\n\n"
                   "[initial]\nv = 2 0 0\n", encoding="utf-8")
    assert cli.main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path)]) == 2


def test_non_finite_field_exit_code(tiny_config, tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text(tiny_config.read_text(encoding="utf-8").replace(
        "B = 0 0 0.02", "B = nan 0 0.02"), encoding="utf-8")
    rc = cli.main(["simulate", "--config", str(bad), "--out",
                   str(tmp_path / "o")])
    assert rc == 2
    assert "fields.B" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         ["simulate", "verify-fg", "verify-algebra",
                          "converge"])
def test_mode_mismatch_exit_code(command, tiny_config, tmp_path, capsys):
    path = tiny_config
    if command == "simulate":
        path = tmp_path / "algebra.cfg"
        path.write_text(serialize_config(ScenarioConfig(
            name="x", mode="verify-algebra")), encoding="utf-8")
    assert cli.main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == 2
    got = "verify-algebra" if command == "simulate" else "simulate"
    assert (f"scenario.mode: expected {command!r}, got {got!r}"
            in capsys.readouterr().err)


def test_guard_violation_exit_code(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(TINY_SIMULATE.replace("dt = 1.0", "dt = 10.0"),
                   encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2


def test_failing_check_exit_code(tmp_path):
    # a guard-passing but badly under-resolved cyclotron genuinely fails
    # the energy-conservation row
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(TINY_SIMULATE.replace("dt = 1.0", "dt = 4.9")
                   .replace("steps = 40", "steps = 2000"), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    text = (tmp_path / "tiny_report.txt").read_text()
    assert "fail" in text


def test_verify_algebra_command(tmp_path):
    out = tmp_path / "alg"
    assert cli.main(["verify-algebra", "--out", str(out), "--seed", "5",
                     "--momenta", "20"]) == 0
    kv = (out / "verify_algebra_report.kv").read_text().splitlines()
    assert all(" = " in line for line in kv if line)
    assert any(line.startswith("algebra.clifford_anticommutator.residual")
               for line in kv)


def test_verify_fg_flags(tmp_path):
    out = tmp_path / "fg"
    rc = cli.main(["verify-fg", "--out", str(out),
                   "--widths", "0.02", "0.02", "0.02",
                   "--grid-points", "16", "--kinds", "d,e"])
    assert rc == 0
    text = (out / "verify_fg_report.txt").read_text()
    assert "mass_center_offset_d" in text
    assert "mass_center_offset_c" not in text
    assert "offset_ratio_d_e" in text


def test_verify_fg_wide_packet_warns(tmp_path):
    out = tmp_path / "wide"
    rc = cli.main(["verify-fg", "--out", str(out),
                   "--widths", "0.1", "0.1", "0.1", "--grid-points", "12"])
    assert rc == 0  # warns are not failures
    text = (out / "verify_fg_report.txt").read_text()
    assert "warn" in text


@pytest.mark.parametrize("argv, field", [
    (["verify-fg", "--p0", "nan", "0", "0", "--grid-points", "8"],
     "packet.p0"),
    (["verify-fg", "--widths", "0.01", "0.01", "inf"], "packet.widths"),
    (["verify-fg", "--kinds", "d x"], "output.pryce_kinds"),
    (["verify-algebra", "--pmax", "nan"], "algebra.pmax"),
    (["verify-fg", "--kinds", "", "--grid-points", "8"],
     "output.pryce_kinds: at least one kind required"),
])
def test_flag_config_is_validated(argv, field, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_verify_fg_truncating_grid_is_config_error(tmp_path):
    rc = cli.main(["verify-fg", "--out", str(tmp_path),
                   "--grid-radius", "3.0"])
    assert rc == 2


def test_converge_fg_truncating_grid_is_config_error(tmp_path, capsys):
    cfg = gallery.converge_configs()["converge_fg"]
    cfg.packet.grid_radius = 3.0
    path = tmp_path / "truncating.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
    assert "error: packet: grid radius 3.0" in capsys.readouterr().err


def test_converge_command(tmp_path):
    cfgdir = tmp_path / "g"
    cli.main(["gallery", "--out", str(cfgdir)])
    out = tmp_path / "conv"
    rc = cli.main(["converge", "--config",
                   str(cfgdir / "converge_integrator.cfg"),
                   "--out", str(out)])
    assert rc == 0
    with open(out / "converge_integrator_convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["resolution", "error", "observed_order"]
    assert len(rows) == 4
    orders = [float(r[2]) for r in rows[2:]]
    assert all(3.5 < o < 4.5 for o in orders)


def test_converge_fg_ladder(tmp_path):
    cfgdir = tmp_path / "g"
    cli.main(["gallery", "--out", str(cfgdir)])
    out = tmp_path / "conv"
    rc = cli.main(["converge", "--config", str(cfgdir / "converge_fg.cfg"),
                   "--out", str(out)])
    assert rc == 0
    with open(out / "converge_fg_convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    orders = [float(r[2]) for r in rows[2:]]
    assert all(1.5 < o < 2.5 for o in orders)


def test_short_run_has_no_fd_rows(tmp_path):
    cfg = parse_config(TINY_SIMULATE.replace("steps = 40", "steps = 2"))
    report, _ = runners.run_simulate(cfg, tmp_path / "short")
    names = [r.name for r in report]
    assert not any(n.startswith("fd_") for n in names)


def test_converge_anomalous_requires_frozen_energy(tmp_path):
    cfg = ScenarioConfig(name="bad_fd", mode="converge", charge=1.0,
                         E=(1e-3, 0.0, 0.0), B=(0.0, 0.0, 0.02),
                         v0=(0.3, 0.0, 0.0), s0=(0.0, 0.0, 0.5),
                         dt=1.0, steps=500)
    cfg.converge.target = "anomalous-fd"
    path = tmp_path / "bad_fd.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("target, key, field", [
    ("anomalous-fd", "initial.s", "s0"),
    ("integrator", "initial.v", "v0"),
])
def test_converge_zero_error_ladder_is_config_error(tmp_path, capsys,
                                                    target, key, field):
    # at rest, or without spin, every rung's error is exactly zero and no
    # order can be fitted
    cfg = dataclasses.replace(
        gallery.converge_configs()["converge_integrator"],
        name="zero", **{field: (0.0, 0.0, 0.0)})
    cfg.converge.target = target
    path = tmp_path / "zero.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "zero_convergence.csv").exists()


def test_run_simulate_report_checks_unique(tiny_config, tmp_path):
    cfg = parse_config(tiny_config.read_text(encoding="utf-8"))
    report, _ = runners.run_simulate(cfg, tmp_path / "u")
    names = [r.name for r in report]
    assert len(names) == len(set(names))
