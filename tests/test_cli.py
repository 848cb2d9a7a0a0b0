import argparse
import csv
import dataclasses
import re

from pathlib import Path

import numpy as np
import pytest

from spindrift import cli, config, dynamics, exact, gallery, runners
from spindrift.config import (ScenarioConfig, load_config, parse_config,
                              serialize_config)
from spindrift.report import RunReport

DATA = Path(__file__).parent / "data"

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


def _large_step_exits_2(tmp_path, capsys, mode, section=""):
    # dt * max rotation rate = 25 * 0.02 = 0.5: a ConfigError naming the
    # key, before anything is integrated
    text = (TINY_SIMULATE.replace("dt = 1.0", "dt = 25.0")
            .replace("mode = simulate", f"mode = {mode}") + section)
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main([mode, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: integration.dt: dt * max rotation rate = 0.5 >= 0.1")
    assert not list(tmp_path.glob("tiny_*"))


def test_guard_violation_exit_code(tmp_path):
    # simulate and the anomalous-fd ladder sample the exact motion, so the
    # integrator ladder's RK4 step rule does not bind them: 0.5 rad per
    # sample grades and passes
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(TINY_SIMULATE.replace("dt = 1.0", "dt = 25.0"),
                   encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "tiny_report.txt").read_text().splitlines()
    assert ["anomalous_velocity_eom", "pass"] in [r.split()[:2] for r in rows]
    cfg.write_text(TINY_SIMULATE.replace("dt = 1.0", "dt = 25.0")
                   .replace("mode = simulate", "mode = converge")
                   + "[converge]\ntarget = anomalous-fd\n", encoding="utf-8")
    assert cli.main(["converge", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("target", ["integrator"])
def test_integrating_ladder_large_step_is_config_error(target, tmp_path,
                                                       capsys):
    _large_step_exits_2(tmp_path, capsys, "converge",
                        f"[converge]\ntarget = {target}\n")


def test_weak_fields_simulate_passes(tmp_path):
    # (e/m)^2 (E^2 - B^2) ~ 1e-401 underflows unless the propagator works
    # in units of max |A|: 0.013 rad of rotation over t = 1e198
    cfg = dataclasses.replace(
        gallery.gallery_configs()["crossed_drift"], E=(0.0, 3e-201, 0.0),
        B=(0.0, 0.0, 1e-200), v0=(0.3, 0.1, 0.2), dt=1e197, steps=10)
    path = tmp_path / "weak.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 0


def test_free_particle_moves_on_a_straight_line(tmp_path):
    # with no field exp(tau A) = 1: no power of tau is formed, so none
    # overflows at t = 1e61, where tau^6 / 720 would
    cfg = dataclasses.replace(gallery.gallery_configs()["cyclotron"],
                              name="free", B=(0.0, 0.0, 0.0), dt=1e60,
                              steps=10)
    path = tmp_path / "free.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    with open(tmp_path / "free_trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    for row in rows:
        t, x = float(row["t"]), float(row["x"])
        assert abs(x - 0.6 * t) <= 4.0 * np.spacing(0.6 * t), (t, x)
        assert float(row["y"]) == float(row["z"]) == 0.0
        assert float(row["vx"]) == 0.6


@pytest.mark.parametrize("mode, name", [
    ("simulate", "cyclotron"), ("converge", "converge_integrator"),
    ("converge", "converge_anomalous_fd")])
def test_unsolved_lab_time_is_config_error(mode, name, tmp_path, capsys,
                                           monkeypatch):
    # coefficients gone non-finite, as 0 * inf made them in the series form,
    # leave Newton's method short of roundoff at its step limit
    propagator = exact._propagator

    def non_finite(fields, U, tau_max):
        W, coefficients = propagator(fields, U, tau_max)
        return W, lambda tau: (coefficients(tau)[0],
                               np.nan * coefficients(tau)[1])

    monkeypatch.setattr(exact, "_propagator", non_finite)
    gallery.write_gallery(tmp_path)
    out = tmp_path / "out"
    assert cli.main([mode, "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: integration.steps: the lab time t(tau) is unsolved after "
        f"{exact._NEWTON_LIMIT} Newton steps")
    assert not list(out.glob(f"{name}_*"))


def test_fg_ladder_ignores_the_step_guard():
    # the fg target integrates nothing: a config file cannot give it a dt,
    # and one built in code is not checked against its fields
    cfg = config.override(ScenarioConfig(
        mode="converge", B=(0.0, 0.0, 0.02), dt=25.0,
        converge=config.ConvergeSpec(target="fg")), {})
    text = serialize_config(cfg)
    assert "[integration]" not in text and "[fields]" not in text
    assert parse_config(text).dt == ScenarioConfig().dt


def test_speed_limit_within_steps_is_config_error(tmp_path, capsys):
    # from rest in E, gbar ~ e E t/m: 1.8e7 at t = steps dt, where no state
    # with |v| < dynamics.MAX_SPEED exists
    cfg = ScenarioConfig(name="runaway", charge=1.0, E=(0.003, 0.0, 0.0),
                         dt=30.0, steps=200_000_000, sample_every=100_000_000)
    path = tmp_path / "runaway.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: integration.steps: |v| reaches")
    assert not list(tmp_path.glob("runaway_*"))


def test_crossed_field_integrator_ladder(tmp_path):
    # the ladder checks RK4 against the exact propagator in any uniform
    # field: crossed |E| < |B| at m = 1.7, e = -1.3
    cfg = dataclasses.replace(
        gallery.converge_configs()["converge_integrator"], name="crossed",
        mass=1.7, charge=-1.3, E=(0.0, 0.006, 0.0), v0=(0.25, 0.05, 0.0))
    cfg.dt = 0.05 / dynamics.max_rotation_rate(cfg.field_config())
    path = tmp_path / "crossed.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path)]) == 0


def test_anomalous_fd_single_step_is_config_error(tmp_path, capsys):
    # rung 0 would hold two samples and no interior point to difference
    gallery.write_gallery(tmp_path)
    path = tmp_path / "converge_anomalous_fd.cfg"
    path.write_text(re.sub(r"(?m)^steps = .*$", "steps = 1",
                           path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    assert cli.main(["converge", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: integration.steps: ")


def test_failing_check_exit_code(tmp_path):
    # packets as wide as twice the mass are far outside the sharp regime,
    # where the residuals are not yet quadratic in the width: the fg
    # ladder genuinely fails its order row
    cfg = gallery.converge_configs()["converge_fg"]
    cfg = dataclasses.replace(cfg, name="wide", packet=dataclasses.replace(
        cfg.packet, widths=(2.0, 2.0, 2.0)))
    path = tmp_path / "wide.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "wide_convergence.txt").read_text().splitlines()
    assert ["fg_order", "fail"] in [r.split()[:2] for r in rows]


@pytest.mark.parametrize("field", [3e-4, 1e-3, 3e-3])
def test_low_velocity_table_only_where_it_holds(tmp_path, field):
    # gbar - 1 reaches 4e-7 .. 4e-5: the table's own 1 - gbar^-3 would
    # exceed its 1e-6 tolerance, so the run grades it nowhere
    cfg = dataclasses.replace(gallery.gallery_configs()["e_only_low_velocity"],
                              name="fast", E=(field, 0.0, 0.0))
    path = tmp_path / "fast.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fast_report.txt").read_text()
    assert "anomalous_velocity_eom" in text
    assert "low_velocity_table" not in text


def test_low_velocity_table_skipped_with_spin_along_e(tmp_path):
    # s x E is nonzero only through a slight precession: the table's limit
    # is roundoff, so it is not graded, and nothing divides by it (the
    # suite turns a RuntimeWarning into an error)
    cfg = dataclasses.replace(gallery.gallery_configs()["e_only_low_velocity"],
                              name="along", s0=(0.5, 0.0, 0.0),
                              v0=(0.0, 0.0002, 0.0))
    path = tmp_path / "along.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "along_report.txt").read_text()
    assert "anomalous_velocity_eom" in text
    assert "low_velocity_table" not in text


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
                   "--grid-points", "16"])
    assert rc == 0
    text = (out / "verify_fg_report.txt").read_text()
    for row in ("mass_center_offset_c", "mass_center_offset_d",
                "mass_center_offset_e", "offset_ratio_d_e"):
        assert row in text


@pytest.mark.parametrize("spin, scaled", [
    (("1", "1", "0"), ("1e308", "1e308", "0")),    # |s|^2 overflows
    (("3", "4", "0"), ("3e-170", "4e-170", "0")),  # |s|^2 underflows to 0
], ids=["overflow", "underflow"])
def test_verify_fg_spin_sets_only_a_direction(spin, scaled, tmp_path):
    # the same rows and statuses; values agree to the last bits, which the
    # unit direction's rounding may move
    kv = []
    for i, s in enumerate((spin, scaled)):
        assert cli.main(["verify-fg", "--spin", *s, "--grid-points", "16",
                         "--out", str(tmp_path / str(i))]) == 0
        lines = (tmp_path / str(i) / "verify_fg_report.kv").read_text()
        kv.append(dict(line.split(" = ") for line in lines.splitlines()))
    assert list(kv[1]) == list(kv[0])
    for key, value in kv[0].items():
        if key.endswith(".status") or key == "packet.sharp":
            assert kv[1][key] == value, key
        else:
            np.testing.assert_allclose(
                [complex(x) for x in kv[1][key].split()],
                [complex(x) for x in value.split()],
                rtol=1e-12, atol=1e-15, err_msg=key)


def test_kinds_flag_is_a_usage_error(tmp_path, capsys):
    # every run grades all three kinds; there is no flag to pick some
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-fg", "--kinds", "d", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kinds d" in capsys.readouterr().err


def test_grid_radius_flag_is_a_usage_error(tmp_path, capsys):
    # a Gauss-Hermite rule has no radius; there is no flag for one
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-fg", "--grid-radius", "6", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-radius 6" in capsys.readouterr().err


@pytest.mark.parametrize("p0, graded", [
    (["0", "0", "0"], False),      # at rest: <T> x <p> = 0
    (["0.6", "0", "0"], False),    # p0 along the default spin x
    (["0", "0", "0.6"], True),     # transverse: |<X_e> - <x>| ~ 0.12
    # |<X_e> - <x>| ~ 2.5e-10: above RESIDUAL_FLOOR, inside the e row's
    # tolerance, 7e-5, so the offsets are no signal
    (["0", "0", "1e-9"], False),
])
def test_offset_ratio_needs_a_signal(p0, graded, tmp_path):
    out = tmp_path / "ratio"
    assert cli.main(["verify-fg", "--out", str(out), "--grid-points", "16",
                     "--p0", *p0]) == 0
    kv = (out / "verify_fg_report.kv").read_text()
    assert ("check.offset_ratio_d_e.status = pass" in kv) == graded
    assert ("offset_ratio_d_e" in kv) == graded


@pytest.mark.parametrize("p0, spin", [
    ("1e5", ("0", "1", "1")),    # <T4> ~ 7e4: one ulp of it is 1.5e-11
    ("2e6", ("0", "1", "1")),    # <T4> ~ 1.4e6: four ulp
    ("1e8", ("0.3", "1", "1")),  # the odd term's operands are p^2 ~ 1e16
    # |v| = 1 - 1.25e-13 is past dynamics.MAX_SPEED: the relations take
    # the packet's own gbar and velocity, with no ClassicalState
    ("2e6", ("1", "0", "0")),
])
def test_verify_fg_passes_at_large_gamma_bar(p0, spin, tmp_path):
    # the roundoff rows' tolerance grows with their operands
    assert cli.main(["verify-fg", "--p0", "0", "0", p0,
                     "--widths", "0.01", "0.01", "0.01", "--spin", *spin,
                     "--grid-points", "8", "--out", str(tmp_path)]) == 0


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
    (["verify-algebra", "--mass", "1e-300"],        # m^2 underflows
     "error: constants.mass: must be positive"),
    (["verify-algebra", "--pmax", "nan"], "algebra.pmax"),
    (["verify-fg", "--mass", "1e103"],              # m^3 overflows
     "constants.mass: must be positive, with m^3 a normal float"),
    (["verify-fg", "--grid-points", "16.5"],
     "error: packet.grid_points: not an integer: '16.5'"),
    (["verify-algebra", "--momenta", "2.5"], "algebra.momenta"),
    (["verify-algebra", "--seed", "x"], "algebra.seed"),
    (["verify-fg", "--config", str(DATA / "golden_verify_fg.cfg"),
      "--p0", "nan", "0", "0", "--grid-points", "8"], "packet.p0"),
    # the identity suite's kernels form 2 E^2 (E + m) and gamma^2 (gamma + 1)
    (["verify-algebra", "--mass", "5e102"],
     "error: constants.mass: 2 E^2 (E + m) or gamma^2 (gamma + 1) overflows"),
    (["verify-algebra", "--mass", "1e-3", "--pmax", "1e103"],
     "algebra.pmax = 1e+103"),
])
def test_flag_config_is_validated(argv, field, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("name", ["e_only_low_velocity", "converge_integrator",
                                  "converge_anomalous_fd"])
def test_speed_limit_is_config_error(name, tmp_path, capsys):
    # |v| < 1 but at the integrator's speed limit, dynamics.MAX_SPEED
    gallery.write_gallery(tmp_path)
    path = tmp_path / f"{name}.cfg"
    text = re.sub(r"(?m)^v = .*$", "v = 0.99999999999999 0.0 0.0",
                  path.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8")
    mode = "simulate" if name == "e_only_low_velocity" else "converge"
    assert cli.main([mode, "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: initial.v: ")


@pytest.fixture
def captured_config(monkeypatch):
    """The config each cli.main call hands to run_verify, which is skipped."""
    seen = []

    def fake_run_verify(cfg, outdir):
        seen.append(cfg)
        return RunReport(), []
    monkeypatch.setattr(runners, "run_verify", fake_run_verify)
    return seen


def test_flags_override_config_file(captured_config, tmp_path):
    path = DATA / "golden_verify_fg.cfg"
    assert cli.main(["verify-fg", "--config", str(path), "--out",
                     str(tmp_path), "--grid-points", "16",
                     "--spin", "0", "0", "1", "--mass", "2"]) == 0
    want = load_config(path)
    want.packet.grid_points = 16
    want.packet.spin = (0.0, 0.0, 1.0)
    want.mass = 2.0
    assert captured_config == [want]

    path = DATA / "golden_verify_algebra.cfg"
    assert cli.main(["verify-algebra", "--config", str(path), "--out",
                     str(tmp_path), "--momenta", "3"]) == 0
    want = load_config(path)
    want.algebra_momenta = 3
    assert captured_config[1] == want


def test_flags_without_config_set_the_mode_default(captured_config,
                                                   tmp_path):
    assert cli.main(["verify-algebra", "--out", str(tmp_path)]) == 0
    assert cli.main(["verify-fg", "--out", str(tmp_path),
                     "--p0", "0", "0", "-1"]) == 0
    want = ScenarioConfig(name="verify_fg", mode="verify-fg")
    want.packet.p0 = (0.0, 0.0, -1.0)
    assert captured_config == [
        ScenarioConfig(name="verify_algebra", mode="verify-algebra"), want]


# each key the mode reads outside [scenario], in canonical order
@pytest.mark.parametrize("command, flags", [
    ("verify-fg", [("--help", 0), ("--config", None), ("--out", None),
                   ("--mass", None), ("--p0", 3), ("--widths", 3),
                   ("--spin", 3), ("--grid-points", None)]),
    ("verify-algebra", [("--help", 0), ("--config", None), ("--out", None),
                        ("--mass", None), ("--momenta", None),
                        ("--pmax", None), ("--seed", None)]),
])
def test_verify_flags_are_config_keys(command, flags):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    assert [(a.option_strings[-1], a.nargs) for a in actions] == flags
    keys = {f"{section}.{key}" for section, key, *_ in config._FIELDS}
    table = config.MODE_FLAGS[command]
    assert [f"--{flag}" for flag in table] == [f for f, _ in flags[3:]]
    assert set(table.values()) <= keys


@pytest.mark.parametrize("grid", [
    ["--grid-points", "3"],
    ["--grid-points", "0"],
])
def test_verify_fg_coarse_grid_is_config_error(grid, tmp_path, capsys):
    # fewer than 4 nodes per axis; the guard names the field before any
    # row is graded
    assert cli.main(["verify-fg", "--out", str(tmp_path)] + grid) == 2
    err = capsys.readouterr().err
    assert "error: packet.grid_points: needs >= 4 points" in err
    assert not (tmp_path / "verify_fg_report.txt").exists()


def test_verify_fg_passes_on_four_nodes(tmp_path):
    # 4 Gauss-Hermite nodes per axis resolve the default sharp packet:
    # every row passes
    assert cli.main(["verify-fg", "--out", str(tmp_path),
                     "--grid-points", "4"]) == 0
    kv = (tmp_path / "verify_fg_report.kv").read_text()
    assert "status = fail" not in kv and "status = pass" in kv


@pytest.mark.parametrize("flags, cause", [
    (["--widths", "1e-300", "1e-300", "1e-300"], "nodes of axis 2 coincide"),
    (["--p0", "1e200", "0", "0"], "gamma^3"),
    (["--mass", "1e-100", "--p0", "0", "0", "1e5"], "gamma^3"),
    (["--mass", "1e-102", "--p0", "0", "0", "1e3"], "gamma^3"),
    # m^3 and gamma^3 are each finite; their sum, which the guard takes, is not
    (["--mass", "5.6e102", "--p0", "0", "0", "3e205"], "m^3"),
    (["--mass", "1e-100", "--p0", "500", "0", "0",
      "--widths", "1", "1", "1", "--grid-points", "16"],
     "density sums overflow"),
])
def test_verify_fg_non_finite_packet_is_config_error(flags, cause, tmp_path,
                                                     capsys):
    # these graded NaN rows, or raised OverflowError at g**2 or m**3,
    # before make_gaussian_packet checked its floats; a mass whose cube is
    # not a normal float is refused earlier, as constants.mass
    assert cli.main(["verify-fg", "--out", str(tmp_path)] + flags) == 2
    err = capsys.readouterr().err
    assert "error: packet: " in err and cause in err
    assert not (tmp_path / "verify_fg_report.txt").exists()


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
    # at rest with the spin along B, or without spin, every rung's error is
    # exactly zero and no order can be fitted
    cfg = dataclasses.replace(
        gallery.converge_configs()["converge_integrator"],
        name="zero", **{"s0": (0.0, 0.0, 0.65), field: (0.0, 0.0, 0.0)})
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
