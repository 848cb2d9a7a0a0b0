"""The roundoff floor of `convergence.run_ladder`.

A rung whose error is at or below its floor has no truncation error left to
measure; the ladder is then a ConfigError that names the target's input key.
"""
import dataclasses
import itertools

import numpy as np
import pytest

from spindrift import (algebra, cli, convergence, dynamics, gallery, packets,
                       runners)
from spindrift.config import (CONVERGE_TARGETS, ConfigError, ConvergeSpec,
                              ScenarioConfig, serialize_config)

B_HAT = np.array([1.0, 2.0, 2.0]) / 3.0
P_HAT = np.array([2.0, -2.0, 1.0]) / 3.0  # perpendicular to B_HAT


def _converge(tmp_path, cfg):
    path = tmp_path / f"{cfg.name}.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path)])


def test_every_config_target_has_a_table_entry():
    assert tuple(convergence.TARGETS) == CONVERGE_TARGETS


def test_fg_ladder_reads_the_mass_center_offsets(tmp_path, monkeypatch):
    # a d-type offset twice its sums in the pass's table breaks only the
    # offset relation, whose residual then stops shrinking with the width
    expectations = packets._expectations
    d = algebra.PRYCE_KINDS.index("d")

    def doubled(s, m):
        s = s.copy()
        np.split(s[packets._KINDS], 3)[d] *= 2.0
        return expectations(s, m)

    monkeypatch.setattr(packets, "_expectations", doubled)
    report, _ = runners.run_converge(
        gallery.converge_configs()["converge_fg"], tmp_path)
    assert report["fg_order"].status == "fail"


@pytest.mark.parametrize("ladder, key, field, value", [
    ("converge_integrator", "initial.v", "v0", (0.0, 0.0, 0.5)),    # v || B
    ("converge_anomalous_fd", "initial.s", "s0", (0.5, 0.0, 0.0)),  # s || v
])
def test_roundoff_only_ladder_is_config_error(tmp_path, capsys, ladder, key,
                                              field, value):
    # the physical error is zero and the computed one roundoff that grows
    # with the step count, so a fitted order would be negative; the
    # integrator grades s too, which stands still along B
    spin = {"s0": (0.0, 0.0, 0.65)} if ladder == "converge_integrator" else {}
    cfg = dataclasses.replace(gallery.converge_configs()[ladder],
                              name="flat", **{**spin, field: value})
    assert _converge(tmp_path, cfg) == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "flat_convergence.csv").exists()


def test_fg_ladder_below_residual_floor_names_widths(tmp_path, capsys):
    cfg = dataclasses.replace(gallery.converge_configs()["converge_fg"],
                              name="flat")
    cfg.packet = dataclasses.replace(cfg.packet, widths=(1e-6, 1e-6, 1e-6),
                                     grid_points=8)
    assert _converge(tmp_path, cfg) == 2
    assert "error: packet.widths:" in capsys.readouterr().err
    assert not (tmp_path / "flat_convergence.csv").exists()


def test_fg_rungs_double_gauss_hermite_nodes_until_settled(monkeypatch):
    cfg = gallery.converge_configs()["converge_fg"]
    pkt, _, change = convergence._settled_packet(cfg, cfg.packet.widths)
    assert pkt.axes[0].size == 8 and change <= packets.RESIDUAL_FLOOR
    # packets far outside the sharp regime stop at the cap unsettled
    wide = dataclasses.replace(cfg, packet=dataclasses.replace(
        cfg.packet, widths=(2.0, 2.0, 2.0)))
    pkt, _, change = convergence._settled_packet(wide, wide.packet.widths)
    assert pkt.axes[0].size == convergence.FG_MAX_NODES
    assert change > packets.RESIDUAL_FLOOR
    # a rule never compared with a finer one has not settled, so its rung
    # has no truncation error to measure
    monkeypatch.setattr(convergence, "FG_MAX_NODES", 4)
    with pytest.raises(ConfigError, match="^packet.widths: rung 0 "):
        convergence.run_ladder(cfg)


@pytest.mark.parametrize("m", [1e4, 1e-6, 1e6])
def test_fg_rule_settles_in_each_rows_own_units(m):
    # the gallery ladder's packet with p0 and widths in units of m: each
    # row over m^dim (a momentum, a length or a pure number) is the row at
    # m = 1, so its rule settles at the same 8 nodes with the same error.
    # Every side of a row is at most 4 in those units, and its sums over
    # the 8^3 nodes round by at most 8^3 eps of that at either mass
    cfg = gallery.converge_configs()["converge_fg"]
    scaled = dataclasses.replace(cfg, mass=m, packet=dataclasses.replace(
        cfg.packet, p0=tuple(m * np.array(cfg.packet.p0)),
        widths=tuple(m * np.array(cfg.packet.widths))))
    unit, want, _ = convergence._settled_packet(cfg, cfg.packet.widths)
    pkt, rows, change = convergence._settled_packet(scaled,
                                                    scaled.packet.widths)
    assert unit.axes[0].size == pkt.axes[0].size == 8
    assert change <= packets.RESIDUAL_FLOOR
    bound = 16.0 * 8**3 * np.finfo(float).eps
    assert np.max(np.abs(rows - want)) <= bound
    assert abs(convergence._fg_rung(scaled, 1)[1]
               - convergence._fg_rung(cfg, 1)[1]) <= bound


@pytest.mark.parametrize("m, e, b, v", itertools.product(
    (1.0, 1.7), (1.0, -1.3), (0.002, 0.02, 0.2), (0.1, 0.5, 0.9)))
def test_floor_separates_zero_signal_from_real_ladders(m, e, b, v):
    s = 0.6 * B_HAT + 0.3 * P_HAT
    ladders = [  # (target, v0, s0, whether the physical error is zero)
        ("integrator", v * B_HAT, 0.6 * B_HAT, True),
        ("integrator", v * P_HAT, s, False),
        ("anomalous-fd", v * P_HAT, 0.8 * P_HAT, True),
        ("anomalous-fd", v * P_HAT, s, False),
    ]
    for target, v0, s0, zero in ladders:
        cfg = ScenarioConfig(mode="converge", mass=m, charge=e,
                             B=tuple(b * B_HAT), v0=tuple(v0), s0=tuple(s0),
                             dt=0.09 * m / (abs(e) * b), steps=16,
                             converge=ConvergeSpec(target=target))
        for n in (1, 2, 4):
            _, err, floor = convergence.TARGETS[target].rung(cfg, n)
            if zero:
                assert err <= floor, (target, n, err, floor)
            else:
                assert err >= 1e3 * floor, (target, n, err, floor)


def test_integrator_ladder_ignores_initial_offset():
    # uniform fields make the motion translation-invariant: an orbit 1e3
    # from the origin converges exactly as the same orbit at the origin.
    # The last rung's error, 1e-11, lies below 512 ulp(1e3), so a floor
    # scaled with |x| rather than the excursion would refuse it
    base = gallery.converge_configs()["converge_integrator"]
    rate = dynamics.max_rotation_rate(base.field_config())
    cfg = dataclasses.replace(base, dt=0.05 / rate / 4, steps=128)
    near = convergence.run_ladder(cfg)
    far = convergence.run_ladder(dataclasses.replace(cfg, x0=(1e3, 0.0, 0.0)))
    np.testing.assert_array_equal(far.errors, near.errors)
    assert abs(far.fitted_order - 4.0) < 0.5


@pytest.mark.parametrize("m, e, E, B", [
    (1.7, -1.3, (0.0, 0.006, 0.0), (0.0, 0.0, 0.02)),     # crossed |E| < |B|
    (1.7, -1.3, (0.0, 0.02, 0.0), (0.0, 0.0, 0.012)),     # crossed |E| > |B|
    (1.0, 1.0, (0.001, 0.006, 0.002), (0.003, 0.0, 0.02)),  # E.B != 0
    (1.3, 0.7, (0.0, 0.02, 0.0), (0.0, 0.0, 0.02)),       # null field
], ids=["crossed_slow", "crossed_fast", "e_dot_b", "null"])
def test_integrator_ladder_in_every_uniform_field(m, e, E, B):
    cfg = ScenarioConfig(mode="converge", mass=m, charge=e, E=E, B=B,
                         v0=(0.25, 0.05, 0.1), s0=(0.3, 0.2, 0.4), steps=32,
                         converge=ConvergeSpec(target="integrator"))
    cfg.dt = 0.08 / dynamics.max_rotation_rate(cfg.field_config())
    ladder = convergence.run_ladder(cfg)
    assert abs(ladder.fitted_order - 4.0) < 0.5, ladder.errors


def test_only_the_integrator_ladder_steps_rk4(monkeypatch):
    # the anomalous-fd ladder differences the exact motion
    def refuse(*args):
        raise AssertionError("RK4 stepped")

    monkeypatch.setattr(convergence, "_rk4", refuse)
    ladders = gallery.converge_configs()
    ladder = convergence.run_ladder(ladders["converge_anomalous_fd"])
    assert abs(ladder.fitted_order - 2.0) < 0.5
    with pytest.raises(AssertionError, match="RK4 stepped"):
        convergence.run_ladder(ladders["converge_integrator"])
