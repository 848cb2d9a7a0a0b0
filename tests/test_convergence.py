"""The roundoff floor of `convergence.run_ladder`.

A rung whose error is at or below its floor has no truncation error left to
measure; the ladder is then a ConfigError that names the target's input key.
"""
import dataclasses
import itertools

import numpy as np
import pytest

from spindrift import cli, convergence, gallery
from spindrift.config import (CONVERGE_TARGETS, ConvergeSpec, ScenarioConfig,
                              serialize_config)

B_HAT = np.array([1.0, 2.0, 2.0]) / 3.0
P_HAT = np.array([2.0, -2.0, 1.0]) / 3.0  # perpendicular to B_HAT


def _converge(tmp_path, cfg):
    path = tmp_path / f"{cfg.name}.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path)])


def test_every_config_target_has_a_table_entry():
    assert tuple(convergence.TARGETS) == CONVERGE_TARGETS


@pytest.mark.parametrize("ladder, key, field, value", [
    ("converge_integrator", "initial.v", "v0", (0.0, 0.0, 0.5)),    # v || B
    ("converge_anomalous_fd", "initial.s", "s0", (0.5, 0.0, 0.0)),  # s || v
])
def test_roundoff_only_ladder_is_config_error(tmp_path, capsys, ladder, key,
                                              field, value):
    # the physical error is zero and the computed one roundoff that grows
    # with the step count, so a fitted order would be negative
    cfg = dataclasses.replace(gallery.converge_configs()[ladder],
                              name="flat", **{field: value})
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


@pytest.mark.parametrize("m, e, b, v", itertools.product(
    (1.0, 1.7), (1.0, -1.3), (0.002, 0.02, 0.2), (0.1, 0.5, 0.9)))
def test_floor_separates_zero_signal_from_real_ladders(m, e, b, v):
    s = 0.6 * B_HAT + 0.3 * P_HAT
    ladders = [  # (target, v0, s0, whether the physical error is zero)
        ("integrator", v * B_HAT, s, True),
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
