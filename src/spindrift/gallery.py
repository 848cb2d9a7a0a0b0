"""Canonical scenario gallery.

Four configurations, each exercising a distinct analytic regime of the
anomalous velocity:

* ``e_only_low_velocity`` -- electric field only, starting at rest; the
  low-velocity limit where the d/e/c mass-center velocities reduce to
  v + e/(2m^2) s x E, half of it, and v.
* ``cyclotron`` -- pure magnetic field, transverse velocity; closed-form
  orbit used for integrator accuracy and conservation checks.
* ``crossed_drift`` -- crossed E x B fields with the velocity on the drift
  value E x B / B^2, so the force vanishes and the energy is frozen while
  both field terms of the anomalous velocity stay active.
* ``fprime_zero`` -- pure magnetic field with spin parallel to B, the
  configuration on which the Thomas-precession form is valid.
"""
from __future__ import annotations

import pathlib

from .config import ConvergeSpec, ScenarioConfig, serialize_config
from .dynamics import cyclotron_period

# the orbit of the cyclotron scenario and of two ladders
_ORBIT = ScenarioConfig(charge=1.0, B=(0.0, 0.0, 0.02), v0=(0.6, 0.0, 0.0))
_PERIOD = cyclotron_period(_ORBIT.initial_state(), _ORBIT.field_config())


def gallery_configs() -> dict[str, ScenarioConfig]:
    """Name -> configuration for the shipped scenarios."""
    e_only = ScenarioConfig(
        name="e_only_low_velocity", mode="simulate", mass=1.0, charge=1.0,
        E=(1e-4, 0.0, 0.0), B=(0.0, 0.0, 0.0),
        x0=(0.0, 0.0, 0.0), v0=(0.0, 0.0, 0.0), s0=(0.0, 0.0, 0.5),
        dt=0.05, steps=60, sample_every=1)
    cyclotron = ScenarioConfig(
        name="cyclotron", mode="simulate", mass=1.0, charge=1.0,
        E=(0.0, 0.0, 0.0), B=_ORBIT.B, x0=(0.0, 0.0, 0.0), v0=_ORBIT.v0,
        s0=(0.15, 0.0, 0.65), dt=_PERIOD / 1000.0, steps=10000, sample_every=1)
    crossed = ScenarioConfig(
        name="crossed_drift", mode="simulate", mass=1.0, charge=1.0,
        E=(0.0, 0.006, 0.0), B=(0.0, 0.0, 0.02),
        x0=(0.0, 0.0, 0.0), v0=(0.3, 0.0, 0.0), s0=(0.3, 0.2, 0.4),
        dt=1.0, steps=800, sample_every=1)
    fprime_zero = ScenarioConfig(
        name="fprime_zero", mode="simulate", mass=1.0, charge=1.0,
        E=(0.0, 0.0, 0.0), B=(0.0, 0.0, 0.02),
        x0=(0.0, 0.0, 0.0), v0=(0.5, 0.0, 0.0), s0=(0.0, 0.0, 0.6),
        dt=0.45, steps=1600, sample_every=1)
    return {cfg.name: cfg for cfg in (e_only, cyclotron, crossed,
                                      fprime_zero)}


def converge_configs() -> dict[str, ScenarioConfig]:
    """Ready-made ladders for the three convergence targets."""
    # the integrator and anomalous-fd ladders share one cyclotron orbit
    integrator, anomalous = [ScenarioConfig(
        name=f"converge_{target.replace('-', '_')}", mode="converge",
        mass=1.0, charge=1.0, B=_ORBIT.B, v0=_ORBIT.v0, s0=(0.15, 0.0, 0.65),
        dt=_PERIOD / 100.0, steps=100,
        converge=ConvergeSpec(target=target))
        for target in ("integrator", "anomalous-fd")]
    fg = ScenarioConfig(name="converge_fg", mode="converge",
                        converge=ConvergeSpec(target="fg"))
    fg.packet.widths = (0.04, 0.04, 0.04)
    return {cfg.name: cfg for cfg in (integrator, fg, anomalous)}


def write_gallery(outdir) -> list[pathlib.Path]:
    """Write every gallery and convergence config; returns the paths."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, cfg in {**gallery_configs(), **converge_configs()}.items():
        path = outdir / f"{name}.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        paths.append(path)
    return paths
