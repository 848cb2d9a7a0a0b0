"""Convergence ladders and observed-order estimation.

Each converge target is one `TARGETS` entry; `run_ladder` halves any of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, packets
from .config import ConfigError, ScenarioConfig
from .packets import RESIDUAL_FLOOR


@dataclass
class Ladder:
    """Resolutions, errors and order estimates for one refinement study."""

    target: str
    resolutions: np.ndarray
    errors: np.ndarray

    @property
    def pairwise_orders(self) -> np.ndarray:
        h, e = self.resolutions, self.errors
        return np.array([np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1])
                         for i in range(len(e) - 1)])

    @property
    def fitted_order(self) -> float:
        """Least-squares slope of log error against log resolution."""
        return float(np.polyfit(np.log(self.resolutions),
                                np.log(self.errors), 1)[0])


def _integrator_rung(cfg: ScenarioConfig, n: int):
    """Endpoint position error against the pure-B closed form at dt/n.

    Floor: a step rounds three position components by half an ulp of the
    largest position on the path, the same way every step on a straight
    path (v || B): sqrt(3)/2 < 1 ulp per step.
    """
    if any(cfg.E):
        raise ConfigError("converge: the integrator target needs a pure "
                          "magnetic field (closed-form reference)")
    if not any(cfg.B):
        raise ConfigError("converge: the integrator target needs a nonzero "
                          "magnetic field")
    fields, state0 = cfg.field_config(), cfg.initial_state()
    dt, steps = cfg.dt / n, cfg.steps * n
    traj = dynamics.integrate(state0, fields, dt, steps, sample_every=steps)
    x_ref, _ = dynamics.helix_reference(state0, fields, traj.t[-1:])
    path, _ = dynamics.helix_reference(state0, fields,
                                       dt * np.arange(steps + 1))
    floor = steps * np.spacing(np.max(np.linalg.norm(path, axis=-1)))
    return dt, float(np.linalg.norm(traj.x[-1] - x_ref[0])), float(floor)


def _anomalous_fd_rung(cfg: ScenarioConfig, n: int):
    """Central-difference d(deltaX)/dt against the analytic form at dt/n.

    Needs frozen energy.  deltaX = S x v / 2m is cancellation noise when
    s || v, so the floor scales with its inputs: max gbar |s| |v| / 2m on
    the path, ~4 ulp per component (spin boost, p/E, two products, their
    difference), two samples over 2h and three components, 4*2*sqrt(3) < 14.
    """
    fields = cfg.field_config()
    dt, steps = cfg.dt / n, cfg.steps * n
    traj = dynamics.integrate(cfg.initial_state(), fields, dt, steps)
    if traj.max_ev > dynamics.CONSTANT_GAMMA_REFUSE * cfg.mass**2:
        raise ConfigError(f"converge: |e E.v| reaches {traj.max_ev:.3e}; the "
                          f"anomalous-velocity comparison needs a "
                          f"frozen-energy scenario")
    err = np.linalg.norm(traj.finite_difference(traj.delta_x)
                         - traj.v_anomalous[traj.interior_slice()], axis=1)
    scale = np.max(traj.gamma * np.linalg.norm(traj.s, axis=1)
                   * np.linalg.norm(traj.v, axis=1)) / (2.0 * cfg.mass)
    return dt, float(err.max()), 14.0 * np.spacing(scale) / (2.0 * traj.dt)


def _fg_rung(cfg: ScenarioConfig, n: int):
    """Worst Fradkin-Good relation residual at packet widths / n."""
    w = np.array(cfg.packet.widths, dtype=float) / n
    rels = packets.verify_fg_relations(cfg.wave_packet(w)).values()
    return float(np.max(w)), max(r.residual for r in rels), RESIDUAL_FLOOR


class Target(NamedTuple):
    rung: Callable  # (cfg, n) -> (resolution, error, roundoff floor)
    window: tuple   # the fitted order must land in center +- halfwidth
    key: str        # the input a ladder at its roundoff floor points at


TARGETS = {
    "integrator": Target(_integrator_rung, (4.0, 0.5), "initial.v"),
    "fg": Target(_fg_rung, (2.0, 0.5), "packet.widths"),
    "anomalous-fd": Target(_anomalous_fd_rung, (2.0, 0.5), "initial.s"),
}


def run_ladder(cfg: ScenarioConfig) -> Ladder:
    """Halve the resolution; an error at its floor is a ConfigError."""
    target = TARGETS[cfg.converge.target]
    rows = []
    for k in range(cfg.converge.rungs):
        h, err, floor = target.rung(cfg, 2**k)
        if err <= floor:
            raise ConfigError(f"{target.key}: rung {k} error {err:.3g} is at "
                              f"its roundoff floor {floor:.3g}; nothing to "
                              f"converge")
        rows.append((h, err))
    return Ladder(cfg.converge.target, *np.array(rows).T)
