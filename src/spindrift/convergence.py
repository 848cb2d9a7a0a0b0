"""Convergence ladders and observed-order estimation."""
from __future__ import annotations

from dataclasses import dataclass

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


# acceptance windows: order must land in center +- halfwidth
ORDER_WINDOW = {
    "integrator": (4.0, 0.5),
    "fg": (2.0, 0.5),
    "anomalous-fd": (2.0, 0.5),
}


def integrator_ladder(cfg: ScenarioConfig) -> Ladder:
    """Endpoint position error against the pure-B closed form, halving dt."""
    if any(cfg.E):
        raise ConfigError("converge: the integrator target needs a pure "
                          "magnetic field (closed-form reference)")
    if not any(cfg.B):
        raise ConfigError("converge: the integrator target needs a nonzero "
                          "magnetic field")
    fields = cfg.field_config()
    state0 = cfg.initial_state()
    dts, errs = [], []
    for k in range(cfg.converge.rungs):
        dt = cfg.dt / 2**k
        steps = cfg.steps * 2**k
        traj = dynamics.integrate(state0, fields, dt, steps,
                                  sample_every=steps)
        x_ref, _ = dynamics.helix_reference(state0, fields, traj.t[-1:])
        errs.append(float(np.linalg.norm(traj.x[-1] - x_ref[0])))
        dts.append(dt)
    return Ladder("integrator", np.array(dts), np.array(errs))


def fg_ladder(cfg: ScenarioConfig) -> Ladder:
    """Worst relation residual above the roundoff floor, halving the width."""
    widths = np.array(cfg.packet.widths, dtype=float)
    ws, errs = [], []
    for k in range(cfg.converge.rungs):
        w = widths / 2**k
        rep = packets.verify_fg_relations(cfg.wave_packet(w))
        live = [r.residual for r in rep if r.residual > RESIDUAL_FLOOR]
        if not live:
            raise ConfigError("converge: every relation residual sits at "
                              "roundoff; nothing to measure")
        errs.append(max(live))
        ws.append(float(np.max(w)))
    return Ladder("fg", np.array(ws), np.array(errs))


def anomalous_fd_ladder(cfg: ScenarioConfig) -> Ladder:
    """Central-difference d(deltaX)/dt against the analytic form, halving dt.

    Requires a frozen-energy scenario; the dry-run |e E.v| monitor guards
    that precondition.
    """
    fields = cfg.field_config()
    state0 = cfg.initial_state()
    dts, errs = [], []
    for k in range(cfg.converge.rungs):
        dt = cfg.dt / 2**k
        steps = cfg.steps * 2**k
        traj = dynamics.integrate(state0, fields, dt, steps)
        if traj.max_ev > dynamics.CONSTANT_GAMMA_REFUSE * cfg.mass**2:
            raise ConfigError(
                f"converge: |e E.v| reaches {traj.max_ev:.3e}; the "
                f"anomalous-velocity comparison needs a frozen-energy "
                f"scenario")
        fd = traj.finite_difference(traj.delta_x)
        err = float(np.max(np.linalg.norm(
            fd - traj.v_anomalous[traj.interior_slice()], axis=1)))
        errs.append(err)
        dts.append(dt)
    return Ladder("anomalous-fd", np.array(dts), np.array(errs))


def run_ladder(cfg: ScenarioConfig) -> Ladder:
    if cfg.converge.rungs < 3:
        raise ConfigError("converge.rungs: ladder needs at least 3 rungs")
    target = cfg.converge.target
    if target == "integrator":
        return integrator_ladder(cfg)
    if target == "fg":
        return fg_ladder(cfg)
    if target == "anomalous-fd":
        return anomalous_fd_ladder(cfg)
    raise ConfigError(f"converge.target: unknown target {target!r}")
