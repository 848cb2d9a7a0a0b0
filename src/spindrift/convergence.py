"""Convergence ladders and observed-order estimation.

Each converge target is one `TARGETS` entry; `run_ladder` halves any of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import algebra, dynamics, exact, packets
from .config import RUNGS, ConfigError, ScenarioConfig
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
    """RK4's endpoint error against the exact propagator at dt/n.

    The error is |dx|/T + |dv| + |ds|, with T = steps dt the duration every
    rung shares.  Uniform fields make the motion translation-invariant, so
    both start at x = 0, not initial.x.  Floor, in ulp of each quantity's
    largest value on the exact path: a step rounds the three components of
    x, p and s by half an ulp, sqrt(3)/2 per step, with |p| < m gbar, and
    an error in p moves v by at most 1/E <= 1/(m min gbar) of it.  The
    reference adds exact.reference_ulps, in ulp of x, gbar and s gbar^2.
    """
    fields = cfg.field_config()
    state0 = dynamics.ClassicalState(0.0, (0.0, 0.0, 0.0), cfg.v0, cfg.s0)
    dt, steps = cfg.dt / n, cfg.steps * n
    traj = dynamics.integrate(state0, fields, dt, steps, sample_every=steps)
    x, v, s, gamma = exact.uniform_field_reference(
        state0, fields, dt * np.arange(steps + 1))
    duration = traj.t[-1]
    err = (np.linalg.norm(traj.x[-1] - x[-1]) / duration
           + np.linalg.norm(traj.v[-1] - v[-1])
           + np.linalg.norm(traj.s[-1] - s[-1]))

    def ulp(series):
        return np.spacing(np.max(np.linalg.norm(series, axis=-1)))

    ref = exact.reference_ulps(fields, duration)
    g_max, g_min = np.max(gamma), np.min(gamma)
    floor = ((steps + ref) * ulp(x) / duration
             + (steps / g_min + ref) * np.spacing(g_max)
             + (steps + ref * g_max ** 2) * ulp(s))
    return dt, float(err), float(floor)


def _anomalous_fd_rung(cfg: ScenarioConfig, n: int):
    """Central-difference d(deltaX)/dt against the analytic form at dt/n.

    Needs frozen energy.  deltaX = S x v / 2m is cancellation noise when
    s || v, so the floor scales with its inputs: max gbar |s| |v| / 2m on
    the path, ~4 ulp per component (spin boost, p/E, two products, their
    difference), two samples over 2h and three components, 4*2*sqrt(3) < 14.
    """
    if cfg.steps < 2:
        raise ConfigError("integration.steps: the anomalous-fd target needs "
                          ">= 2, for a central difference at an interior "
                          "sample")
    fields = cfg.field_config()
    dt, steps = cfg.dt / n, cfg.steps * n
    traj = dynamics.integrate(cfg.initial_state(), fields, dt, steps)
    if traj.max_ev > dynamics.CONSTANT_GAMMA_REFUSE * cfg.mass**2:
        raise ConfigError(f"converge: |e E.v| reaches {traj.max_ev:.3e}; the "
                          f"anomalous-velocity comparison needs a "
                          f"frozen-energy scenario")
    fd = (traj.delta_x[2:] - traj.delta_x[:-2]) / (2.0 * traj.dt)
    err = np.linalg.norm(fd - traj.v_anomalous[1:-1], axis=1)
    scale = np.max(traj.gamma * np.linalg.norm(traj.s, axis=1)
                   * np.linalg.norm(traj.v, axis=1)) / (2.0 * cfg.mass)
    return dt, float(err.max()), 14.0 * np.spacing(scale) / (2.0 * traj.dt)


def _fg_rung(cfg: ScenarioConfig, n: int):
    """Worst residual over the Fradkin-Good relations and the three
    mass-center offsets, every sum of the packet's pass, at widths / n."""
    w = np.array(cfg.packet.widths, dtype=float) / n
    pkt = cfg.wave_packet(w)
    rels = [*packets.verify_fg_relations(pkt).values(),
            *(packets.verify_main_result(pkt, kind)
              for kind in algebra.PRYCE_KINDS)]
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
    for k in range(RUNGS):
        h, err, floor = target.rung(cfg, 2**k)
        if err <= floor:
            raise ConfigError(f"{target.key}: rung {k} error {err:.3g} is at "
                              f"its roundoff floor {floor:.3g}; nothing to "
                              f"converge")
        rows.append((h, err))
    return Ladder(cfg.converge.target, *np.array(rows).T)
