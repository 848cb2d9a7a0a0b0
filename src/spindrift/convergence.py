"""Convergence ladders and observed-order estimation.

Each converge target is one `TARGETS` entry; `run_ladder` halves any of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import algebra, dynamics, exact, packets
from .config import RUNGS, ConfigError, ScenarioConfig
from .packets import FG_RESIDUAL_COEFF, RESIDUAL_FLOOR

# Most Gauss-Hermite nodes per axis an fg rung doubles to: no rung builds
# more points than packet.grid_points' default 32^3 grid
FG_MAX_NODES = 32


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


def _rk4(state0, fields, dt: float, steps: int):
    """The endpoint (x, v, s) of `steps` classic RK4 steps in lab time of
    y = (x, u, S), u = gbar v and S the lab spin, as nine Python floats.

    u and the lab spin 4-vector a = (S0, S) obey d/dtau = A, the generator
    `exact` exponentiates, and d/dt = u0^-1 d/dtau: dx/dt = u/u0, du/dt =
    (A u)/u0 and dS/dt = (A a)/u0, with u0 = sqrt(1 + u^2) and S0 = u.S/u0
    since a.u = 0.  A non-finite endpoint raises IntegrationError.
    """
    # A is symmetric in its time row and column, antisymmetric in space
    A = exact._generator(fields).tolist()
    (a01, a02, a03), (a12, a13), a23 = A[0][1:], A[1][2:], A[2][3]

    def space_part(w0, w1, w2, w3):
        """The space components of A w."""
        return (a01 * w0 + a12 * w2 + a13 * w3,
                a02 * w0 - a12 * w1 + a23 * w3,
                a03 * w0 - a13 * w1 - a23 * w2)

    def deriv(y):
        _, _, _, u1, u2, u3, s1, s2, s3 = y
        u0 = math.sqrt(1.0 + u1 * u1 + u2 * u2 + u3 * u3)
        s0 = (u1 * s1 + u2 * s2 + u3 * s3) / u0
        return [c / u0 for c in (u1, u2, u3, *space_part(u0, u1, u2, u3),
                                 *space_part(s0, s1, s2, s3))]

    y = np.concatenate((state0.x, state0.gamma * state0.v,
                        dynamics.boost_spin(state0).S)).tolist()
    dt = float(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv([a + half * b for a, b in zip(y, k1)])
        k3 = deriv([a + half * b for a, b in zip(y, k2)])
        k4 = deriv([a + dt * b for a, b in zip(y, k3)])
        y = [a + sixth * (b + 2.0 * (c + d) + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    x, u, S = y = np.reshape(y, (3, 3))
    if not np.isfinite(y).all():
        raise dynamics.IntegrationError(
            f"the RK4 state is non-finite after {steps} steps")
    gamma = math.sqrt(1.0 + u @ u)
    v = u / gamma
    return x, v, dynamics.unboost_spin(
        dynamics.LabSpin(u @ S / gamma, S), v, gamma)


def _integrator_rung(cfg: ScenarioConfig, n: int):
    """RK4's endpoint error against the exact propagator at dt/n.

    The error is |dx|/T + |dv| + |ds|, with T = steps dt the duration every
    rung shares.  Uniform fields make the motion translation-invariant, so
    both start at x = 0, not initial.x.  Floor, in ulp of each quantity's
    largest value on the exact path: a step rounds each component of x, u
    and S by half an ulp as it adds the increment, sqrt(3)/2 per vector.
    |u| < gbar, and v = u/u0 moves by at most 1/u0 <= 1/min gbar of an
    error in u.  |S|^2 = |s|^2 + S0^2, and unboost_spin scales S by 1/gbar
    along v and by 1 across it, so s moves by at most the error in S.  The
    increment's own roundings, some 25 of eps/2 on a term at most dt R <=
    MAX_STEP_ROTATION of u's or S's scale, change sign from step to step
    and are not counted.  The reference adds exact.reference_ulps, in ulp
    of x, gbar and s gbar^2.
    """
    fields = cfg.field_config()
    state0 = dynamics.ClassicalState(0.0, (0.0, 0.0, 0.0), cfg.v0, cfg.s0)
    dt, steps = cfg.dt / n, cfg.steps * n
    try:
        x_rk, v_rk, s_rk = _rk4(state0, fields, dt, steps)
        x, v, s, gamma = exact.uniform_field_reference(
            state0, fields, dt * np.arange(steps + 1))
    except dynamics.IntegrationError as exc:
        raise ConfigError(f"integration.steps: {exc}") from None
    duration = dt * steps
    err = (np.linalg.norm(x_rk - x[-1]) / duration
           + np.linalg.norm(v_rk - v[-1])
           + np.linalg.norm(s_rk - s[-1]))
    x_max, s_max = (np.max(np.linalg.norm(a, axis=-1)) for a in (x, s))
    S_max = np.max(np.hypot(np.linalg.norm(s, axis=-1),
                            gamma * np.sum(s * v, axis=-1)))
    ref = exact.reference_ulps(fields, duration)
    g_max, g_min = np.max(gamma), np.min(gamma)
    floor = ((steps + ref) * np.spacing(x_max) / duration
             + (steps / g_min + ref) * np.spacing(g_max)
             + steps * np.spacing(S_max)
             + ref * g_max ** 2 * np.spacing(s_max))
    return dt, float(err), float(floor)


def _anomalous_fd_rung(cfg: ScenarioConfig, n: int):
    """Central-difference d(deltaX)/dt of the exact motion against the
    analytic form at dt/n, so the error is the difference's h^2 alone.

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
    try:
        traj = exact.propagate(cfg.initial_state(), fields, dt, steps)
    except dynamics.IntegrationError as exc:
        raise ConfigError(f"integration.steps: {exc}") from None
    if traj.max_ev > dynamics.CONSTANT_GAMMA_REFUSE * cfg.mass**2:
        raise ConfigError(f"converge: |e E.v| reaches {traj.max_ev:.3e}; the "
                          f"anomalous-velocity comparison needs a "
                          f"frozen-energy scenario")
    fd = (traj.delta_x[2:] - traj.delta_x[:-2]) / (2.0 * traj.dt)
    err = np.linalg.norm(fd - traj.v_anomalous[1:-1], axis=1)
    scale = np.max(traj.gamma * np.linalg.norm(traj.s, axis=1)
                   * np.linalg.norm(traj.v, axis=1)) / (2.0 * cfg.mass)
    return dt, float(err.max()), 14.0 * np.spacing(scale) / (2.0 * traj.dt)


def _settled_packet(cfg: ScenarioConfig, widths):
    """The configured packet at `widths` on Gauss-Hermite nodes, doubled
    from 4 until no residual of the Fradkin-Good relations and the three
    mass-center offsets, over m^dim, moves by more than RESIDUAL_FLOOR, or
    to FG_MAX_NODES; with those residuals and their last move."""
    def residuals(nodes):
        pkt = cfg.wave_packet(widths, nodes=nodes)
        return pkt, np.array([
            rel.residual / cfg.mass ** FG_RESIDUAL_COEFF[rel.name][1]
            for rel in (*packets.verify_fg_relations(pkt).values(),
                        *(packets.verify_main_result(pkt, kind)
                          for kind in algebra.PRYCE_KINDS))])

    nodes, change = 4, math.inf
    pkt, rows = residuals(nodes)
    while change > RESIDUAL_FLOOR and nodes < FG_MAX_NODES:
        nodes *= 2
        pkt, finer = residuals(nodes)
        change, rows = float(np.max(np.abs(finer - rows))), finer
    return pkt, rows, change


def _fg_rung(cfg: ScenarioConfig, n: int):
    """Worst residual of `_settled_packet` at widths / n.  Its floor is the
    larger of RESIDUAL_FLOOR and the rule's last move, so a rule that has
    not settled by FG_MAX_NODES never passes for truncation error."""
    w = np.array(cfg.packet.widths, dtype=float) / n
    _, rows, change = _settled_packet(cfg, w)
    return float(np.max(w)), float(np.max(rows)), max(RESIDUAL_FLOOR, change)


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
